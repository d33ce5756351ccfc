"""Compilers between the navigational and the schema logic.

The two logics coincide on a large fragment: navigational formulas without
the two-path equality predicate and without closure, against schema-logic
formulas whose only node test is constant equality.  Outside the admissible
fragment a FragmentViolation names the offending construct.

Navigational-to-schema works continuation style: a path formula followed
by a condition K becomes nested diamonds ending in K, tests become
conjunctions carried along, so eq(test([@"b"]) / @"a", A) compiles to
``dia("a") same(A) && dia("b") true``.

The JNL evaluator uses the same translation for every formula through an
internal entry point, ``_jnl_to_recursive``: a closure becomes a shielded
definition of the recursive schema logic and a two-path equality a symbol
whose table the evaluator fills.
"""

from __future__ import annotations

from functools import reduce

from . import jnl
from . import jsl
from . import recursive as rec
from . import regex as rx
from .errors import FragmentViolation


def jnl_to_jsl(phi: jnl.JnlUnary) -> jsl.JslFormula:
    """Translate a unary navigational formula (no two-path equality, no
    closure) into an equivalent schema-logic formula."""
    return _tu(phi, None)


class _Defs:
    """What the evaluator's translation collects: one definition per
    closure and continuation, and a symbol from ``eq_symbol`` per two-path
    equality."""

    def __init__(self, eq_symbol):
        self.definitions = []
        self.eq_symbol = eq_symbol
        self.count = 0
        self.closures = {}  # (alpha*, K) -> its definition's symbol

    def fresh(self) -> str:
        self.count += 1
        return f"*{self.count}"  # no formula can name it


def _jnl_to_recursive(phi: jnl.JnlUnary, eq_symbol) -> rec.RecursiveJslExpr:
    """Any unary navigational formula as a recursive schema-logic
    expression; each eq(alpha, beta) becomes the symbol name that
    ``eq_symbol`` returns for it, left undefined.

    ``alpha*`` followed by K becomes ``g = K || <alpha> g``, where
    ``<alpha>`` keeps only the alpha-successors strictly below the node
    (``jnl.strict_paths``), so every use of g in its own body sits under a
    modality: the least fixpoint at a node gains nothing from the node
    itself.  A body that never moves leaves K alone.

    Each closure is translated once per continuation: the strict paths of
    a closure nested in another repeat the inner one, and without sharing
    the definitions would grow factorially with the nesting depth."""
    defs = _Defs(eq_symbol)
    base = _tu(phi, defs)
    return rec.RecursiveJslExpr(tuple(defs.definitions), base)


def _tu(phi: jnl.JnlUnary, defs) -> jsl.JslFormula:
    if isinstance(phi, jnl.Top):
        return jsl.TOP
    if isinstance(phi, jnl.Not):
        return jsl.Not(_tu(phi.body, defs))
    if isinstance(phi, (jnl.And, jnl.Or)):
        join = jsl.And if isinstance(phi, jnl.And) else jsl.Or
        return reduce(join, [_tu(f, defs) for f in jnl.operands(phi)])
    if isinstance(phi, jnl.Exists):
        return _tb(phi.path, jsl.TOP, defs)
    if isinstance(phi, jnl.EqConst):
        return _tb(phi.path, jsl.Atom(jsl.SameAsTest(phi.const)), defs)
    if isinstance(phi, jnl.EqPaths):
        if defs is None:
            raise FragmentViolation("eq(alpha, beta)",
                                    "two-path equality has no schema-logic counterpart")
        return jsl.SymbolRef(defs.eq_symbol(phi))
    raise TypeError(f"not a unary formula: {phi!r}")


def _tb(alpha: jnl.JnlBinary, cont: jsl.JslFormula, defs) -> jsl.JslFormula:
    """Formula meaning: some alpha-successor exists at which ``cont`` holds."""
    if isinstance(alpha, jnl.Eps):
        return cont
    if isinstance(alpha, jnl.Test):
        return jsl.And(cont, _tu(alpha.body, defs))
    if isinstance(alpha, jnl.KeyAxis):
        return jsl.DiaKey(rx.word_regex(alpha.key), cont)
    if isinstance(alpha, jnl.KeyRegexAxis):
        return jsl.DiaKey(alpha.pattern, cont)
    if isinstance(alpha, jnl.IdxAxis):
        return jsl.DiaIdx(alpha.pos, alpha.pos, cont)
    if isinstance(alpha, jnl.IdxRangeAxis):
        return jsl.DiaIdx(alpha.lo, alpha.hi, cont)
    if isinstance(alpha, jnl.Compose):
        return _tb(alpha.lhs, _tb(alpha.rhs, cont, defs), defs)
    if isinstance(alpha, jnl.Star):
        if defs is None:
            raise FragmentViolation("(alpha)*",
                                    "closure needs the recursive schema logic")
        paths = jnl.strict_paths(alpha.body)
        if not paths or cont == jsl.TOP:  # the node itself is a successor
            return cont
        g = defs.closures.get((alpha, cont))
        if g is None:
            g = defs.closures[alpha, cont] = jsl.SymbolRef(defs.fresh())
            defs.definitions.append((g.name, jsl.or_all([cont] + [_tb(p, g, defs) for p in paths])))
        return g
    raise TypeError(f"not a path formula: {alpha!r}")


def jsl_to_jnl(phi: jsl.JslFormula) -> jnl.JnlUnary:
    """Translate a schema-logic formula whose only node test is same(...)
    into an equivalent unary navigational formula."""
    if isinstance(phi, jsl.Top):
        return jnl.TOP
    if isinstance(phi, jsl.Not):
        return jnl.Not(jsl_to_jnl(phi.body))
    if isinstance(phi, (jsl.And, jsl.Or)):
        join = jnl.And if isinstance(phi, jsl.And) else jnl.Or
        return reduce(join, [jsl_to_jnl(f) for f in jnl.operands(phi)])
    if isinstance(phi, jsl.Atom):
        if isinstance(phi.test, jsl.SameAsTest):
            return jnl.EqConst(jnl.Eps(), phi.test.const)
        raise FragmentViolation(jsl.to_text(phi),
                                "only the same(...) node test translates")
    if isinstance(phi, jsl.DiaKey):
        return jnl.Exists(jnl.Compose(_key_axis(phi.pattern),
                                      jnl.Test(jsl_to_jnl(phi.body))))
    if isinstance(phi, jsl.DiaIdx):
        return jnl.Exists(jnl.Compose(_idx_axis(phi.lo, phi.hi),
                                      jnl.Test(jsl_to_jnl(phi.body))))
    if isinstance(phi, jsl.BoxKey):
        inner = jnl.Compose(_key_axis(phi.pattern),
                            jnl.Test(jnl.Not(jsl_to_jnl(phi.body))))
        return jnl.Not(jnl.Exists(inner))
    if isinstance(phi, jsl.BoxIdx):
        inner = jnl.Compose(_idx_axis(phi.lo, phi.hi),
                            jnl.Test(jnl.Not(jsl_to_jnl(phi.body))))
        return jnl.Not(jnl.Exists(inner))
    if isinstance(phi, jsl.SymbolRef):
        raise FragmentViolation(phi.name, "definition symbols do not translate")
    raise TypeError(f"not a formula: {phi!r}")


def _key_axis(pattern: rx.Regex) -> jnl.JnlBinary:
    word = rx.literal_word(pattern)
    if word is not None:
        return jnl.KeyAxis(word)
    return jnl.KeyRegexAxis(pattern)


def _idx_axis(lo: int, hi) -> jnl.JnlBinary:
    if hi == lo:
        return jnl.IdxAxis(lo)
    return jnl.IdxRangeAxis(lo, hi)
