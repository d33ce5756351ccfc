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
whose table the evaluator fills.  The bounded search uses it too, without
an equality symbol, for every formula free of two-path equality.
"""

from __future__ import annotations

from itertools import count

from . import jnl
from . import jsl
from . import recursive as rec
from . import regex as rx
from ._node import each, walk
from .errors import FragmentViolation


def jnl_to_jsl(phi: jnl.JnlUnary) -> jsl.JslFormula:
    """Translate a unary navigational formula (no two-path equality, no
    closure) into an equivalent schema-logic formula."""
    return _translate(phi, None, None)


def _jnl_to_recursive(phi: jnl.JnlUnary, eq_symbol) -> rec.RecursiveJslExpr:
    """Any unary navigational formula as a recursive schema-logic
    expression; each eq(alpha, beta) becomes the symbol name that
    ``eq_symbol`` returns for it, left undefined (with None for
    ``eq_symbol``, it raises FragmentViolation).

    ``alpha*`` followed by K becomes ``g = K || <alpha> g``, where
    ``<alpha>`` keeps only the alpha-successors strictly below the node
    (``jnl.strict_paths``), so every use of g in its own body sits under a
    modality: the least fixpoint at a node gains nothing from the node
    itself.  A body that never moves leaves K alone.

    The walk's memo translates a closure once per continuation, which the
    strict paths of an outer closure repeat: the definitions grow linearly
    with the nesting depth, not factorially."""
    base = _translate(phi, eq_symbol, definitions := [])
    return rec.RecursiveJslExpr(tuple(definitions), base)


def _translate(phi: jnl.JnlUnary, eq_symbol, definitions):
    """The translation of ``phi``, appending a definition per closure to
    ``definitions``; with None for it no closure translates, and with
    None for ``eq_symbol`` no two-path equality.  The walk's items are
    unary formulas and pairs ``(alpha, K)``: some alpha-successor exists
    at which K holds."""
    fresh = count(1)

    def visit(item):
        if isinstance(item, tuple):
            alpha, cont = item
            if isinstance(alpha, jnl.Eps):
                return cont
            if isinstance(alpha, jnl.Test):
                return jsl.And(cont, (yield alpha.body))
            if isinstance(alpha, jnl.KeyAxis):
                return jsl.DiaKey(rx.word_regex(alpha.key), cont)
            if isinstance(alpha, jnl.KeyRegexAxis):
                return jsl.DiaKey(alpha.pattern, cont)
            if isinstance(alpha, jnl.IdxAxis):
                return jsl.DiaIdx(alpha.pos, alpha.pos, cont)
            if isinstance(alpha, jnl.IdxRangeAxis):
                return jsl.DiaIdx(alpha.lo, alpha.hi, cont)
            if isinstance(alpha, jnl.Compose):
                return (yield alpha.lhs, (yield alpha.rhs, cont))
            if isinstance(alpha, jnl.Star):
                if definitions is None:
                    raise FragmentViolation("(alpha)*",
                                            "closure needs the recursive schema logic")
                paths = jnl.strict_paths(alpha.body)
                if not paths or cont == jsl.TOP:  # the node itself is a successor
                    return cont
                g = jsl.SymbolRef(f"*{next(fresh)}")
                parts = yield from each((p, g) for p in paths)
                definitions.append((g.name, jsl.or_all([cont] + parts)))
                return g
            raise TypeError(f"not a path formula: {alpha!r}")
        if isinstance(item, jnl.Top):
            return jsl.TOP
        if isinstance(item, jnl.Not):
            return jsl.Not((yield item.body))
        if isinstance(item, (jnl.And, jnl.Or)):
            join = jsl.And if isinstance(item, jnl.And) else jsl.Or
            return join((yield item.lhs), (yield item.rhs))
        if isinstance(item, jnl.Exists):
            return (yield item.path, jsl.TOP)
        if isinstance(item, jnl.EqConst):
            return (yield item.path, jsl.Atom(jsl.SameAsTest(item.const)))
        if isinstance(item, jnl.EqPaths):
            if eq_symbol is None:
                raise FragmentViolation("eq(alpha, beta)",
                                        "two-path equality has no schema-logic counterpart")
            return jsl.SymbolRef(eq_symbol(item))
        raise TypeError(f"not a unary formula: {item!r}")
    return walk(visit, phi)


def jsl_to_jnl(phi: jsl.JslFormula) -> jnl.JnlUnary:
    """Translate a schema-logic formula whose only node test is same(...)
    into an equivalent unary navigational formula."""
    def visit(phi):
        if isinstance(phi, jsl.Top):
            return jnl.TOP
        if isinstance(phi, jsl.Not):
            return jnl.Not((yield phi.body))
        if isinstance(phi, (jsl.And, jsl.Or)):
            join = jnl.And if isinstance(phi, jsl.And) else jnl.Or
            return join((yield phi.lhs), (yield phi.rhs))
        if isinstance(phi, jsl.Atom):
            if isinstance(phi.test, jsl.SameAsTest):
                return jnl.EqConst(jnl.Eps(), phi.test.const)
            raise FragmentViolation(jsl.to_text(phi),
                                    "only the same(...) node test translates")
        if isinstance(phi, (jsl.DiaKey, jsl.BoxKey)):
            word = rx.literal_word(phi.pattern)
            axis = jnl.KeyRegexAxis(phi.pattern) if word is None else jnl.KeyAxis(word)
        elif isinstance(phi, (jsl.DiaIdx, jsl.BoxIdx)):
            axis = jnl.IdxAxis(phi.lo) if phi.hi == phi.lo else jnl.IdxRangeAxis(phi.lo, phi.hi)
        elif isinstance(phi, jsl.SymbolRef):
            raise FragmentViolation(phi.name, "definition symbols do not translate")
        else:
            raise TypeError(f"not a formula: {phi!r}")
        if isinstance(phi, (jsl.DiaKey, jsl.DiaIdx)):
            return jnl.Exists(jnl.Compose(axis, jnl.Test((yield phi.body))))
        return jnl.Not(jnl.Exists(jnl.Compose(axis, jnl.Test(jnl.Not((yield phi.body))))))
    return walk(visit, phi)

