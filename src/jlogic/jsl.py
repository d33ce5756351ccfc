"""Schema logic over JSON trees.

Formulas combine atomic node tests (kind tests, value patterns, numeric
bounds, child-count bounds, array uniqueness, constant equality) with
existential and universal modalities over key regexes and 1-based index
intervals.  A document validates against a formula when the formula holds
at the root.

Concrete syntax::

    arr  obj  str  int  unique  pattern(/e/)  min(i)  max(i)  multOf(i)
    minCh(i)  maxCh(i)  same(<json>)
    box(/e/) phi   dia(/e/) phi     key-regex modalities
    box("w") phi   dia("w") phi     single-key sugar
    box(i:j) phi   dia(i:*) phi     index intervals, dia(i) single index
    true  !phi  phi && psi  phi || psi  (phi)

``min``/``max`` are inclusive bounds.  Bare identifiers are definition
symbols and only admitted inside recursive expressions.  Formulas are
interned (``_node``): equal formulas are one object, compared in O(1).
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from json import dumps
from typing import Callable

from . import regex as rx
from ._node import Node, each, walk
from . import syntax
from . import tree as jt
from .errors import DocumentError, MalformedFormula, MalformedRegex
from .jnl import regex_literal, write_regex
from .syntax import ATOM, CONST, END, GROUP, INFIX, PREFIX, operands
from .tree import JsonTree, NodeKind


class NodeTest(Node):
    __slots__ = ()


class KindTest(NodeTest):
    __slots__ = ("kind",)


class UniqueTest(NodeTest):
    __slots__ = ()


class PatternTest(NodeTest):
    __slots__ = ("pattern",)


class MinTest(NodeTest):
    __slots__ = ("bound",)


class MaxTest(NodeTest):
    __slots__ = ("bound",)


class MultOfTest(NodeTest):
    __slots__ = ("divisor",)


class MinChTest(NodeTest):
    __slots__ = ("count",)


class MaxChTest(NodeTest):
    __slots__ = ("count",)


class SameAsTest(NodeTest):
    __slots__ = ("const",)


class JslFormula(Node):
    # _nesting: how deep compile_formula's closures nest when they run; of
    # a chain of one connective also _chain, its operand count and deepest;
    # _symbols: symbol_sets' answer, kept once it is asked for
    __slots__ = ("_nesting", "_chain", "_symbols")

    def __post_init__(self):
        object.__setattr__(self, "_nesting", _nesting(self))

    def __repr__(self):
        return f"<jsl {to_text(self)}>"


class Top(JslFormula):
    __slots__ = ()


class Not(JslFormula):
    __slots__ = ("body",)


class And(JslFormula):
    __slots__ = ("lhs", "rhs")


class Or(JslFormula):
    __slots__ = ("lhs", "rhs")


class Atom(JslFormula):
    __slots__ = ("test",)


class BoxKey(JslFormula):
    __slots__ = ("pattern", "body")


class DiaKey(JslFormula):
    __slots__ = ("pattern", "body")


class BoxIdx(JslFormula):
    # hi: None = unbounded
    __slots__ = ("lo", "hi", "body")


class DiaIdx(JslFormula):
    __slots__ = ("lo", "hi", "body")


class SymbolRef(JslFormula):
    """A named definition used as an atom (recursive expressions only)."""
    __slots__ = ("name",)


def _nesting(f: JslFormula) -> int:
    """One level per modality, node test and ``!``; a chain as a balanced tree."""
    if isinstance(f, (And, Or)):
        width, deepest = f.lhs._chain if type(f.lhs) is type(f) else (1, f.lhs._nesting)
        object.__setattr__(f, "_chain", (width + 1, max(deepest, f.rhs._nesting)))
        return width.bit_length() + f._chain[1]
    return 1 + f.body._nesting if hasattr(f, "body") else int(isinstance(f, Atom))


TOP = Top()
BOTTOM = Not(TOP)


def and_all(parts) -> JslFormula:
    parts = list(parts)
    return reduce(And, parts) if parts else TOP


def or_all(parts) -> JslFormula:
    parts = list(parts)
    return reduce(Or, parts) if parts else BOTTOM


def subformulas(phi: JslFormula) -> list:
    """Each distinct subformula once, every one after its operands."""
    out = []

    def visit(f):
        if isinstance(f, (And, Or)):
            yield f.lhs
            yield f.rhs
        elif isinstance(f, (Not, BoxKey, DiaKey, BoxIdx, DiaIdx)):
            yield f.body
        out.append(f)
    walk(visit, phi)
    return out


def symbols_used(phi: JslFormula) -> set:
    return set(symbol_sets(phi)[0])


def symbol_sets(phi: JslFormula) -> tuple:
    """The symbols ``phi`` names anywhere, and outside every modality; one
    walk over its distinct parts, the first time ``phi`` is asked."""
    if not hasattr(phi, "_symbols"):
        anywhere, unshielded = set(), set()

        def visit(item):
            f, shielded = item
            if isinstance(f, SymbolRef):
                (anywhere if shielded else unshielded).add(f.name)
            elif isinstance(f, (And, Or)):
                yield f.lhs, shielded
                yield f.rhs, shielded
            elif hasattr(f, "body"):
                yield f.body, shielded or not isinstance(f, Not)
        walk(visit, (phi, False))
        object.__setattr__(phi, "_symbols", (frozenset(anywhere | unshielded),
                                             frozenset(unshielded)))
    return phi._symbols


# -- evaluation ----------------------------------------------------------------
#
# Closures over one tree's per-node lists, built once per evaluation call:
# the only semantics of the logic in the program, shared by plain
# validation, the bottom-up evaluators (recursive expressions and automaton
# runs) and the search's witness re-check.

_ARR, _STR, _INT = NodeKind.ARR, NodeKind.STR, NodeKind.INT


def validate(tree: JsonTree, phi: JslFormula) -> bool:
    """Whole-document validation: satisfaction at the root."""
    from .recursive import RecursiveJslExpr, eval_recursive  # they import this module
    return eval_recursive(RecursiveJslExpr((), phi), tree)


def check_unique(tree: JsonTree, node: jt.NodeId) -> bool:
    """Array whose elements are pairwise distinct documents."""
    return compile_test(tree, UniqueTest())(tree.node_at(node))


def _children_distinct(tree: JsonTree, n: int) -> bool:
    ids = tree.subtree_ids()
    children = tree.children(n)
    return len({ids[c] for c in children}) == len(children)


def compile_test(tree: JsonTree, test: NodeTest) -> Callable[[int], bool]:
    """Closure: whether a node id passes ``test``, specialised to the test
    type."""
    kinds, vals, children, _ = tree.columns()
    if isinstance(test, KindTest):
        kind = test.kind
        return lambda n: kinds[n] is kind
    if isinstance(test, UniqueTest):
        return lambda n: kinds[n] is _ARR and _children_distinct(tree, n)
    if isinstance(test, PatternTest):
        accept = rx.word_filter(test.pattern)
        return lambda n: kinds[n] is _STR and accept(vals[n])
    if isinstance(test, MinTest):
        bound = test.bound
        return lambda n: kinds[n] is _INT and vals[n] >= bound
    if isinstance(test, MaxTest):
        bound = test.bound
        return lambda n: kinds[n] is _INT and vals[n] <= bound
    if isinstance(test, MultOfTest):
        divisor = test.divisor
        if divisor == 0:
            return lambda n: kinds[n] is _INT and vals[n] == 0
        return lambda n: kinds[n] is _INT and vals[n] % divisor == 0
    if isinstance(test, MinChTest):
        count = test.count
        return lambda n: len(children[n]) >= count
    if isinstance(test, MaxChTest):
        count = test.count
        return lambda n: len(children[n]) <= count
    if isinstance(test, SameAsTest):
        const, ids, cid = test.const, None, None

        def same(n):
            nonlocal ids, cid
            if ids is None:  # the class ids are built on first use
                ids, cid = tree.subtree_ids(), tree.const_id(const)
            return ids[n] == cid
        return same
    raise TypeError(f"not a node test: {test!r}")


def compile_modal(tree: JsonTree, label, universal: bool,
                  body: Callable[[int], bool]) -> Callable[[int], bool]:
    """Closure: some child of a node along ``label`` satisfies ``body`` (a
    closure over child ids), or with ``universal``, every such child does.

    ``label`` is a key regex, matched through a filter with its own memo
    (a single word is looked up in the sorted keys instead), or
    a 1-based index interval ``(lo, hi)`` with ``hi`` None for unbounded,
    taken as a slice of an array's children."""
    kinds, _, children, keys = tree.columns()
    word = rx.literal_word(label) if isinstance(label, rx.Regex) else None
    if word is not None:
        obj_child = tree.obj_child

        def modal(n):
            c = obj_child(n, word)
            return universal if c is None else body(c)
        return modal
    if isinstance(label, rx.Regex):
        accept = rx.word_filter(label)
        if universal:
            return lambda n: keys[n] is None or all(
                map(body, compress(children[n], map(accept, keys[n]))))
        return lambda n: keys[n] is not None and any(
            map(body, compress(children[n], map(accept, keys[n]))))
    lo, hi = label
    lo -= 1
    if universal:
        return lambda n: kinds[n] is not _ARR or all(map(body, children[n][lo:hi]))
    return lambda n: kinds[n] is _ARR and any(map(body, children[n][lo:hi]))


def compile_formula(tree: JsonTree, phi: JslFormula, tables: dict) -> Callable[[int], bool]:
    """Closure: whether ``phi`` holds at a node id, compiled once per
    distinct subformula.  A symbol reads ``tables[name]`` (indexed by node
    id, as the recursive evaluator and the JNL equalities fill it) and
    never calls its definition; other closures nest as ``_nesting`` counts,
    a chain of one connective as a balanced tree."""
    def visit(phi):
        if isinstance(phi, Top):
            return (-1).__lt__  # true at every node id, and no Python frame per call
        if isinstance(phi, Not):
            body = yield phi.body
            return lambda n: not body(n)
        if isinstance(phi, (And, Or)):
            parts = yield from each(operands(phi))
            join = _JOIN[isinstance(phi, And)]
            while len(parts) > 1:  # pairwise, left to right, so a chain nests logarithmically
                parts = [join(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                         for i in range(0, len(parts), 2)]
            return parts[0]
        if isinstance(phi, Atom):
            return compile_test(tree, phi.test)
        if isinstance(phi, (BoxKey, DiaKey)):
            return compile_modal(tree, phi.pattern, isinstance(phi, BoxKey), (yield phi.body))
        if isinstance(phi, (BoxIdx, DiaIdx)):
            return compile_modal(tree, (phi.lo, phi.hi), isinstance(phi, BoxIdx),
                                 (yield phi.body))
        if isinstance(phi, SymbolRef):
            if phi.name not in tables:
                raise MalformedFormula(f"free definition symbol {phi.name!r}")
            return tables[phi.name].__getitem__
        raise TypeError(f"not a formula: {phi!r}")
    return walk(visit, phi)


_JOIN = {True: lambda lhs, rhs: lambda n: lhs(n) and rhs(n),
         False: lambda lhs, rhs: lambda n: lhs(n) or rhs(n)}


_CONNECTIVE = (Not, And, Or)
_TEST_KIND = {UniqueTest: _ARR, PatternTest: _STR, MinTest: _INT, MaxTest: _INT, MultOfTest: _INT}


def specialize(phi: JslFormula, kind: NodeKind, consts=None):
    """``phi`` at the nodes of one kind: True, False or a formula that
    agrees with it there.  Kind tests, value tests and ``same(c)`` of
    another kind, modalities on another kind (box true, dia false) and
    ``minCh``/``maxCh`` on a leaf fold, and so does a symbol outside every
    modality that ``consts`` maps to its constant at this kind; constants
    propagate through ``!``, ``&&`` and ``||``.  Modal bodies hold at
    children of any kind and are kept, as is every part nothing folds."""
    def fold(phi):  # a part with no connective on top
        if isinstance(phi, Top):
            return True
        if isinstance(phi, (BoxKey, DiaKey, BoxIdx, DiaIdx)):
            on = NodeKind.OBJ if isinstance(phi, (BoxKey, DiaKey)) else _ARR
            return phi if kind is on else isinstance(phi, (BoxKey, BoxIdx))
        if isinstance(phi, Atom):
            test = phi.test
            if isinstance(test, KindTest):
                return test.kind is kind
            if isinstance(test, (MinChTest, MaxChTest)):  # a leaf has no children
                leaf = kind is _STR or kind is _INT
                return isinstance(test, MaxChTest) or test.count == 0 if leaf else phi
            on = test.const.kind(0) if isinstance(test, SameAsTest) else _TEST_KIND[type(test)]
            return phi if kind is on else False
        if isinstance(phi, SymbolRef):
            return consts.get(phi.name, phi) if consts else phi
        raise TypeError(f"not a formula: {phi!r}")

    def visit(phi):  # the walk goes down connectives only, folding their other operands
        if isinstance(phi, Not):
            body = (yield phi.body) if isinstance(phi.body, _CONNECTIVE) else fold(phi.body)
            if isinstance(body, bool):
                return body is False
            return phi if body is phi.body else Not(body)
        if isinstance(phi, (And, Or)):
            unit = isinstance(phi, And)  # drops out; the other constant decides
            lhs = (yield phi.lhs) if isinstance(phi.lhs, _CONNECTIVE) else fold(phi.lhs)
            if lhs is not unit and isinstance(lhs, bool):
                return lhs
            rhs = (yield phi.rhs) if isinstance(phi.rhs, _CONNECTIVE) else fold(phi.rhs)
            if lhs is unit or isinstance(rhs, bool) and rhs is not unit:
                return rhs
            if rhs is unit:
                return lhs
            return phi if lhs is phi.lhs and rhs is phi.rhs else type(phi)(lhs, rhs)
        return fold(phi)
    return walk(visit, phi)


# -- concrete syntax -------------------------------------------------------------


def _read_modal(text, pos, tok):  # (/e/), ("w"), (i), (i:j) or (i:*)
    pos = syntax.eat(text, pos, "(")
    nxt, at, _ = syntax.token(text, pos)
    if nxt == "/":
        pattern, pos = regex_literal(text, pos)
        return 0, (pattern,), syntax.eat(text, pos, ")")
    if nxt == '"':
        word, pos = jt.scan_string(text, at)
        return 0, (rx.word_regex(word),), syntax.eat(text, pos, ")")
    lo, hi, pos = syntax.interval(text, pos)
    return 1, (lo, *(hi or (lo,))), syntax.eat(text, pos, ")")


def _write_modal(tok, i, args) -> str:
    if i:
        lo, hi = args
        return f"{tok}({lo}) " if hi == lo else f"{tok}({lo}:{'*' if hi is None else hi}) "
    word = rx.literal_word(args[0])
    return f"{tok}({write_regex(args[0]) if word is None else dumps(word, ensure_ascii=False)}) "


def _read_symbol(text, pos, tok):
    return 0, (tok,), pos


def _no_symbol(text, pos, tok):
    raise MalformedFormula(f"symbol {tok!r} is only allowed inside a recursive expression")


def _write_symbol(tok, i, args) -> str:
    return args[0]


_MODAL = _read_modal, _write_modal
_NUMBER = syntax.call(syntax.number, str)
_FORMULA = {
    "||": (INFIX, Or, 0, " || "),
    "&&": (INFIX, And, 1, " && "),
    "!": (PREFIX, (Not,), None, 2),
    "box": (PREFIX, (BoxKey, BoxIdx), _MODAL, 2),
    "dia": (PREFIX, (DiaKey, DiaIdx), _MODAL, 2),
    "(": (GROUP, (), ("", None, ")")),
    "true": (CONST, TOP),
    "arr": (CONST, Atom(KindTest(NodeKind.ARR))),
    "obj": (CONST, Atom(KindTest(NodeKind.OBJ))),
    "str": (CONST, Atom(KindTest(NodeKind.STR))),
    "int": (CONST, Atom(KindTest(NodeKind.INT))),
    "unique": (CONST, Atom(UniqueTest())),
    "pattern": (ATOM, (PatternTest,), syntax.call(regex_literal, write_regex), Atom),
    "min": (ATOM, (MinTest,), _NUMBER, Atom),
    "max": (ATOM, (MaxTest,), _NUMBER, Atom),
    "multOf": (ATOM, (MultOfTest,), _NUMBER, Atom),
    "minCh": (ATOM, (MinChTest,), _NUMBER, Atom),
    "maxCh": (ATOM, (MaxChTest,), _NUMBER, Atom),
    # jt.serialize is looked up at each call, so a wrapper bound in its place is seen
    "same": (ATOM, (SameAsTest,), syntax.call(jt.parse_embedded, lambda c: jt.serialize(c)), Atom),
    # the words of recursive expressions, reserved
    "in": None,
    "let": None,
    None: (ATOM, (SymbolRef,), (_no_symbol, _write_symbol), None),
    "": (END, "formula", ""),
}
# "body": a recursive expression's, where a name is a definition symbol
SYNTAX = {"formula": _FORMULA,
          "body": {**_FORMULA, None: (ATOM, (SymbolRef,), (_read_symbol, _write_symbol), None)}}


def parse_jsl(text: str, allow_symbols: bool = False) -> JslFormula:
    try:
        phi, end = syntax.parse(SYNTAX, "body" if allow_symbols else "formula", text)
    except (MalformedRegex, DocumentError) as exc:
        raise MalformedFormula(str(exc)) from exc
    if end != len(text):
        raise MalformedFormula(f"trailing input at offset {end}")
    return phi


def to_text(phi: JslFormula) -> str:
    return syntax.to_text(SYNTAX, phi)
