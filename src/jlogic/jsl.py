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
symbols and only admitted inside recursive expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional

from . import regex as rx
from . import tree as jt
from .errors import DocumentError, MalformedFormula, MalformedRegex
from .jnl import _FormulaParser
from .tree import JsonTree, NodeKind


class NodeTest:
    __slots__ = ()


@dataclass(frozen=True)
class KindTest(NodeTest):
    kind: NodeKind


@dataclass(frozen=True)
class UniqueTest(NodeTest):
    pass


@dataclass(frozen=True)
class PatternTest(NodeTest):
    pattern: rx.Regex


@dataclass(frozen=True)
class MinTest(NodeTest):
    bound: int


@dataclass(frozen=True)
class MaxTest(NodeTest):
    bound: int


@dataclass(frozen=True)
class MultOfTest(NodeTest):
    divisor: int


@dataclass(frozen=True)
class MinChTest(NodeTest):
    count: int


@dataclass(frozen=True)
class MaxChTest(NodeTest):
    count: int


@dataclass(frozen=True)
class SameAsTest(NodeTest):
    const: JsonTree


class JslFormula:
    __slots__ = ()

    def __repr__(self):
        return f"<jsl {to_text(self)}>"


@dataclass(frozen=True, repr=False)
class Top(JslFormula):
    pass


@dataclass(frozen=True, repr=False)
class Not(JslFormula):
    body: JslFormula


@dataclass(frozen=True, repr=False)
class And(JslFormula):
    lhs: JslFormula
    rhs: JslFormula


@dataclass(frozen=True, repr=False)
class Or(JslFormula):
    lhs: JslFormula
    rhs: JslFormula


@dataclass(frozen=True, repr=False)
class Atom(JslFormula):
    test: NodeTest


@dataclass(frozen=True, repr=False)
class BoxKey(JslFormula):
    pattern: rx.Regex
    body: JslFormula


@dataclass(frozen=True, repr=False)
class DiaKey(JslFormula):
    pattern: rx.Regex
    body: JslFormula


@dataclass(frozen=True, repr=False)
class BoxIdx(JslFormula):
    lo: int
    hi: Optional[int]  # None = unbounded
    body: JslFormula


@dataclass(frozen=True, repr=False)
class DiaIdx(JslFormula):
    lo: int
    hi: Optional[int]
    body: JslFormula


@dataclass(frozen=True, repr=False)
class SymbolRef(JslFormula):
    """A named definition used as an atom (recursive expressions only)."""
    name: str


TOP = Top()
BOTTOM = Not(TOP)


def and_all(parts) -> JslFormula:
    parts = list(parts)
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def or_all(parts) -> JslFormula:
    parts = list(parts)
    if not parts:
        return BOTTOM
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def subformulas(phi: JslFormula):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, Not):
            stack.append(f.body)
        elif isinstance(f, (And, Or)):
            stack.extend((f.lhs, f.rhs))
        elif isinstance(f, (BoxKey, DiaKey, BoxIdx, DiaIdx)):
            stack.append(f.body)


def symbols_used(phi: JslFormula) -> set:
    return {f.name for f in subformulas(phi) if isinstance(f, SymbolRef)}


# -- evaluation ----------------------------------------------------------------


def eval_node_test(tree: JsonTree, n: int, test: NodeTest) -> bool:
    kind = tree.kind(n)
    if isinstance(test, KindTest):
        return kind is test.kind
    if isinstance(test, UniqueTest):
        return kind is NodeKind.ARR and _children_distinct(tree, n)
    if isinstance(test, PatternTest):
        return kind is NodeKind.STR and rx.matches(test.pattern, tree.value(n))
    if isinstance(test, MinTest):
        return kind is NodeKind.INT and tree.value(n) >= test.bound
    if isinstance(test, MaxTest):
        return kind is NodeKind.INT and tree.value(n) <= test.bound
    if isinstance(test, MultOfTest):
        if kind is not NodeKind.INT:
            return False
        v = tree.value(n)
        return v == 0 if test.divisor == 0 else v % test.divisor == 0
    if isinstance(test, MinChTest):
        return tree.child_count(n) >= test.count
    if isinstance(test, MaxChTest):
        return tree.child_count(n) <= test.count
    if isinstance(test, SameAsTest):
        return tree.subtree_id(n) == tree.const_id(test.const)
    raise TypeError(f"not a node test: {test!r}")


def _children_distinct(tree: JsonTree, n: int) -> bool:
    ids = tree.subtree_ids()
    children = tree.children(n)
    return len({ids[c] for c in children}) == len(children)


def holds(tree: JsonTree, n: int, phi: JslFormula, memo=None, symtab=None) -> bool:
    """Satisfaction at internal node id ``n``.

    ``symtab`` maps definition symbols to their satisfied node sets; only
    the recursive evaluator supplies it.  Each (formula, node) pair is
    computed once per call.
    """
    if memo is None:
        memo = {}
    key = (id(phi), n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(phi, Top):
        out = True
    elif isinstance(phi, Not):
        out = not holds(tree, n, phi.body, memo, symtab)
    elif isinstance(phi, And):
        out = holds(tree, n, phi.lhs, memo, symtab) and holds(tree, n, phi.rhs, memo, symtab)
    elif isinstance(phi, Or):
        out = holds(tree, n, phi.lhs, memo, symtab) or holds(tree, n, phi.rhs, memo, symtab)
    elif isinstance(phi, Atom):
        out = eval_node_test(tree, n, phi.test)
    elif isinstance(phi, DiaKey):
        out = any(rx.matches(phi.pattern, key_) and holds(tree, c, phi.body, memo, symtab)
                  for key_, c in zip(tree.keys_of(n), tree.children(n)))
    elif isinstance(phi, BoxKey):
        out = all(not rx.matches(phi.pattern, key_) or holds(tree, c, phi.body, memo, symtab)
                  for key_, c in zip(tree.keys_of(n), tree.children(n)))
    elif isinstance(phi, DiaIdx):
        out = any(holds(tree, c, phi.body, memo, symtab)
                  for c in _idx_children(tree, n, phi.lo, phi.hi))
    elif isinstance(phi, BoxIdx):
        out = all(holds(tree, c, phi.body, memo, symtab)
                  for c in _idx_children(tree, n, phi.lo, phi.hi))
    elif isinstance(phi, SymbolRef):
        if symtab is None or phi.name not in symtab:
            raise MalformedFormula(f"free definition symbol {phi.name!r}")
        out = n in symtab[phi.name]
    else:
        raise TypeError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def _idx_children(tree, n, lo, hi):
    if tree.kind(n) is not NodeKind.ARR:
        return ()
    ch = tree.children(n)
    last = len(ch) if hi is None else min(hi, len(ch))
    return ch[lo - 1:last]


def eval_jsl(tree: JsonTree, node: jt.NodeId, phi: JslFormula) -> bool:
    """Satisfaction at a node given by path."""
    return holds(tree, tree.node_at(node), phi)


def validate(tree: JsonTree, phi: JslFormula) -> bool:
    """Whole-document validation: satisfaction at the root."""
    return holds(tree, 0, phi)


def check_unique(tree: JsonTree, node: jt.NodeId) -> bool:
    """Array whose elements are pairwise distinct documents."""
    n = tree.node_at(node)
    return tree.kind(n) is NodeKind.ARR and _children_distinct(tree, n)


# -- compiled form -------------------------------------------------------------
#
# Closures over one tree's per-node lists, built once per evaluation call
# and shared by the bottom-up evaluators (recursive expressions and
# automaton runs).  ``eval_node_test`` and ``holds`` stay the reference.

_ARR, _STR, _INT = NodeKind.ARR, NodeKind.STR, NodeKind.INT


def compile_test(tree: JsonTree, test: NodeTest) -> Callable[[int], bool]:
    """``eval_node_test(tree, ·, test)`` as a closure specialised to the
    test type."""
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
    """``holds(tree, ·, phi)`` as a closure.  A symbol reads ``tables[name]``
    (indexed by node id, as filled by the recursive evaluator, or a closure
    over node ids) and never calls its definition, so evaluation recurses
    only as deep as ``phi``."""
    if isinstance(phi, Top):
        return (-1).__lt__  # true at every node id, and no Python frame per call
    if isinstance(phi, Not):
        body = compile_formula(tree, phi.body, tables)
        return lambda n: not body(n)
    if isinstance(phi, And):
        lhs = compile_formula(tree, phi.lhs, tables)
        rhs = compile_formula(tree, phi.rhs, tables)
        return lambda n: lhs(n) and rhs(n)
    if isinstance(phi, Or):
        lhs = compile_formula(tree, phi.lhs, tables)
        rhs = compile_formula(tree, phi.rhs, tables)
        return lambda n: lhs(n) or rhs(n)
    if isinstance(phi, Atom):
        return compile_test(tree, phi.test)
    if isinstance(phi, (BoxKey, DiaKey)):
        return compile_modal(tree, phi.pattern, isinstance(phi, BoxKey),
                             compile_formula(tree, phi.body, tables))
    if isinstance(phi, (BoxIdx, DiaIdx)):
        return compile_modal(tree, (phi.lo, phi.hi), isinstance(phi, BoxIdx),
                             compile_formula(tree, phi.body, tables))
    if isinstance(phi, SymbolRef):
        if phi.name not in tables:
            raise MalformedFormula(f"free definition symbol {phi.name!r}")
        table = tables[phi.name]
        return table if callable(table) else table.__getitem__
    raise TypeError(f"not a formula: {phi!r}")


_TEST_KIND = {UniqueTest: _ARR, PatternTest: _STR, MinTest: _INT, MaxTest: _INT, MultOfTest: _INT}


def specialize(phi: JslFormula, kind: NodeKind, consts=None):
    """``phi`` at the nodes of one kind: True, False or a formula that
    agrees with it there.  Kind tests, value tests and ``same(c)`` of
    another kind, modalities on another kind (box true, dia false) and
    ``minCh``/``maxCh`` on a leaf fold, and so does a symbol outside every
    modality that ``consts`` maps to its constant at this kind; constants
    propagate through ``!``, ``&&`` and ``||``.  Modal bodies hold at
    children of any kind and are kept, as is every part nothing folds."""
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Not):
        body = specialize(phi.body, kind, consts)
        if isinstance(body, bool):
            return body is False
        return phi if body is phi.body else Not(body)
    if isinstance(phi, (And, Or)):
        unit = isinstance(phi, And)  # drops out; the other constant decides
        lhs = specialize(phi.lhs, kind, consts)
        if lhs is not unit and isinstance(lhs, bool):
            return lhs
        rhs = specialize(phi.rhs, kind, consts)
        if lhs is unit or isinstance(rhs, bool) and rhs is not unit:
            return rhs
        if rhs is unit:
            return lhs
        return phi if lhs is phi.lhs and rhs is phi.rhs else type(phi)(lhs, rhs)
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


# -- parsing ------------------------------------------------------------------


_KEYWORDS = {"true", "arr", "obj", "str", "int", "unique", "pattern", "min", "max",
             "multOf", "minCh", "maxCh", "same", "box", "dia", "in", "let"}


def parse_jsl(text: str, allow_symbols: bool = False) -> JslFormula:
    p = _JslParser(text)
    p.allow_symbols = allow_symbols
    try:
        phi = p.parse_formula()
    except (MalformedRegex, DocumentError) as exc:
        raise MalformedFormula(str(exc)) from exc
    p.skip_ws()
    if p.pos != len(text):
        raise MalformedFormula(f"trailing input at offset {p.pos}")
    return phi


class _JslParser(_FormulaParser):
    allow_symbols = False

    def parse_formula(self) -> JslFormula:
        lhs = self.parse_and_f()
        while self.try_eat("||"):
            lhs = Or(lhs, self.parse_and_f())
        return lhs

    def parse_and_f(self) -> JslFormula:
        lhs = self.parse_prefix()
        while self.try_eat("&&"):
            lhs = And(lhs, self.parse_prefix())
        return lhs

    def parse_prefix(self) -> JslFormula:
        if self.try_eat("!"):
            return Not(self.parse_prefix())
        if self.try_word("box"):
            return self.parse_modal(BoxKey, BoxIdx)
        if self.try_word("dia"):
            return self.parse_modal(DiaKey, DiaIdx)
        return self.parse_atom_f()

    def parse_modal(self, key_ctor, idx_ctor) -> JslFormula:
        self.eat("(")
        ch = self.peek()
        if ch == "/":
            pattern = self.parse_regex_literal()
            self.eat(")")
            return key_ctor(pattern, self.parse_prefix())
        if ch == '"':
            word = self.parse_string()
            self.eat(")")
            return key_ctor(rx.word_regex(word), self.parse_prefix())
        lo = self.parse_number()
        if lo < 1:
            self.fail("array positions are 1-based")
        hi = lo
        if self.try_eat(":"):
            if self.try_eat("*"):
                hi = None
            else:
                hi = self.parse_number()
                if hi < lo:
                    self.fail(f"empty position range {lo}:{hi}")
        self.eat(")")
        return idx_ctor(lo, hi, self.parse_prefix())

    def parse_atom_f(self) -> JslFormula:
        ch = self.peek()
        if ch is None:
            self.fail("unexpected end of formula")
        if ch == "(":
            self.pos += 1
            phi = self.parse_formula()
            self.eat(")")
            return phi
        if self.try_word("true"):
            return TOP
        if self.try_word("arr"):
            return Atom(KindTest(NodeKind.ARR))
        if self.try_word("obj"):
            return Atom(KindTest(NodeKind.OBJ))
        if self.try_word("str"):
            return Atom(KindTest(NodeKind.STR))
        if self.try_word("int"):
            return Atom(KindTest(NodeKind.INT))
        if self.try_word("unique"):
            return Atom(UniqueTest())
        if self.try_word("pattern"):
            self.eat("(")
            pattern = self.parse_regex_literal()
            self.eat(")")
            return Atom(PatternTest(pattern))
        if self.try_word("multOf"):
            return Atom(MultOfTest(self._nat_arg()))
        if self.try_word("minCh"):
            return Atom(MinChTest(self._nat_arg()))
        if self.try_word("maxCh"):
            return Atom(MaxChTest(self._nat_arg()))
        if self.try_word("min"):
            return Atom(MinTest(self._nat_arg()))
        if self.try_word("max"):
            return Atom(MaxTest(self._nat_arg()))
        if self.try_word("same"):
            self.eat("(")
            const = self.parse_json()
            self.eat(")")
            return Atom(SameAsTest(const))
        ident = self._try_identifier()
        if ident is not None:
            if not self.allow_symbols:
                raise MalformedFormula(
                    f"symbol {ident!r} is only allowed inside a recursive expression")
            return SymbolRef(ident)
        self.fail(f"unexpected {ch!r}")

    def _nat_arg(self) -> int:
        self.eat("(")
        n = self.parse_number()
        self.eat(")")
        return n

    def _try_identifier(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (self.text[self.pos].isalpha() or self.text[self.pos] == "_"):
            end = self.pos + 1
            while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
                end += 1
            word = self.text[start:end]
            if word not in _KEYWORDS:
                self.pos = end
                return word
        return None


# -- printing -----------------------------------------------------------------


def to_text(phi: JslFormula) -> str:
    return _pf(phi, 0)


def _modal_arg(phi) -> str:
    if isinstance(phi, (BoxKey, DiaKey)):
        word = rx.literal_word(phi.pattern)
        if word is not None:
            import json as _json
            return _json.dumps(word, ensure_ascii=False)
        return f"/{rx.to_text(phi.pattern)}/"
    if phi.hi == phi.lo:
        return str(phi.lo)
    return f"{phi.lo}:{'*' if phi.hi is None else phi.hi}"


def _pf(phi, prec) -> str:
    # prec: 0 or, 1 and, 2 prefix operand
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Not):
        return "!" + _pf(phi.body, 2)
    if isinstance(phi, And):
        text = f"{_pf(phi.lhs, 1)} && {_pf(phi.rhs, 1)}"
        return f"({text})" if prec > 1 else text
    if isinstance(phi, Or):
        text = f"{_pf(phi.lhs, 0)} || {_pf(phi.rhs, 0)}"
        return f"({text})" if prec > 0 else text
    if isinstance(phi, (BoxKey, BoxIdx)):
        return f"box({_modal_arg(phi)}) {_pf(phi.body, 2)}"
    if isinstance(phi, (DiaKey, DiaIdx)):
        return f"dia({_modal_arg(phi)}) {_pf(phi.body, 2)}"
    if isinstance(phi, SymbolRef):
        return phi.name
    if isinstance(phi, Atom):
        t = phi.test
        if isinstance(t, KindTest):
            return t.kind.value
        if isinstance(t, UniqueTest):
            return "unique"
        if isinstance(t, PatternTest):
            return f"pattern(/{rx.to_text(t.pattern)}/)"
        if isinstance(t, MinTest):
            return f"min({t.bound})"
        if isinstance(t, MaxTest):
            return f"max({t.bound})"
        if isinstance(t, MultOfTest):
            return f"multOf({t.divisor})"
        if isinstance(t, MinChTest):
            return f"minCh({t.count})"
        if isinstance(t, MaxChTest):
            return f"maxCh({t.count})"
        if isinstance(t, SameAsTest):
            return f"same({jt.serialize(t.const)})"
    raise TypeError(f"not a formula: {phi!r}")
