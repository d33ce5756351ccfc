"""Navigational logic over JSON trees.

Unary formulas select nodes, binary formulas select node pairs.  Binary
formulas are downward navigations: key and position axes (single or
non-deterministic via regexes and intervals), composition, tests of unary
formulas, and reflexive-transitive closure.  Unary formulas add booleans
and the two subtree-equality predicates: against a constant document, and
between two reachable nodes.

Concrete syntax (whitespace-insensitive)::

    unary:   true  !phi  phi && psi  phi || psi  [alpha]
             eq(alpha, <json>)  eq(alpha, beta)  (phi)
    binary:  @"key"  @/regex/  #i  #i:j  #i:*  eps
             alpha / beta  (alpha)*  test(phi)

Array positions are 1-based on this surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import regex as rx
from . import tree as jt
from .errors import DocumentError, MalformedFormula, MalformedRegex, UnsupportedOperator
from .tree import JsonTree, NodeKind


class JnlUnary:
    __slots__ = ()

    def __repr__(self):
        return f"<jnl {unary_to_text(self)}>"


class JnlBinary:
    __slots__ = ()

    def __repr__(self):
        return f"<jnl-path {binary_to_text(self)}>"


@dataclass(frozen=True, repr=False)
class Top(JnlUnary):
    pass


@dataclass(frozen=True, repr=False)
class Not(JnlUnary):
    body: JnlUnary


@dataclass(frozen=True, repr=False)
class And(JnlUnary):
    lhs: JnlUnary
    rhs: JnlUnary


@dataclass(frozen=True, repr=False)
class Or(JnlUnary):
    lhs: JnlUnary
    rhs: JnlUnary


@dataclass(frozen=True, repr=False)
class Exists(JnlUnary):
    """[alpha]: some alpha-successor exists."""
    path: JnlBinary


@dataclass(frozen=True, repr=False)
class EqConst(JnlUnary):
    """Some alpha-successor's subtree equals a constant document."""
    path: JnlBinary
    const: JsonTree


@dataclass(frozen=True, repr=False)
class EqPaths(JnlUnary):
    """Two reachable nodes carry equal subtrees."""
    left: JnlBinary
    right: JnlBinary


@dataclass(frozen=True, repr=False)
class Test(JnlBinary):
    body: JnlUnary


@dataclass(frozen=True, repr=False)
class KeyAxis(JnlBinary):
    key: str


@dataclass(frozen=True, repr=False)
class KeyRegexAxis(JnlBinary):
    pattern: rx.Regex


@dataclass(frozen=True, repr=False)
class IdxAxis(JnlBinary):
    pos: int  # 1-based


@dataclass(frozen=True, repr=False)
class IdxRangeAxis(JnlBinary):
    lo: int            # 1-based, inclusive
    hi: Optional[int]  # inclusive; None = unbounded


@dataclass(frozen=True, repr=False)
class Compose(JnlBinary):
    lhs: JnlBinary
    rhs: JnlBinary


@dataclass(frozen=True, repr=False)
class Eps(JnlBinary):
    pass


@dataclass(frozen=True, repr=False)
class Star(JnlBinary):
    body: JnlBinary


TOP = Top()


def and_all(parts) -> JnlUnary:
    parts = list(parts)
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def or_all(parts) -> JnlUnary:
    parts = list(parts)
    if not parts:
        return Not(TOP)
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# -- fragment inspection -------------------------------------------------------


def _walk(u):
    stack = [u]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, Not):
            stack.append(f.body)
        elif isinstance(f, (And, Or)):
            stack.extend((f.lhs, f.rhs))
        elif isinstance(f, Exists):
            stack.append(f.path)
        elif isinstance(f, EqConst):
            stack.append(f.path)
        elif isinstance(f, EqPaths):
            stack.extend((f.left, f.right))
        elif isinstance(f, Test):
            stack.append(f.body)
        elif isinstance(f, Compose):
            stack.extend((f.lhs, f.rhs))
        elif isinstance(f, Star):
            stack.append(f.body)


def is_deterministic(u: JnlUnary) -> bool:
    """No regex axes, no interval axes, no closure."""
    return not any(isinstance(f, (KeyRegexAxis, IdxRangeAxis, Star)) for f in _walk(u))


def uses_eqpaths(u: JnlUnary) -> bool:
    return any(isinstance(f, EqPaths) for f in _walk(u))


def uses_star(u: JnlUnary) -> bool:
    return any(isinstance(f, Star) for f in _walk(u))


# -- parsing ------------------------------------------------------------------


def parse_jnl(text: str) -> JnlUnary:
    p = _FormulaParser(text)
    try:
        u = p.parse_unary()
    except (MalformedRegex, DocumentError) as exc:
        raise MalformedFormula(str(exc)) from exc
    p.skip_ws()
    if p.pos != len(text):
        raise MalformedFormula(f"trailing input at offset {p.pos}")
    return u


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def fail(self, msg):
        raise MalformedFormula(f"{msg} (at offset {self.pos})")

    def eat(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)

    def try_eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def try_word(self, word: str) -> bool:
        """Keyword match not swallowing a longer identifier."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos):
            nxt = self.text[end:end + 1]
            if not (nxt.isalnum() or nxt == "_"):
                self.pos = end
                return True
        return False

    def parse_number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            self.fail(f"number of {self.pos - start} digits is over the interpreter's "
                      "int-string limit")

    def parse_string(self) -> str:
        self.skip_ws()
        value, end = jt.scan_string(self.text, self.pos)
        self.pos = end
        return value

    def parse_regex_literal(self) -> rx.Regex:
        self.skip_ws()
        if self.text[self.pos:self.pos + 1] != "/":
            self.fail("expected '/'")
        self.pos += 1
        start = self.pos
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated regex literal")
            ch = self.text[self.pos]
            if ch == "\\":
                self.pos += 2
            elif ch == "/":
                body = self.text[start:self.pos]
                self.pos += 1
                return rx.parse_regex(body)
            else:
                self.pos += 1

    def parse_json(self) -> JsonTree:
        self.skip_ws()
        value, end = jt.parse_embedded(self.text, self.pos)
        self.pos = end
        return value

    # unary grammar

    def parse_unary(self) -> JnlUnary:
        lhs = self.parse_and()
        while self.try_eat("||"):
            lhs = Or(lhs, self.parse_and())
        return lhs

    def parse_and(self) -> JnlUnary:
        lhs = self.parse_not()
        while self.try_eat("&&"):
            lhs = And(lhs, self.parse_not())
        return lhs

    def parse_not(self) -> JnlUnary:
        if self.try_eat("!"):
            return Not(self.parse_not())
        return self.parse_unary_atom()

    def parse_unary_atom(self) -> JnlUnary:
        ch = self.peek()
        if ch is None:
            self.fail("unexpected end of formula")
        if self.try_word("true"):
            return TOP
        if ch == "(":
            self.pos += 1
            u = self.parse_unary()
            self.eat(")")
            return u
        if ch == "[":
            self.pos += 1
            alpha = self.parse_binary()
            self.eat("]")
            return Exists(alpha)
        if self.try_word("eq"):
            self.eat("(")
            alpha = self.parse_binary()
            self.eat(",")
            nxt = self.peek()
            if nxt in ("@", "#", "(") or self._at_word("eps") or self._at_word("test"):
                beta = self.parse_binary()
                self.eat(")")
                return EqPaths(alpha, beta)
            const = self.parse_json()
            self.eat(")")
            return EqConst(alpha, const)
        self.fail(f"unexpected {ch!r}")

    def _at_word(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        nxt = self.text[end:end + 1]
        return self.text.startswith(word, self.pos) and not (nxt.isalnum() or nxt == "_")

    # binary grammar

    def parse_binary(self) -> JnlBinary:
        lhs = self.parse_binary_postfix()
        while True:
            self.skip_ws()
            # '/' composes; regex literals only appear right after '@'
            if self.text.startswith("/", self.pos):
                self.pos += 1
                lhs = Compose(lhs, self.parse_binary_postfix())
            else:
                return lhs

    def parse_binary_postfix(self) -> JnlBinary:
        b = self.parse_binary_atom()
        while self.try_eat("*"):
            b = Star(b)
        return b

    def parse_binary_atom(self) -> JnlBinary:
        ch = self.peek()
        if ch is None:
            self.fail("unexpected end of path formula")
        if ch == "@":
            self.pos += 1
            nxt = self.text[self.pos:self.pos + 1]
            if nxt == '"':
                return KeyAxis(self.parse_string())
            if nxt == "/":
                return KeyRegexAxis(self.parse_regex_literal())
            self.fail("expected a key string or /regex/ after '@'")
        if ch == "#":
            self.pos += 1
            lo = self.parse_number()
            if lo < 1:
                self.fail("array positions are 1-based")
            if self.try_eat(":"):
                if self.try_eat("*"):
                    return IdxRangeAxis(lo, None)
                hi = self.parse_number()
                if hi < lo:
                    self.fail(f"empty position range {lo}:{hi}")
                return IdxRangeAxis(lo, hi)
            return IdxAxis(lo)
        if self.try_word("eps"):
            return Eps()
        if self.try_word("test"):
            self.eat("(")
            u = self.parse_unary()
            self.eat(")")
            return Test(u)
        if ch == "(":
            self.pos += 1
            b = self.parse_binary()
            self.eat(")")
            return b
        self.fail(f"unexpected {ch!r} in path formula")


# -- printing -----------------------------------------------------------------


def unary_to_text(u: JnlUnary) -> str:
    return _pu(u, 0)


def binary_to_text(b: JnlBinary) -> str:
    return _pb(b)


def _pu(u, prec) -> str:
    # prec: 0 or, 1 and, 2 atom
    if isinstance(u, Top):
        return "true"
    if isinstance(u, Not):
        return "!" + _pu(u.body, 2)
    if isinstance(u, And):
        text = f"{_pu(u.lhs, 1)} && {_pu(u.rhs, 1)}"
        return f"({text})" if prec > 1 else text
    if isinstance(u, Or):
        text = f"{_pu(u.lhs, 0)} || {_pu(u.rhs, 0)}"
        return f"({text})" if prec > 0 else text
    if isinstance(u, Exists):
        return f"[{_pb(u.path)}]"
    if isinstance(u, EqConst):
        return f"eq({_pb(u.path)}, {jt.serialize(u.const)})"
    if isinstance(u, EqPaths):
        return f"eq({_pb(u.left)}, {_pb(u.right)})"
    raise TypeError(f"not a unary formula: {u!r}")


def _pb(b) -> str:
    import json as _json
    if isinstance(b, Test):
        return f"test({_pu(b.body, 0)})"
    if isinstance(b, KeyAxis):
        return "@" + _json.dumps(b.key, ensure_ascii=False)
    if isinstance(b, KeyRegexAxis):
        return f"@/{rx.to_text(b.pattern)}/"
    if isinstance(b, IdxAxis):
        return f"#{b.pos}"
    if isinstance(b, IdxRangeAxis):
        return f"#{b.lo}:{'*' if b.hi is None else b.hi}"
    if isinstance(b, Compose):
        lhs = _pb(b.lhs)
        rhs = _pb(b.rhs)
        return f"{lhs} / {rhs}"
    if isinstance(b, Eps):
        return "eps"
    if isinstance(b, Star):
        return f"({_pb(b.body)})*"
    raise TypeError(f"not a path formula: {b!r}")


# -- evaluation ----------------------------------------------------------------


class _Eval:
    """Bottom-up evaluator; one instance per (tree, top-level call)."""

    def __init__(self, tree: JsonTree):
        self.tree = tree
        self.all_nodes = frozenset(range(tree.size))
        self._sat = {}
        self._pairs = {}

    def sat(self, u: JnlUnary) -> frozenset:
        hit = self._sat.get(id(u))
        if hit is not None:
            return hit
        tree = self.tree
        if isinstance(u, Top):
            out = self.all_nodes
        elif isinstance(u, Not):
            out = self.all_nodes - self.sat(u.body)
        elif isinstance(u, And):
            out = self.sat(u.lhs) & self.sat(u.rhs)
        elif isinstance(u, Or):
            out = self.sat(u.lhs) | self.sat(u.rhs)
        elif isinstance(u, Exists):
            out = frozenset(self.pre(u.path, self.all_nodes))
        elif isinstance(u, EqConst):
            cid = tree.const_id(u.const)
            targets = {n for n, c in enumerate(tree.subtree_ids()) if c == cid}
            out = frozenset(self.pre(u.path, targets))
        elif isinstance(u, EqPaths):
            out = self._eq_paths(u)
        else:
            raise TypeError(f"not a unary formula: {u!r}")
        self._sat[id(u)] = out
        return out

    def _eq_paths(self, u: EqPaths) -> frozenset:
        ids = self.tree.subtree_ids()
        ma = self.pairs(u.left)
        mb = self.pairs(u.right)
        out = set()
        for n, ts in ma.items():
            bs = mb.get(n)
            if bs and not {ids[t] for t in ts}.isdisjoint([ids[s] for s in bs]):
                out.add(n)
        return frozenset(out)

    # backward images: nodes with some alpha-successor inside `targets`

    def pre(self, b: JnlBinary, targets) -> set:
        tree = self.tree
        if isinstance(b, Eps):
            return set(targets)
        if isinstance(b, Test):
            return self.sat(b.body) & set(targets)
        if isinstance(b, KeyAxis):
            return {tree.parent(t) for t in targets
                    if t != 0 and tree.edge_key(t) == b.key}
        if isinstance(b, KeyRegexAxis):
            pat = b.pattern
            return {tree.parent(t) for t in targets
                    if t != 0 and tree.edge_key(t) is not None
                    and rx.matches(pat, tree.edge_key(t))}
        if isinstance(b, IdxAxis):
            want = b.pos - 1
            return {tree.parent(t) for t in targets
                    if t != 0 and tree.kind(tree.parent(t)) is NodeKind.ARR
                    and tree.ordinal(t) == want}
        if isinstance(b, IdxRangeAxis):
            lo = b.lo - 1
            hi = None if b.hi is None else b.hi - 1
            return {tree.parent(t) for t in targets
                    if t != 0 and tree.kind(tree.parent(t)) is NodeKind.ARR
                    and lo <= tree.ordinal(t) and (hi is None or tree.ordinal(t) <= hi)}
        if isinstance(b, Compose):
            return self.pre(b.lhs, self.pre(b.rhs, targets))
        if isinstance(b, Star):
            reached = set(targets)
            frontier = reached
            while frontier:
                frontier = self.pre(b.body, frontier) - reached
                reached |= frontier
            return reached
        raise TypeError(f"not a path formula: {b!r}")

    # forward pair maps (full materialization; EqPaths and the public API)

    def pairs(self, b: JnlBinary) -> dict:
        hit = self._pairs.get(id(b))
        if hit is not None:
            return hit
        tree = self.tree
        if isinstance(b, Eps):
            out = {n: (n,) for n in self.all_nodes}
        elif isinstance(b, Test):
            out = {n: (n,) for n in self.sat(b.body)}
        elif isinstance(b, KeyAxis):
            out = {}
            for t in self.all_nodes:
                if t != 0 and tree.edge_key(t) == b.key:
                    out[tree.parent(t)] = (t,)
        elif isinstance(b, KeyRegexAxis):
            out = {}
            for t in self.all_nodes:
                key = tree.edge_key(t) if t != 0 else None
                if key is not None and rx.matches(b.pattern, key):
                    out.setdefault(tree.parent(t), []).append(t)
            out = {n: tuple(ts) for n, ts in out.items()}
        elif isinstance(b, IdxAxis):
            want = b.pos - 1
            out = {}
            for t in self.all_nodes:
                if t != 0 and tree.kind(tree.parent(t)) is NodeKind.ARR and tree.ordinal(t) == want:
                    out[tree.parent(t)] = (t,)
        elif isinstance(b, IdxRangeAxis):
            lo = b.lo - 1
            hi = None if b.hi is None else b.hi - 1
            out = {}
            for t in self.all_nodes:
                if t != 0 and tree.kind(tree.parent(t)) is NodeKind.ARR:
                    o = tree.ordinal(t)
                    if lo <= o and (hi is None or o <= hi):
                        out.setdefault(tree.parent(t), []).append(t)
            out = {n: tuple(ts) for n, ts in out.items()}
        elif isinstance(b, Compose):
            left = self.pairs(b.lhs)
            right = self.pairs(b.rhs)
            out = {}
            for n, mids in left.items():
                acc = set()
                for m in mids:
                    acc.update(right.get(m, ()))
                if acc:
                    out[n] = tuple(sorted(acc))
        elif isinstance(b, Star):
            step = self.pairs(b.body)
            out = {}
            for n in self.all_nodes:
                seen = {n}
                frontier = [n]
                while frontier:
                    nxt = []
                    for m in frontier:
                        for t in step.get(m, ()):
                            if t not in seen:
                                seen.add(t)
                                nxt.append(t)
                    frontier = nxt
                out[n] = tuple(sorted(seen))
        else:
            raise TypeError(f"not a path formula: {b!r}")
        self._pairs[id(b)] = out
        return out


def eval_unary(tree: JsonTree, u: JnlUnary) -> frozenset:
    """All node paths satisfying the formula."""
    sat = _Eval(tree).sat(u)
    return frozenset(tree.path_of(n) for n in sat)


def eval_unary_ids(tree: JsonTree, u: JnlUnary) -> frozenset:
    """Same as eval_unary but over internal integer ids (fast interface)."""
    return _Eval(tree).sat(u)


def eval_binary(tree: JsonTree, b: JnlBinary) -> frozenset:
    """All (source path, target path) pairs the path formula selects."""
    pairs = _Eval(tree).pairs(b)
    return frozenset((tree.path_of(n), tree.path_of(t))
                     for n, ts in pairs.items() for t in ts)


def eval_membership(tree: JsonTree, u: JnlUnary, node: jt.NodeId) -> bool:
    """Whether the node satisfies the formula.

    Deterministic formulas (single-key/single-position axes, no closure)
    take a pointwise path that never materializes node sets.
    """
    n = tree.node_at(node)
    if is_deterministic(u):
        return _holds_det(tree, u, n, {})
    return n in _Eval(tree).sat(u)


def _holds_det(tree, u, n, memo) -> bool:
    key = (id(u), n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(u, Top):
        out = True
    elif isinstance(u, Not):
        out = not _holds_det(tree, u.body, n, memo)
    elif isinstance(u, And):
        out = _holds_det(tree, u.lhs, n, memo) and _holds_det(tree, u.rhs, n, memo)
    elif isinstance(u, Or):
        out = _holds_det(tree, u.lhs, n, memo) or _holds_det(tree, u.rhs, n, memo)
    elif isinstance(u, Exists):
        out = _walk_det(tree, u.path, n, memo) is not None
    elif isinstance(u, EqConst):
        t = _walk_det(tree, u.path, n, memo)
        out = t is not None and tree.subtree_id(t) == tree.const_id(u.const)
    elif isinstance(u, EqPaths):
        t1 = _walk_det(tree, u.left, n, memo)
        t2 = _walk_det(tree, u.right, n, memo)
        out = t1 is not None and t2 is not None and tree.equal_subtrees(t1, t2)
    else:
        raise TypeError(f"not a unary formula: {u!r}")
    memo[key] = out
    return out


def _walk_det(tree, b, n, memo):
    """Deterministic one-successor walk; None when navigation fails."""
    if isinstance(b, Eps):
        return n
    if isinstance(b, Test):
        return n if _holds_det(tree, b.body, n, memo) else None
    if isinstance(b, KeyAxis):
        return tree.obj_child(n, b.key) if tree.kind(n) is NodeKind.OBJ else None
    if isinstance(b, IdxAxis):
        if tree.kind(n) is NodeKind.ARR and b.pos <= tree.child_count(n):
            return tree.children(n)[b.pos - 1]
        return None
    if isinstance(b, Compose):
        mid = _walk_det(tree, b.lhs, n, memo)
        return _walk_det(tree, b.rhs, mid, memo) if mid is not None else None
    raise TypeError(f"non-deterministic construct {b!r} on the pointwise path")


# -- find-filter compilation -----------------------------------------------------


def compile_find_filter(filter_doc: JsonTree) -> JnlUnary:
    """Compile a find-style filter document to a unary formula.

    Supported dialect: ``{path: value}`` and ``{path: {"$eq": value}}``
    conditions, combined with ``$and``/``$or``/``$not``; nested plain
    objects extend the path, so a literal object match must be written
    through ``$eq``.  Dotted paths descend; digit-only segments are
    1-based array positions.
    """
    value = jt.to_python(filter_doc)
    if not isinstance(value, dict):
        raise UnsupportedOperator("a filter must be an object")
    return _compile_filter(value)


def _compile_filter(f: dict) -> JnlUnary:
    conjuncts = []
    for key, val in f.items():
        if key == "$and":
            if not isinstance(val, list):
                raise UnsupportedOperator("$and expects an array of filters")
            conjuncts.append(and_all(_compile_filter(_as_filter(x)) for x in val))
        elif key == "$or":
            if not isinstance(val, list):
                raise UnsupportedOperator("$or expects an array of filters")
            conjuncts.append(or_all(_compile_filter(_as_filter(x)) for x in val))
        elif key == "$not":
            conjuncts.append(Not(_compile_filter(_as_filter(val))))
        elif key.startswith("$"):
            raise UnsupportedOperator(f"operator {key} is not supported (only $eq/$and/$or/$not)")
        else:
            conjuncts.append(_compile_condition(_path_axis(key), val))
    return and_all(conjuncts)


def _as_filter(x):
    if not isinstance(x, dict):
        raise UnsupportedOperator("sub-filters must be objects")
    return x


def _path_axis(path: str) -> JnlBinary:
    axis = None
    for seg in path.split("."):
        if seg.isdigit():
            pos = int(seg)
            if pos < 1:
                raise UnsupportedOperator("array positions in paths are 1-based")
            step = IdxAxis(pos)
        else:
            step = KeyAxis(seg)
        axis = step if axis is None else Compose(axis, step)
    return axis


def _compile_condition(axis: JnlBinary, val) -> JnlUnary:
    if isinstance(val, dict) and val:
        dollar = [k for k in val if k.startswith("$")]
        if dollar:
            if len(val) != 1 or dollar[0] != "$eq":
                raise UnsupportedOperator(
                    f"operator {dollar[0]} is not supported in a value position (only $eq)")
            return EqConst(axis, jt.from_python(val["$eq"]))
        return and_all(_compile_condition(Compose(axis, _path_axis(k)), v)
                       for k, v in val.items())
    return EqConst(axis, jt.from_python(val))
