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

Array positions are 1-based on this surface.  Formulas are interned
(``_node``): equal formulas are one object, compared in O(1).

Evaluation compiles a unary formula once per call into closures over the
tree's columns and runs them bottom-up in reverse pre-order: ids are
pre-order and paths only move down, so a node's successors are settled
before it.  All but eq(alpha, beta) is translated into the recursive schema
logic, a closure ``alpha*`` followed by K becoming the shielded definition
``g = K || <alpha> g`` (``translate._jnl_to_recursive``), and run by
``jsl.compile_formula`` and ``recursive._sat_tables``.  Every path runs on
one evaluator, ``_reach``, which fills its closures' tables node by node;
an eq(alpha, beta) is a table filled innermost first from the subtree
classes its two paths reach, so nested equalities never call each other.
Membership evaluates only the node's subtree.  Only ``eval_binary``
materializes a path's relation: up to n² pairs under a closure.
"""

from __future__ import annotations

import re
import sys
from functools import reduce
from itertools import chain, compress, repeat
from json import dumps
from operator import is_
from typing import Optional

from . import regex as rx
from ._node import Node, each, walk
from . import syntax
from . import tree as jt
from .errors import DocumentError, MalformedFormula, MalformedRegex, UnsupportedOperator
from .syntax import ATOM, CONST, END, GROUP, INFIX, POSTFIX, PREFIX
from .syntax import operands  # noqa: F401  (translate and schema take it from here)
from .tree import JsonTree, NodeKind


class JnlUnary(Node):
    __slots__ = ()

    def __repr__(self):
        return f"<jnl {unary_to_text(self)}>"


class JnlBinary(Node):
    __slots__ = ()

    def __repr__(self):
        return f"<jnl-path {binary_to_text(self)}>"


class Top(JnlUnary):
    __slots__ = ()


class Not(JnlUnary):
    __slots__ = ("body",)


class And(JnlUnary):
    __slots__ = ("lhs", "rhs")


class Or(JnlUnary):
    __slots__ = ("lhs", "rhs")


class Exists(JnlUnary):
    """[alpha]: some alpha-successor exists."""
    __slots__ = ("path",)


class EqConst(JnlUnary):
    """Some alpha-successor's subtree equals a constant document."""
    __slots__ = ("path", "const")


class EqPaths(JnlUnary):
    """Two reachable nodes carry equal subtrees."""
    __slots__ = ("left", "right")


class Test(JnlBinary):
    __slots__ = ("body",)


class KeyAxis(JnlBinary):
    __slots__ = ("key",)


class KeyRegexAxis(JnlBinary):
    __slots__ = ("pattern",)


class IdxAxis(JnlBinary):
    # pos: 1-based
    __slots__ = ("pos",)


class IdxRangeAxis(JnlBinary):
    # lo: 1-based, inclusive
    # hi: inclusive; None = unbounded
    __slots__ = ("lo", "hi")


class Compose(JnlBinary):
    __slots__ = ("lhs", "rhs")


class Eps(JnlBinary):
    __slots__ = ()


class Star(JnlBinary):
    __slots__ = ("body",)


TOP = Top()


def and_all(parts) -> JnlUnary:
    parts = list(parts)
    return reduce(And, parts) if parts else TOP


def or_all(parts) -> JnlUnary:
    parts = list(parts)
    return reduce(Or, parts) if parts else Not(TOP)


# -- fragment inspection -------------------------------------------------------


def _walk(u) -> list:
    """Each distinct subformula of ``u`` once, after those it holds."""
    out = []

    def visit(f):
        if isinstance(f, (Not, Test, Star)):
            yield f.body
        elif isinstance(f, (And, Or, Compose)):
            yield f.lhs
            yield f.rhs
        elif isinstance(f, (Exists, EqConst)):
            yield f.path
        elif isinstance(f, EqPaths):
            yield f.left
            yield f.right
        out.append(f)
    walk(visit, u)
    return out


# -- concrete syntax -------------------------------------------------------------


def regex_literal(text: str, pos: int):
    """``/e/`` after blanks: the expression, read by ``rx.parse_regex``, and
    its end.  A backslash escapes the character after it."""
    _, at, pos = syntax.token(text, pos)
    if text[at:pos] != "/":
        raise syntax.fail("expected '/'", at)
    end = _SLASHED.match(text, pos).end()
    if end == len(text) or text[end] != "/":  # past the end, or at a last lone backslash
        raise syntax.fail("unterminated regex literal", len(text) + (end < len(text)))
    return rx.parse_regex(text[pos:end]), end + 1


def write_regex(r) -> str:
    return f"/{rx.to_text(r)}/"


def _read_key(text, pos, tok):  # @"key" or @/regex/
    if text[pos:pos + 1] == '"':
        key, pos = jt.scan_string(text, pos)
        return 0, (key,), pos
    if text[pos:pos + 1] == "/":
        pattern, pos = regex_literal(text, pos)
        return 1, (pattern,), pos
    raise syntax.fail("expected a key string or /regex/ after '@'", pos)


def _read_document(text, pos, tok):  # a JSON document, as in eq(alpha, <json>)
    value, pos = jt.parse_embedded(text, pos)
    return 0, (value,), pos


def _read_index(text, pos, tok):  # #i, #i:j or #i:*
    lo, hi, pos = syntax.interval(text, pos)
    return len(hi), (lo, *hi), pos


def _write_index(tok, i, args) -> str:
    return f"{tok}{args[0]}" if i == 0 else f"{tok}{args[0]}:{'*' if args[1] is None else args[1]}"


_KEY = _read_key, lambda tok, i, args: tok + (
    dumps(args[0], ensure_ascii=False) if i == 0 else write_regex(args[0]))
_INDEX = _read_index, _write_index
_DOCUMENT = _read_document, lambda tok, i, args: jt.serialize(args[0])
_SLASHED = re.compile(r"(?:[^\\/]|\\.)*", re.S)

SYNTAX = {
    "unary": {
        "||": (INFIX, Or, 0, " || "),
        "&&": (INFIX, And, 1, " && "),
        "!": (PREFIX, (Not,), None, 2),
        "true": (CONST, TOP),
        "(": (GROUP, (), ("", None, ")")),
        "[": (GROUP, (Exists,), ("", "path", "]")),
        "eq": (GROUP, (EqPaths, EqConst), ("(", "path", ", ", ("path", _DOCUMENT), ")")),
        "": (END, "formula", ""),
    },
    "path": {
        "/": (INFIX, Compose, 0, " / "),
        "*": (POSTFIX, Star, 3, Star),  # 3: the operand prints in parentheses
        "@": (ATOM, (KeyAxis, KeyRegexAxis), _KEY, None),
        "#": (ATOM, (IdxAxis, IdxRangeAxis), _INDEX, None),
        "eps": (CONST, Eps()),
        "test": (GROUP, (Test,), ("(", "unary", ")")),
        "(": (GROUP, (), ("", None, ")")),
        "": (END, "path formula", " in path formula"),
    },
}


def parse_jnl(text: str) -> JnlUnary:
    try:
        u, end = syntax.parse(SYNTAX, "unary", text)
    except (MalformedRegex, DocumentError) as exc:
        raise MalformedFormula(str(exc)) from exc
    if end != len(text):
        raise MalformedFormula(f"trailing input at offset {end}")
    return u


def unary_to_text(u: JnlUnary) -> str:
    return syntax.to_text(SYNTAX, u)


def binary_to_text(b: JnlBinary) -> str:
    return syntax.to_text(SYNTAX, b)


# -- evaluation ----------------------------------------------------------------

_EMPTY = frozenset()


def _stays(b: JnlBinary):
    """Walker: where the path formula relates a node to itself, a unary
    formula (TOP for everywhere) or None for nowhere."""
    if isinstance(b, (Eps, Star)):
        return TOP
    if isinstance(b, Test):
        return b.body
    if isinstance(b, Compose):
        lhs = yield b.lhs
        rhs = None if lhs is None else (yield b.rhs)
        if rhs is None:
            return None
        return rhs if lhs is TOP else lhs if rhs is TOP else And(lhs, rhs)
    return None


def strict_paths(b: JnlBinary) -> list:
    """Path formulas that each start with a move, whose union relates a
    node to its b-successors strictly below it; empty when b never moves."""
    stay_memo = {}

    def visit(b):
        if isinstance(b, (Eps, Test)):
            return []
        if isinstance(b, Star):
            return [Compose(p, b) for p in (yield b.body)]
        if not isinstance(b, Compose):
            return [b]
        out = [Compose(p, b.rhs) for p in (yield b.lhs)]
        stay = walk(_stays, b.lhs, stay_memo)
        if stay is not None:
            out += [p if stay is TOP else Compose(Test(stay), p) for p in (yield b.rhs)]
        return out
    return walk(visit, b)


def eval_unary(tree: JsonTree, u: JnlUnary) -> frozenset:
    """All node paths satisfying the formula."""
    return frozenset(tree.paths_of(sorted(eval_unary_ids(tree, u))))


def eval_unary_ids(tree: JsonTree, u: JnlUnary) -> frozenset:
    """Same as eval_unary but over internal integer ids (fast interface).
    The formula is specialized per node kind: false kinds are skipped, and
    each other form is taken whole (true) or run at its kinds' nodes."""
    kinds, ids = tree.columns()[0], range(tree.size)
    by_kind = _compile(tree, u, ids[::-1], by_kind=True)
    out = []
    for holds in set(by_kind.values()) - {False}:
        group = [kind for kind, h in by_kind.items() if h is holds]
        of = ids if len(group) == len(by_kind) else chain.from_iterable(
            compress(ids, map(is_, kinds, repeat(kind))) for kind in group)
        out.append(of if holds is True else filter(holds, of))
    return frozenset(chain.from_iterable(out))


def eval_membership(tree: JsonTree, u: JnlUnary, node: jt.NodeId) -> bool:
    """Whether the node satisfies the formula.  Only the node's subtree is
    evaluated: tables over it, and the formula's closures at the node."""
    n = tree.node_at(node)
    children = tree.columns()[2]
    last = n  # pre-order: the subtree is the ids from n to its last leaf
    while children[last]:
        last = children[last][-1]
    return bool(_compile(tree, u, range(last, n - 1, -1))(n))


def _compile(tree: JsonTree, u: JnlUnary, nodes: range, by_kind=False, eqs=None):
    """``u`` as a closure over node ids, exact on ``nodes`` (decreasing ids,
    closed under descendants).  The tables it reads are filled first: those
    of its eq(alpha, beta) (``eqs``, shared with the calls for their tests)
    innermost first.  With ``by_kind``, a dict from each node kind to ``u``
    there, specialized as the fill specializes a definition: True, False
    or a closure, one per distinct specialized form."""
    from . import jsl, recursive, translate  # they import this module
    if eqs is None:
        eqs = _eq_tables(tree, u, nodes)
    tables, consts = {}, {}

    def eq_symbol(f):  # the translation's memo asks once per distinct eq(alpha, beta)
        name = f"={len(tables)}"
        tables[name] = eqs[f]
        return name

    expr = recursive.cut(translate._jnl_to_recursive(u, eq_symbol))
    if expr.definitions:
        recursive._sat_tables(expr, tree, tables, nodes, consts)
    if not by_kind:
        return jsl.compile_formula(tree, expr.base, tables)
    forms = {kind: jsl.specialize(expr.base, kind, consts.get(kind)) for kind in NodeKind}
    compiled = {f: jsl.compile_formula(tree, f, tables)  # one per distinct form
                for f in forms.values() if not isinstance(f, bool)}
    return {kind: compiled.get(f, f) for kind, f in forms.items()}


def _eq_tables(tree: JsonTree, f, nodes: range) -> dict:
    """The table of every eq(alpha, beta) in ``f``, innermost first, so
    that one's tests read the tables of those nested in it."""
    eqs = {}
    for g in _walk(f):
        if isinstance(g, EqPaths):
            eqs[g] = _eq_paths(tree, g, nodes, eqs)
    return eqs


def _eq_paths(tree: JsonTree, f: EqPaths, nodes: range, eqs: dict) -> bytearray:
    """eq(alpha, beta) as a table filled on ``nodes``, at each node after
    the steps of its paths' closures."""
    # A subtree strictly below n never equals n's: so either both paths
    # stay at n, or their strict successors share a class.
    stay = walk(_stays, f.left), walk(_stays, f.right)
    both = None if None in stay else _compile(tree, And(*stay), nodes, eqs=eqs)
    cont = lambda n: frozenset((tree.subtree_id(n),))  # labels the tree on first use
    steps, table, memo = [], bytearray(tree.size), {}
    left, right = (_union([walk(_reach(tree, steps, nodes, eqs), (p, cont), memo)
                           for p in strict_paths(b)]) for b in (f.left, f.right))
    children = tree.columns()[2]
    for n in nodes:
        for step in steps:
            step(n)
        if both is not None and both(n):
            table[n] = 1
        elif left and right and children[n]:
            reached = left(n)
            table[n] = bool(reached) and not reached.isdisjoint(right(n))
    return table


def _union(parts: list):
    """One closure for the union of the closures' sets, None for none."""
    if len(parts) < 2:
        return parts[0] if parts else None
    return lambda n: _EMPTY.union(*(part(n) for part in parts))


def _axis(tree: JsonTree, b: JnlBinary, cont):
    """An axis followed by ``cont`` as a closure: the union of ``cont``
    over the matching children of a node."""
    kinds, _, children, keys = tree.columns()
    if isinstance(b, KeyAxis):  # at most one child: no union
        key, child = b.key, tree.obj_child
        return lambda n: _EMPTY if (c := child(n, key)) is None else cont(c)
    if isinstance(b, KeyRegexAxis):
        accept = rx.word_filter(b.pattern)
        succ = lambda n: [c for k, c in zip(keys[n], children[n]) if accept(k)] if keys[n] else ()
    elif isinstance(b, (IdxAxis, IdxRangeAxis)):
        lo, hi = (b.pos, b.pos) if isinstance(b, IdxAxis) else (b.lo, b.hi)
        succ = lambda n: children[n][lo - 1:hi] if kinds[n] is NodeKind.ARR else ()
    else:
        raise TypeError(f"not a path formula: {b!r}")
    return lambda n: _EMPTY.union(*map(cont, succ(n)))


def _reach(tree, steps: list, nodes: range, eqs: dict):
    """Walker: ``(b, cont)`` to a closure, the union of ``cont`` (node ->
    frozenset) over a node's b-successors.  A closure's table is filled by
    a step in ``steps``, run at each node in list order: after the steps of
    ``cont`` and before those of its parts, which read it at the same node.
    A shared memo gives it one table per continuation."""
    def visit(item):
        b, cont = item
        if isinstance(b, Eps):
            return cont
        if isinstance(b, Test):
            test = _compile(tree, b.body, nodes, eqs=eqs)
            return lambda n: cont(n) if test(n) else _EMPTY
        if isinstance(b, Compose):
            return (yield b.lhs, (yield b.rhs, cont))
        if isinstance(b, Star):
            table = [_EMPTY] * tree.size
            out = table.__getitem__
            at = len(steps)
            parts = yield from each((p, out) for p in strict_paths(b.body))
            if not parts:
                return cont

            def step(n):
                table[n] = cont(n).union(*(part(n) for part in parts))
            steps.insert(at, step)
            return out
        return _axis(tree, b, cont)
    return visit


def eval_binary(tree: JsonTree, b: JnlBinary) -> frozenset:
    """All (source path, target path) pairs the path formula selects: the
    successor sets of ``_reach``, up to n² pairs under a closure."""
    nodes, steps, pairs = range(tree.size - 1, -1, -1), [], {}
    succ = walk(_reach(tree, steps, nodes, _eq_tables(tree, b, nodes)), (b, lambda n: frozenset((n,))))
    for n in nodes:
        for step in steps:
            step(n)
        if ts := succ(n):
            pairs[n] = ts
    ids = sorted(set(pairs).union(*pairs.values()))
    path = dict(zip(ids, tree.paths_of(ids)))
    return frozenset((path[n], path[t]) for n, ts in pairs.items() for t in ts)


# -- find-filter compilation -----------------------------------------------------


def compile_find_filter(filter_doc: JsonTree) -> JnlUnary:
    """Compile a find-style filter document to a unary formula.

    Supported dialect: ``{path: value}`` and ``{path: {"$eq": value}}``
    conditions, combined with ``$and``/``$or``/``$not``; nested plain
    objects extend the path, so a literal object match must be written
    through ``$eq``.  Dotted paths descend; segments of ASCII digits only
    are 1-based array positions.
    """
    value = jt.to_python(filter_doc)
    if not isinstance(value, dict):
        raise UnsupportedOperator("a filter must be an object")
    return _compile_filter(value)


def _compile_filter(f: dict) -> JnlUnary:
    """A walk over ``(None, filter)`` and ``(axis, value)``, a condition."""
    def visit(item):
        axis, val = item
        if axis is not None:
            if not isinstance(val, dict) or not val:
                return EqConst(axis, jt.from_python(val))
            dollar = [k for k in val if k.startswith("$")]
            if dollar:
                if len(val) != 1 or dollar[0] != "$eq":
                    raise UnsupportedOperator(
                        f"operator {dollar[0]} is not supported in a value position (only $eq)")
                return EqConst(axis, jt.from_python(val["$eq"]))
            return and_all((yield from each((Compose(axis, _path_axis(k)), v)
                                            for k, v in val.items())))
        conjuncts = []
        for key, val in val.items():
            if key in ("$and", "$or"):
                if not isinstance(val, list):
                    raise UnsupportedOperator(f"{key} expects an array of filters")
                parts = yield from each((None, _as_filter(x)) for x in val)
                conjuncts.append((and_all if key == "$and" else or_all)(parts))
            elif key == "$not":
                conjuncts.append(Not((yield None, _as_filter(val))))
            elif key.startswith("$"):
                raise UnsupportedOperator(
                    f"operator {key} is not supported (only $eq/$and/$or/$not)")
            else:
                conjuncts.append((yield _path_axis(key), val))
        return and_all(conjuncts)
    return walk(visit, (None, f), memo=False)


def _as_filter(x):
    if not isinstance(x, dict):
        raise UnsupportedOperator("sub-filters must be objects")
    return x


def _path_axis(path: str) -> JnlBinary:
    axis = None
    for seg in path.split("."):
        if seg.isascii() and seg.isdigit():
            pos = _position(seg)
            if pos < 1:
                raise UnsupportedOperator("array positions in paths are 1-based")
            step = IdxAxis(pos)
        else:
            step = KeyAxis(seg)
        axis = step if axis is None else Compose(axis, step)
    return axis


def _position(seg: str) -> int:
    try:
        return int(seg)
    except ValueError:
        raise UnsupportedOperator(
            f"array position of {len(seg)} digits is over the interpreter's int-string "
            f"limit of {sys.get_int_max_str_digits()} digits") from None

