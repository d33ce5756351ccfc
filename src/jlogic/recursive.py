"""Recursive schema-logic expressions.

An expression is a list of named definitions plus a base formula; bodies
and the base may use the defined names as atoms.  Well-formedness demands
an acyclic precedence graph, whose edges connect a definition to every
name appearing in its body outside the scope of any modal operator.

Two semantics are provided and kept equivalent: ``unfold`` rewrites the
base until every remaining name sits under more modalities than the
tree's height (then turns into falsity), and ``eval_recursive`` fills a
table of satisfied nodes per definition in reverse pre-order id, each body
folded per node kind (``jsl.specialize``) and compiled once per kind: a
node runs only its kind's closures, in dependency order.  A symbol
reads its table and never calls its body, so evaluation recurses as deep
as the formula, never as deep as the document.  The second is the
production path; the first is the reference the tests compare against.

Concrete syntax: ``let g1 = <jsl>; let g2 = <jsl>; in <jsl>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import jsl
from .errors import IllFormedRecursion, MalformedFormula, UnfoldSizeExceeded
from .jsl import BOTTOM, BoxIdx, BoxKey, DiaIdx, DiaKey, JslFormula, SymbolRef
from .tree import JsonTree, NodeKind

DEFAULT_UNFOLD_CAP = 500_000


@dataclass(frozen=True)
class RecursiveJslExpr:
    definitions: tuple  # tuple[(name, JslFormula), ...]
    base: JslFormula

    def __repr__(self):
        return f"<rjsl {to_text(self)[:80]}>"


@dataclass(frozen=True)
class PrecedenceGraph:
    symbols: tuple
    edges: frozenset  # (definer, used-symbol) pairs outside modal scope


def make_recursive(definitions, base: JslFormula) -> RecursiveJslExpr:
    """Build an expression, checking that every used symbol is defined once."""
    defs = tuple((name, body) for name, body in definitions)
    names = [name for name, _ in defs]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise MalformedFormula(f"symbol {dup!r} is defined more than once")
    defined = set(names)
    used = jsl.symbols_used(base)
    for _, body in defs:
        used |= jsl.symbols_used(body)
    free = used - defined
    if free:
        raise MalformedFormula(f"undefined symbols: {sorted(free)}")
    return RecursiveJslExpr(defs, base)


def parse_recursive(text: str) -> RecursiveJslExpr:
    """Parse ``let g = <jsl>; ... in <jsl>`` (a bare formula is also fine)."""
    p = jsl._JslParser(text)
    p.allow_symbols = True
    definitions = []
    while p.try_word("let"):
        name = p._try_identifier()
        if name is None:
            p.fail("expected a definition name after 'let'")
        p.eat("=")
        definitions.append((name, p.parse_formula()))
        p.eat(";")
    if definitions:
        if not p.try_word("in"):
            p.fail("expected 'in' before the base expression")
    else:
        p.try_word("in")
    base = p.parse_formula()
    p.skip_ws()
    if p.pos != len(text):
        raise MalformedFormula(f"trailing input at offset {p.pos}")
    return make_recursive(definitions, base)


def to_text(expr: RecursiveJslExpr) -> str:
    parts = [f"let {name} = {jsl.to_text(body)};" for name, body in expr.definitions]
    parts.append(f"in {jsl.to_text(expr.base)}")
    return " ".join(parts)


# -- precedence graph and well-formedness ---------------------------------------


def _unshielded_symbols(phi: JslFormula) -> set:
    """Names occurring outside the scope of every modal operator."""
    out = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, SymbolRef):
            out.add(f.name)
        elif isinstance(f, jsl.Not):
            stack.append(f.body)
        elif isinstance(f, (jsl.And, jsl.Or)):
            stack.extend((f.lhs, f.rhs))
        # modal bodies shield their symbols; atoms carry none
    return out


def precedence_graph(expr: RecursiveJslExpr) -> PrecedenceGraph:
    symbols = tuple(name for name, _ in expr.definitions)
    defined = set(symbols)
    edges = set()
    for name, body in expr.definitions:
        for used in _unshielded_symbols(body):
            if used in defined:
                edges.add((name, used))
    return PrecedenceGraph(symbols, frozenset(edges))


def _successors(expr: RecursiveJslExpr) -> dict:
    """Each definition's precedence-graph successors, sorted, in one pass
    over the edges."""
    graph = precedence_graph(expr)
    succ = {s: [] for s in graph.symbols}
    for s, t in sorted(graph.edges):
        succ[s].append(t)
    return succ


def find_cycle(expr: RecursiveJslExpr) -> Optional[list]:
    """A cyclic symbol sequence in the precedence graph, or None.  The
    depth-first search keeps its own stack, so long chains of definitions
    need no recursion."""
    succ = _successors(expr)
    color = dict.fromkeys(succ, 0)  # 0 new, 1 on the trail, 2 done
    for root in succ:
        if color[root]:
            continue
        color[root] = 1
        trail, stack = [root], [iter(succ[root])]
        while stack:
            for t in stack[-1]:
                if color[t] == 1:
                    return trail[trail.index(t):] + [t]
                if color[t] == 0:
                    color[t] = 1
                    trail.append(t)
                    stack.append(iter(succ[t]))
                    break
            else:
                stack.pop()
                color[trail.pop()] = 2
    return None


def is_well_formed(expr: RecursiveJslExpr) -> bool:
    return find_cycle(expr) is None


def _topo_order(expr: RecursiveJslExpr) -> list:
    """Definition names with every dependency before its user (depth-first
    post-order, with its own stack)."""
    succ = _successors(expr)
    out, done = [], set()
    for root in succ:
        if root in done:
            continue
        done.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            s, it = stack[-1]
            for t in it:
                if t not in done:
                    done.add(t)
                    stack.append((t, iter(succ[t])))
                    break
            else:
                stack.pop()
                out.append(s)
    return out


# -- unfold semantics -------------------------------------------------------------


def unfold(expr: RecursiveJslExpr, h: int, size_cap: int = DEFAULT_UNFOLD_CAP) -> JslFormula:
    """Symbol-free formula equivalent to the expression on trees of height <= h.

    Names are expanded in place until each remaining occurrence sits under
    at least h+1 modal operators, then the stragglers become falsity.
    The output can be exponentially large; ``size_cap`` bounds it.
    """
    if not is_well_formed(expr):
        raise IllFormedRecursion(f"cyclic definitions: {find_cycle(expr)}")
    bodies = dict(expr.definitions)
    budget = [size_cap]

    def expand(phi: JslFormula, depth: int) -> JslFormula:
        budget[0] -= 1
        if budget[0] < 0:
            raise UnfoldSizeExceeded(f"unfolding exceeded {size_cap} nodes")
        if isinstance(phi, SymbolRef):
            if depth > h:
                return BOTTOM
            return expand(bodies[phi.name], depth)
        if isinstance(phi, jsl.Not):
            return jsl.Not(expand(phi.body, depth))
        if isinstance(phi, jsl.And):
            return jsl.And(expand(phi.lhs, depth), expand(phi.rhs, depth))
        if isinstance(phi, jsl.Or):
            return jsl.Or(expand(phi.lhs, depth), expand(phi.rhs, depth))
        if isinstance(phi, BoxKey):
            return BoxKey(phi.pattern, expand(phi.body, depth + 1))
        if isinstance(phi, DiaKey):
            return DiaKey(phi.pattern, expand(phi.body, depth + 1))
        if isinstance(phi, BoxIdx):
            return BoxIdx(phi.lo, phi.hi, expand(phi.body, depth + 1))
        if isinstance(phi, DiaIdx):
            return DiaIdx(phi.lo, phi.hi, expand(phi.body, depth + 1))
        return phi

    return expand(expr.base, 0)


# -- bottom-up evaluation ----------------------------------------------------------


def _sat_tables(expr: RecursiveJslExpr, tree: JsonTree, tables=None, nodes=None,
                consts=None) -> dict:
    """Per definition, a bytearray with 1 at each node id where it holds,
    filled by ``fill_tables`` with each body specialized per node kind
    (``jsl.specialize``) and compiled once per kind.

    ``tables`` may hold filled tables of symbols the expression uses but
    does not define; the definitions' tables are added to it.  ``nodes``
    (default: every node, last first) limits the filling to the given ids,
    in decreasing order and closed under descendants, such as one subtree.
    ``consts``, when given, receives the definitions constant at each kind.
    """
    if not is_well_formed(expr):
        raise IllFormedRecursion(f"cyclic definitions: {find_cycle(expr)}")
    tables = {} if tables is None else tables
    for name, _ in expr.definitions:
        tables[name] = bytearray(tree.size)
    bodies = dict(expr.definitions)
    fill_tables(tree, [(name, bodies[name]) for name in _topo_order(expr)], tables,
                jsl.specialize, lambda phi: jsl.compile_formula(tree, phi, tables),
                range(tree.size - 1, -1, -1) if nodes is None else nodes, consts)
    return tables


def fill_tables(tree: JsonTree, definitions, tables: dict, specialize, compile_, nodes,
                consts=None):
    """Fill ``tables[name]`` for each ``(name, body)`` of ``definitions``
    (every dependency before its user) at the ids of ``nodes``, decreasing
    pre-order ids, so every child is settled before its parent.

    ``specialize(body, kind, consts[kind])`` gives a body at one node kind:
    True, False or what ``compile_`` turns into a closure over node ids.
    ``consts[kind]`` holds the definitions already constant at that kind
    (and stays in ``consts`` when the caller passes it).  A node runs only
    its kind's closures, in dependency order; a constant true writes 1.
    """
    if not definitions:
        return
    consts = {} if consts is None else consts
    plan = {kind.value: [] for kind in NodeKind}
    for name, body in definitions:
        for kind in NodeKind:
            f = specialize(body, kind, consts.setdefault(kind, {}))
            if isinstance(f, bool):
                consts[kind][name] = f
            if f is not False:
                plan[kind.value].append((tables[name], None if f is True else compile_(f)))
    kinds = tree.columns()[0]
    for n in nodes:
        # by value: an Enum member hashes through a Python-level __hash__
        for table, body in plan[kinds[n]._value_]:
            table[n] = body(n) if body else 1


def recursive_sat_sets(expr: RecursiveJslExpr, tree: JsonTree) -> dict:
    """Satisfied internal node ids per definition symbol."""
    return {name: {n for n, hit in enumerate(table) if hit}
            for name, table in _sat_tables(expr, tree).items()}


def eval_recursive(expr: RecursiveJslExpr, tree: JsonTree) -> bool:
    """Whole-document satisfaction, equal to unfold-then-validate."""
    tables = _sat_tables(expr, tree)
    return bool(jsl.compile_formula(tree, expr.base, tables)(0))
