"""Recursive schema-logic expressions.

An expression is a list of named definitions plus a base formula; bodies
and the base may use the defined names as atoms.  Well-formedness demands
an acyclic precedence graph, whose edges connect a definition to every
name appearing in its body outside the scope of any modal operator.
``dependency_order`` is the one walk that orders such a graph (every
dependency before its user) or finds its cycle, here and for every other
definition graph in the package.

Two semantics are provided and kept equivalent: ``unfold`` rewrites the
base until every remaining name sits under more modalities than the
tree's height (then turns into falsity), and ``eval_recursive`` fills a
table of satisfied nodes per definition in reverse pre-order id, each body
folded per node kind (``jsl.specialize``) and compiled once per kind: a
node runs only its kind's closures, in dependency order.  A symbol
reads its table and never calls its body, and ``cut`` makes a definition
of any part nested too deep, so evaluation recurses a bounded depth,
whatever the formula or the document.  The second is the production
path; the first is the reference the tests compare against.

What no document changes is kept on the interned expression: its
evaluation plan (``RecursiveJslExpr.plan``: the cut, the live definitions
in dependency order and their forms per node kind) and its automaton
(``decision.recursive_to_automaton``).  A run only compiles closures over
its tree and fills the tables.

Concrete syntax: ``let g1 = <jsl>; let g2 = <jsl>; in <jsl>``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from . import jsl
from . import syntax
from ._node import Node, each, walk
from .errors import IllFormedRecursion, MalformedFormula, UnfoldSizeExceeded
from .jsl import BOTTOM, BoxIdx, BoxKey, DiaIdx, DiaKey, JslFormula, SymbolRef
from .syntax import operands
from .tree import JsonTree, NodeKind

DEFAULT_UNFOLD_CAP = 500_000
MAX_CLOSURE_NESTING = 100  # levels of compiled closures a run may nest (see cut)


class RecursiveJslExpr(Node):
    """``definitions``: ``((name, JslFormula), ...)``.  The instance dict
    holds what is derived from the expression alone, once per process."""
    __slots__ = ("definitions", "base", "__dict__")

    def __repr__(self):
        return f"<rjsl {to_text(self)[:80]}>"

    @cached_property
    def plan(self):
        """``(base, names, forms)``: the base of ``cut(self)``, the live
        definitions (those the base reaches) in dependency order, and
        their ``_specialize_definitions``.  A cycle, among unused
        definitions too, raises IllFormedRecursion."""
        expr = cut(self)
        order, bodies = _topo_order(expr), dict(expr.definitions)
        live, todo = set(), list(jsl.symbols_used(expr.base))
        while todo:
            name = todo.pop()
            if name not in live:
                live.add(name)
                todo.extend(jsl.symbols_used(bodies[name]))
        names = [name for name in order if name in live]
        forms = _specialize_definitions([(name, bodies[name]) for name in names])
        return expr.base, names, forms

    @cached_property
    def automaton(self):
        """``decision.recursive_to_automaton(self)``, built once."""
        from .decision.automata import _build_recursive_automaton  # it imports this module
        return _build_recursive_automaton(self)


class PrecedenceGraph(Node):
    # edges: (definer, used-symbol) pairs outside modal scope
    __slots__ = ("symbols", "edges")


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
    definitions, body = [], jsl.SYNTAX["body"]
    tok, at, pos = syntax.token(text, 0)
    while tok == "let":
        name, at, pos = syntax.token(text, pos)
        if not syntax.is_name(name) or name in body:
            raise syntax.fail("expected a definition name after 'let'", at)
        phi, pos = syntax.parse(jsl.SYNTAX, "body", text, syntax.eat(text, pos, "="))
        definitions.append((name, phi))
        tok, at, pos = syntax.token(text, syntax.eat(text, pos, ";"))
    if definitions and tok != "in":
        raise syntax.fail("expected 'in' before the base expression", at)
    base, end = syntax.parse(jsl.SYNTAX, "body", text, pos if tok == "in" else at)
    if end != len(text):
        raise MalformedFormula(f"trailing input at offset {end}")
    return make_recursive(definitions, base)


def to_text(expr: RecursiveJslExpr) -> str:
    parts = [f"let {name} = {jsl.to_text(body)};" for name, body in expr.definitions]
    parts.append(f"in {jsl.to_text(expr.base)}")
    return " ".join(parts)


# -- precedence graph and well-formedness ---------------------------------------


def precedence_graph(expr: RecursiveJslExpr) -> PrecedenceGraph:
    symbols = tuple(name for name, _ in expr.definitions)
    defined = set(symbols)
    edges = set()
    for name, body in expr.definitions:
        for used in jsl.symbol_sets(body)[1]:  # outside every modality
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


def dependency_order(succ: dict):
    """``(order, None)``, every node after its successors, or ``(None,
    [s, ..., s])`` for a cycle: the one depth-first ordering and cycle
    search, also behind schema definitions, automaton node states and the
    search's same-node bits.  ``succ`` maps every node to its successors,
    visited in the given order; the walk keeps its own stack, so long
    chains need no recursion.
    """
    order = []
    color = dict.fromkeys(succ, 0)  # 0 new, 1 on the trail, 2 done
    for root in succ:
        if color[root]:
            continue
        color[root] = 1
        trail, stack = [root], [iter(succ[root])]
        while stack:
            for t in stack[-1]:
                if color[t] == 1:
                    return None, trail[trail.index(t):] + [t]
                if color[t] == 0:
                    color[t] = 1
                    trail.append(t)
                    stack.append(iter(succ[t]))
                    break
            else:
                stack.pop()
                s = trail.pop()
                color[s] = 2
                order.append(s)
    return order, None


def find_cycle(expr: RecursiveJslExpr) -> Optional[list]:
    """A cyclic symbol sequence in the precedence graph, or None."""
    return dependency_order(_successors(expr))[1]


def _topo_order(expr: RecursiveJslExpr) -> list:
    """Definition names with every dependency before its user; raises
    IllFormedRecursion on a cycle, so it is also the well-formedness check."""
    order, cycle = dependency_order(_successors(expr))
    if cycle:
        raise IllFormedRecursion(f"cyclic definitions: {cycle}")
    return order


# -- unfold semantics -------------------------------------------------------------


def unfold(expr: RecursiveJslExpr, h: int, size_cap: int = DEFAULT_UNFOLD_CAP) -> JslFormula:
    """Symbol-free formula equivalent to the expression on trees of height <= h.

    Names are expanded in place until each remaining occurrence sits under
    at least h+1 modal operators, then the stragglers become falsity.
    The output can be exponentially large; ``size_cap`` bounds it.
    """
    _topo_order(expr)  # rejects a cyclic expression
    bodies = dict(expr.definitions)
    budget = [size_cap]

    def expand(arg):
        phi, depth = arg
        budget[0] -= 1
        if budget[0] < 0:
            raise UnfoldSizeExceeded(f"unfolding exceeded {size_cap} nodes")
        if isinstance(phi, SymbolRef):
            if depth > h:
                return BOTTOM
            return (yield bodies[phi.name], depth)
        if isinstance(phi, jsl.Not):
            return jsl.Not((yield phi.body, depth))
        if isinstance(phi, (jsl.And, jsl.Or)):
            return type(phi)((yield phi.lhs, depth), (yield phi.rhs, depth))
        if isinstance(phi, (BoxKey, DiaKey)):
            return type(phi)(phi.pattern, (yield phi.body, depth + 1))
        if isinstance(phi, (BoxIdx, DiaIdx)):
            return type(phi)(phi.lo, phi.hi, (yield phi.body, depth + 1))
        return phi

    # no memo: the budget counts every occurrence the unfolding writes out
    return walk(expand, (expr.base, 0), memo=False)


# -- bottom-up evaluation ----------------------------------------------------------


def cut(expr: RecursiveJslExpr) -> RecursiveJslExpr:
    """``expr`` with each formula cut so that its compiled closures nest at
    most ``MAX_CLOSURE_NESTING`` levels deep (``jsl._nesting``): an operand
    that would nest its user deeper becomes a definition ``^i``, read
    through its table.  Every evaluator cuts its expression so."""
    limit, cuts = MAX_CLOSURE_NESTING, {}
    if all(body._nesting <= limit for _, body in expr.definitions) and expr.base._nesting <= limit:
        return expr

    def visit(phi):
        if phi._nesting <= limit:
            return phi
        chain = isinstance(phi, (jsl.And, jsl.Or))
        parts = yield from each(operands(phi) if chain else [phi.body])
        levels = (len(parts) - 1).bit_length() if chain else 1
        parts = [f if f._nesting + levels <= limit
                 else cuts.setdefault(f, SymbolRef(f"^{len(cuts)}")) for f in parts]
        if chain:
            return (jsl.and_all if isinstance(phi, jsl.And) else jsl.or_all)(parts)
        return type(phi)(*(getattr(phi, name) for name in phi._fields[:-1]), parts[0])

    memo = {}
    bodies = tuple((name, walk(visit, body, memo)) for name, body in expr.definitions)
    base = walk(visit, expr.base, memo)
    return RecursiveJslExpr(bodies + tuple((ref.name, f) for f, ref in cuts.items()), base)


def _sat_tables(expr: RecursiveJslExpr, tree: JsonTree, tables=None, nodes=None,
                consts=None) -> dict:
    """Per definition of a ``cut`` expression, a bytearray with 1 at each
    node id where it holds, filled by ``fill_tables`` with each body
    specialized per node kind (``jsl.specialize``), compiled once per kind.

    ``tables`` may hold filled tables of symbols the expression uses but
    does not define; the definitions' tables are added to it.  ``nodes``
    (default: every node, last first) limits the filling to the given ids,
    in decreasing order and closed under descendants, such as one subtree.
    ``consts``, when given, receives the definitions constant at each kind.
    """
    bodies, tables = dict(expr.definitions), {} if tables is None else tables
    tables.update((name, bytearray(tree.size)) for name in bodies)
    fill_tables(tree, [(name, bodies[name]) for name in _topo_order(expr)], tables,
                range(tree.size - 1, -1, -1) if nodes is None else nodes, consts)
    return tables


def fill_tables(tree: JsonTree, definitions, tables: dict, nodes, consts=None):
    """Fill ``tables[name]`` for each ``(name, body)`` of ``definitions``
    (every dependency before its user) at the ids of ``nodes``, decreasing
    pre-order ids, so every child is settled before its parent; each body
    is specialized per node kind (``_specialize_definitions``, which also
    fills ``consts`` when the caller passes it)."""
    if definitions:
        _fill(tree, _specialize_definitions(definitions, consts), tables, nodes)


def _specialize_definitions(definitions, consts=None) -> dict:
    """Per node kind value, ``(name, form)`` for each ``(name, body)`` of
    ``definitions`` (every dependency before its user) but those false at
    that kind: ``form`` is ``jsl.specialize(body, kind, consts[kind])``,
    True or a formula.  ``consts[kind]`` holds the definitions already
    constant at that kind (and stays in ``consts`` when the caller passes
    it)."""
    consts = {} if consts is None else consts
    plan = {kind.value: [] for kind in NodeKind}
    for name, body in definitions:
        for kind in NodeKind:
            f = jsl.specialize(body, kind, consts.setdefault(kind, {}))
            if isinstance(f, bool):
                consts[kind][name] = f
            if f is not False:
                plan[kind.value].append((name, f))
    return plan


def _fill(tree: JsonTree, plan: dict, tables: dict, nodes):
    """Run ``_specialize_definitions``' ``plan`` over ``nodes``: each form
    compiled once by ``jsl.compile_formula``, reading the symbols from
    ``tables``.  A node runs only its kind's closures, in dependency
    order; a constant true writes 1."""
    plan = {kind: [(tables[name], None if f is True else jsl.compile_formula(tree, f, tables))
                   for name, f in forms] for kind, forms in plan.items()}
    kinds = tree.columns()[0]
    for n in nodes:
        # by value: an Enum member hashes through a Python-level __hash__
        for table, body in plan[kinds[n]._value_]:
            table[n] = body(n) if body else 1


def eval_recursive(expr: RecursiveJslExpr, tree: JsonTree) -> bool:
    """Whole-document satisfaction, equal to unfold-then-validate.  Only
    the definitions the base reaches get a table and a closure
    (``RecursiveJslExpr.plan``, made once per expression)."""
    base, names, forms = expr.plan
    tables = {name: bytearray(tree.size) for name in names}
    if names:
        _fill(tree, forms, tables, range(tree.size - 1, -1, -1))
    return bool(jsl.compile_formula(tree, base, tables)(0))
