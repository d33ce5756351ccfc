"""Alternating automata over JSON trees.

An automaton has node states and tree states, each owning exactly one
rule.  Tree-state rules are positive combinations of quantified atoms
(some/every child along a key regex or index interval carries a state);
node-state rules are positive combinations of states and possibly negated
node tests (the dependency graph among node states must be acyclic).  The
automaton accepts a tree when its root derives a final state.

A run does not interpret rule bodies: it translates the live rules into
a recursive schema-logic expression, one definition per state that a
quantified atom or two readers read, every other state inlined into its
reader, and evaluates that with ``recursive.eval_recursive``.  So a run
fills per-definition tables bottom-up in reverse pre-order id, and the
connectives between them short-circuit.  The translation is kept on the
interned automaton, and a recursive expression's automaton on the
expression, so neither is built twice in a process.

Formulas compile in negation normal form, so complementation is a pure
dualization: swap and/or, toggle test negations, swap the quantifiers.
The final-state set of a dualized single-final automaton is kept, which
is what makes double complementation the identity.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .. import jsl
from .. import recursive as rec
from .._node import Node, each, walk
from ..errors import AutomatonError
from ..tree import JsonTree


class RuleExpr(Node):
    __slots__ = ()


class TrueAtom(RuleExpr):
    __slots__ = ()


class FalseAtom(RuleExpr):
    __slots__ = ()


class TestAtom(RuleExpr):
    __slots__ = ("test", "negated")
    _defaults = {"negated": False}


class StateAtom(RuleExpr):
    __slots__ = ("state",)


class SymbolAtom(RuleExpr):
    """Placeholder for a definition symbol during recursive compilation."""
    __slots__ = ("name", "negated")
    _defaults = {"negated": False}


class KeyLabel(Node):
    __slots__ = ("pattern",)


class IdxLabel(Node):
    __slots__ = ("lo", "hi")


class QuantAtom(RuleExpr):
    # label: KeyLabel | IdxLabel
    __slots__ = ("state", "label", "universal")
    _defaults = {"universal": False}


class RAnd(RuleExpr):
    __slots__ = ("parts",)


class ROr(RuleExpr):
    __slots__ = ("parts",)


class JAutomaton(Node):
    """``node_rules``: ``((state, RuleExpr), ...)``.  The instance dict
    holds the recursive expression its runs evaluate, built once."""
    __slots__ = ("node_states", "tree_states", "final", "node_rules", "tree_rules", "__dict__")

    def node_rule_map(self) -> dict:
        return dict(self.node_rules)

    def tree_rule_map(self) -> dict:
        return dict(self.tree_rules)

    @property
    def size(self) -> int:
        return len(self.node_states) + len(self.tree_states)

    @cached_property
    def recursive(self) -> rec.RecursiveJslExpr:
        """``_to_recursive(self)``, translated once."""
        return _to_recursive(self)


def _atoms(expr: RuleExpr):
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (RAnd, ROr)):
            stack.extend(e.parts)
        else:
            yield e


def make_automaton(node_rules, tree_rules, final) -> JAutomaton:
    """Assemble and validate: one rule per state, acyclic node-state rules."""
    node_rules = tuple(node_rules)
    tree_rules = tuple(tree_rules)
    node_states = frozenset(q for q, _ in node_rules)
    tree_states = frozenset(q for q, _ in tree_rules)
    if len(node_states) != len(node_rules) or len(tree_states) != len(tree_rules):
        raise AutomatonError("a state owns more than one rule")
    if node_states & tree_states:
        raise AutomatonError("node and tree state ids overlap")
    final = frozenset(final)
    stray = final - node_states - tree_states
    if stray:
        raise AutomatonError(f"final states without rules: {sorted(stray)}")
    _check_node_rule_order(node_rules, node_states)
    return JAutomaton(node_states, tree_states, final, node_rules, tree_rules)


def _check_node_rule_order(node_rules, node_states):
    """Topological order of node states by rule dependency (cycle = error)."""
    order, cycle = rec.dependency_order(
        {q: [a.state for a in _atoms(body) if isinstance(a, StateAtom) and a.state in node_states]
         for q, body in node_rules})
    if cycle:
        raise AutomatonError(f"cyclic node-state rules through {cycle[-1]}")
    return order


def node_rule_order(auto: JAutomaton) -> list:
    return _check_node_rule_order(auto.node_rules, auto.node_states)


# -- acceptance -----------------------------------------------------------------

def automaton_accepts(auto: JAutomaton, tree: JsonTree) -> bool:
    """Bottom-up run; True when the root derives a final state.

    The live rules translate to a recursive expression (``_to_recursive``,
    kept as ``auto.recursive``) whose base is the disjunction of the final
    states at the root, and ``recursive.eval_recursive`` fills it node by
    node, last pre-order id first.
    """
    return rec.eval_recursive(auto.recursive, tree)


def _live_states(auto: JAutomaton) -> set:
    """The final states and every state their rules reach."""
    rules = dict(auto.node_rules + auto.tree_rules)
    live, stack = set(), list(auto.final)
    while stack:
        q = stack.pop()
        if q not in live and q in rules:
            live.add(q)
            stack.extend(a.state for a in _atoms(rules[q])
                         if isinstance(a, (StateAtom, QuantAtom)))
    return live


def _to_recursive(auto: JAutomaton) -> rec.RecursiveJslExpr:
    """The live rules as one recursive expression.

    A node state whose rule is a lone state atom is an alias of its target.
    A state that a quantified atom reads, or that two readers read (the
    final disjunction counts as one), becomes a definition ``q<id>``; every
    other state is inlined into its one reader.  Formulas are in negation
    normal form, so a state never occurs negated.
    """
    node_rules, tree_rules = auto.node_rule_map(), auto.tree_rule_map()
    rules = {**node_rules, **tree_rules}
    targets = {q: q for q in tree_rules}
    for q in node_rule_order(auto):  # an alias comes after its target; raises on a cycle
        body = node_rules[q]
        targets[q] = targets.get(body.state, body.state) if isinstance(body, StateAtom) else q

    def target(q):
        if targets.get(q) not in rules:
            raise AutomatonError(f"a rule refers to state {targets.get(q, q)}, which has no rule")
        return targets[q]

    reads, defined = [], set()
    for q in _live_states(auto):
        if target(q) != q:
            continue
        allowed = QuantAtom if q in tree_rules else (TrueAtom, FalseAtom, TestAtom, StateAtom)
        for a in _atoms(rules[q]):
            if not isinstance(a, allowed):
                raise AutomatonError(f"misplaced atom in the rule of state {q}: {a!r}")
            if isinstance(a, (StateAtom, QuantAtom)):
                reads.append(target(a.state))
            if isinstance(a, QuantAtom):
                defined.add(reads[-1])
    finals = sorted({target(q) for q in auto.final})
    defined |= {q for q, k in Counter(reads + finals).items() if k > 1}

    def rule(e):
        if isinstance(e, (RAnd, ROr)):
            return (jsl.and_all if isinstance(e, RAnd) else jsl.or_all)((yield from each(e.parts)))
        if isinstance(e, StateAtom):
            q = target(e.state)
            return jsl.SymbolRef(f"q{q}") if q in defined else (yield rules[q])
        if isinstance(e, TestAtom):
            return jsl.Not(jsl.Atom(e.test)) if e.negated else jsl.Atom(e.test)
        if isinstance(e, QuantAtom):
            body, label = jsl.SymbolRef(f"q{target(e.state)}"), e.label
            if isinstance(label, KeyLabel):
                return (jsl.BoxKey if e.universal else jsl.DiaKey)(label.pattern, body)
            return (jsl.BoxIdx if e.universal else jsl.DiaIdx)(label.lo, label.hi, body)
        return jsl.TOP if isinstance(e, TrueAtom) else jsl.BOTTOM

    memo = {}
    definitions = tuple((f"q{q}", walk(rule, rules[q], memo))
                        for q in sorted(defined, reverse=True))
    base = jsl.or_all(walk(rule, StateAtom(q), memo) for q in finals)
    return rec.RecursiveJslExpr(definitions, base)


# -- complementation ---------------------------------------------------------------


def _dual(expr: RuleExpr) -> RuleExpr:
    def visit(expr):
        if isinstance(expr, RAnd):
            return ROr(tuple((yield from each(expr.parts))))
        if isinstance(expr, ROr):
            return RAnd(tuple((yield from each(expr.parts))))
        if isinstance(expr, TrueAtom):
            return FalseAtom()
        if isinstance(expr, FalseAtom):
            return TrueAtom()
        if isinstance(expr, TestAtom):
            return TestAtom(expr.test, not expr.negated)
        if isinstance(expr, SymbolAtom):
            return SymbolAtom(expr.name, not expr.negated)
        if isinstance(expr, StateAtom):
            return expr
        if isinstance(expr, QuantAtom):
            return QuantAtom(expr.state, expr.label, not expr.universal)
        raise AutomatonError(f"not a rule expression: {expr!r}")
    return walk(visit, expr)


def single_final(auto: JAutomaton) -> JAutomaton:
    """Equivalent automaton with exactly one final state."""
    if len(auto.final) == 1:
        return auto
    fresh = max([*auto.node_states, *auto.tree_states], default=-1) + 1
    body = ROr(tuple(StateAtom(q) for q in sorted(auto.final))) if auto.final else FalseAtom()
    return make_automaton(auto.node_rules + ((fresh, body),), auto.tree_rules, {fresh})


def complement(auto: JAutomaton) -> JAutomaton:
    """Accepts exactly the trees the input rejects.

    Dualizes every rule body (and/or, test polarity, quantifier kind) after
    normalizing to a single final state, which then detects the dualized
    failure of the original.
    """
    auto = single_final(auto)
    return make_automaton(
        tuple((q, _dual(b)) for q, b in auto.node_rules),
        tuple((q, _dual(b)) for q, b in auto.tree_rules),
        auto.final,
    )


# -- compiling formulas ----------------------------------------------------------


class _Builder:
    def __init__(self):
        self.node_rules = []
        self.tree_rules = []
        self.counter = 0

    def fresh(self) -> int:
        self.counter += 1
        return self.counter - 1

    def node(self, body) -> int:
        q = self.fresh()
        self.node_rules.append((q, body))
        return q

    def tree(self, body) -> int:
        q = self.fresh()
        self.tree_rules.append((q, body))
        return q

    def build(self, phi: jsl.JslFormula, positive: bool) -> int:
        """State deriving exactly where phi (or its negation) holds; each
        occurrence of a subformula gets states of its own (no memo)."""
        return walk(self._build, (phi, positive), memo=False)

    def _build(self, item):
        phi, positive = item
        if isinstance(phi, jsl.Not):
            return (yield phi.body, not positive)
        if isinstance(phi, jsl.Top):
            return self.node(TrueAtom() if positive else FalseAtom())
        if isinstance(phi, (jsl.And, jsl.Or)):
            join = RAnd if isinstance(phi, jsl.And) == positive else ROr
            q = yield phi.lhs, positive
            r = yield phi.rhs, positive
            return self.node(join((StateAtom(q), StateAtom(r))))
        if isinstance(phi, jsl.Atom):
            return self.node(TestAtom(phi.test, negated=not positive))
        if isinstance(phi, jsl.SymbolRef):
            return self.node(SymbolAtom(phi.name, negated=not positive))
        if isinstance(phi, (jsl.BoxKey, jsl.DiaKey)):
            label = KeyLabel(phi.pattern)
        elif isinstance(phi, (jsl.BoxIdx, jsl.DiaIdx)):
            label = IdxLabel(phi.lo, phi.hi)
        else:
            raise TypeError(f"not a formula: {phi!r}")
        boxlike = isinstance(phi, (jsl.BoxKey, jsl.BoxIdx))
        sub = yield phi.body, positive
        # a negated box is an existential over the negated body, and dually
        return self.tree(QuantAtom(sub, label, universal=boxlike == positive))

    def finish(self, final: int) -> JAutomaton:
        return make_automaton(self.node_rules, self.tree_rules, {final})


def jsl_to_automaton(phi: jsl.JslFormula) -> JAutomaton:
    """Automaton accepting exactly the documents validating against phi."""
    b = _Builder()
    return b.finish(b.build(phi, positive=True))


def recursive_to_automaton(expr: rec.RecursiveJslExpr) -> JAutomaton:
    """Automaton for a well-formed recursive expression, built once per
    expression and kept on it (``RecursiveJslExpr.automaton``)."""
    return expr.automaton


def _build_recursive_automaton(expr: rec.RecursiveJslExpr) -> JAutomaton:
    """Each definition compiles twice (positive and negated); symbol atoms
    then resolve to the matching copy's final state."""
    rec._topo_order(expr)  # rejects a cyclic expression
    b = _Builder()
    pos_final, neg_final = {}, {}
    for name, body in expr.definitions:
        pos_final[name] = b.build(body, positive=True)
        neg_final[name] = b.build(body, positive=False)
    final = b.build(expr.base, positive=True)
    # the builder puts a symbol atom only as the whole rule of a fresh state
    node_rules = [(q, StateAtom((neg_final if e.negated else pos_final)[e.name])
                   if isinstance(e, SymbolAtom) else e) for q, e in b.node_rules]
    return make_automaton(node_rules, b.tree_rules, {final})
