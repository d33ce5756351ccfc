"""Alternating automata over JSON trees.

An automaton has node states and tree states, each owning exactly one
rule.  Tree-state rules are positive combinations of quantified atoms
(some/every child along a key regex or index interval carries a state);
node-state rules are positive combinations of already-derived states and
possibly negated node tests.  A run decorates every tree node with the
set of derivable states, built bottom-up in reverse pre-order id: the
tree layer first from the children's sets, then node states in dependency
order (the dependency graph among node states must be acyclic).  The
automaton accepts when the root derives a final state.  Rule bodies run
as closures built from ``jsl``'s compiled node tests and quantifiers.

Formulas compile in negation normal form, so complementation is a pure
dualization: swap and/or, toggle test negations, swap the quantifiers.
The final-state set of a dualized single-final automaton is kept, which
is what makes double complementation the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import jsl
from .. import recursive as rec
from .. import regex as rx
from ..errors import AutomatonError, IllFormedRecursion
from ..tree import JsonTree


class RuleExpr:
    __slots__ = ()


@dataclass(frozen=True)
class TrueAtom(RuleExpr):
    pass


@dataclass(frozen=True)
class FalseAtom(RuleExpr):
    pass


@dataclass(frozen=True)
class TestAtom(RuleExpr):
    test: jsl.NodeTest
    negated: bool = False


@dataclass(frozen=True)
class StateAtom(RuleExpr):
    state: int


@dataclass(frozen=True)
class SymbolAtom(RuleExpr):
    """Placeholder for a definition symbol during recursive compilation."""
    name: str
    negated: bool = False


@dataclass(frozen=True)
class KeyLabel:
    pattern: rx.Regex


@dataclass(frozen=True)
class IdxLabel:
    lo: int
    hi: Optional[int]


@dataclass(frozen=True)
class QuantAtom(RuleExpr):
    state: int
    label: object  # KeyLabel | IdxLabel
    universal: bool = False


@dataclass(frozen=True)
class RAnd(RuleExpr):
    parts: tuple


@dataclass(frozen=True)
class ROr(RuleExpr):
    parts: tuple


@dataclass(frozen=True)
class JAutomaton:
    node_states: frozenset
    tree_states: frozenset
    final: frozenset
    node_rules: tuple  # ((state, RuleExpr), ...)
    tree_rules: tuple

    def node_rule_map(self) -> dict:
        return dict(self.node_rules)

    def tree_rule_map(self) -> dict:
        return dict(self.tree_rules)

    @property
    def size(self) -> int:
        return len(self.node_states) + len(self.tree_states)


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
    deps = {}
    for q, body in node_rules:
        deps[q] = [a.state for a in _atoms(body)
                   if isinstance(a, StateAtom) and a.state in node_states]
    order, done, active = [], set(), set()

    def visit(q):
        stack = [(q, iter(deps[q]))]
        active.add(q)
        while stack:
            state, it = stack[-1]
            advanced = False
            for dep in it:
                if dep in done:
                    continue
                if dep in active:
                    raise AutomatonError(f"cyclic node-state rules through {dep}")
                active.add(dep)
                stack.append((dep, iter(deps[dep])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                active.discard(state)
                done.add(state)
                order.append(state)

    for q in deps:
        if q not in done:
            visit(q)
    return order


def node_rule_order(auto: JAutomaton) -> list:
    return _check_node_rule_order(auto.node_rules, auto.node_states)


# -- acceptance -----------------------------------------------------------------


def automaton_accepts(auto: JAutomaton, tree: JsonTree) -> bool:
    """Deterministic bottom-up run; True when the root derives a final state.

    Each state is one bit and a node's derived states are one int.  Only
    the states the final ones depend on are run.  Their rule bodies compile
    to closures once per call; node ids are pre-order, so visiting them in
    reverse derives every child before its parent.
    """
    order = node_rule_order(auto)
    live = _live_states(auto)
    bits = {q: 1 << i for i, q in enumerate(sorted(live))}
    masks = [0] * tree.size
    node_rules = auto.node_rule_map()
    tree_steps = [(bits[q], _tree_rule(body, tree, bits, masks))
                  for q, body in auto.tree_rules if q in live]
    node_steps = [(bits[q], _node_rule(node_rules[q], tree, bits))
                  for q in order if q in live]
    for n in range(tree.size - 1, -1, -1):
        derived = 0
        for bit, rule in tree_steps:
            if rule(n):
                derived |= bit
        for bit, rule in node_steps:
            if rule(n, derived):
                derived |= bit
        masks[n] = derived
    return masks[0] & _mask(auto.final, bits) != 0


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


def _mask(states, bits) -> int:
    mask = 0
    for q in states:
        bit = bits.get(q)
        if bit is None:
            raise AutomatonError(f"a rule refers to state {q}, which has no rule")
        mask |= bit
    return mask


def _node_rule(expr, tree, bits):
    """Closure ``(n, derived) -> bool`` for a node-state rule body."""
    if isinstance(expr, (RAnd, ROr)):
        conj = isinstance(expr, RAnd)
        if all(isinstance(p, StateAtom) for p in expr.parts):
            mask = _mask([p.state for p in expr.parts], bits)
            if conj:
                return lambda n, derived: derived & mask == mask
            return lambda n, derived: derived & mask != 0
        parts = [_node_rule(p, tree, bits) for p in expr.parts]
        if conj:
            return lambda n, derived: all(p(n, derived) for p in parts)
        return lambda n, derived: any(p(n, derived) for p in parts)
    if isinstance(expr, TrueAtom):
        return lambda n, derived: True
    if isinstance(expr, FalseAtom):
        return lambda n, derived: False
    if isinstance(expr, TestAtom):
        test = jsl.compile_test(tree, expr.test)
        if expr.negated:
            return lambda n, derived: not test(n)
        return lambda n, derived: test(n)
    if isinstance(expr, StateAtom):
        mask = _mask([expr.state], bits)
        return lambda n, derived: derived & mask != 0
    if isinstance(expr, SymbolAtom):
        raise AutomatonError("unresolved definition symbol in a rule")
    raise AutomatonError(f"quantified atom in a node rule: {expr!r}")


def _tree_rule(expr, tree, bits, masks):
    """Closure ``n -> bool`` for a tree-state rule body over the children's
    derived states in ``masks``."""
    if isinstance(expr, (RAnd, ROr)):
        parts = [_tree_rule(p, tree, bits, masks) for p in expr.parts]
        if isinstance(expr, RAnd):
            return lambda n: all(p(n) for p in parts)
        return lambda n: any(p(n) for p in parts)
    if isinstance(expr, QuantAtom):
        mask = _mask([expr.state], bits)
        label = expr.label
        label = label.pattern if isinstance(label, KeyLabel) else (label.lo, label.hi)
        return jsl.compile_modal(tree, label, expr.universal, lambda c: masks[c] & mask)
    raise AutomatonError(f"node atom in a tree rule: {expr!r}")


# -- complementation ---------------------------------------------------------------


def _dual(expr: RuleExpr) -> RuleExpr:
    if isinstance(expr, RAnd):
        return ROr(tuple(_dual(p) for p in expr.parts))
    if isinstance(expr, ROr):
        return RAnd(tuple(_dual(p) for p in expr.parts))
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
        """State deriving exactly where phi (or its negation) holds."""
        if isinstance(phi, jsl.Top):
            return self.node(TrueAtom() if positive else FalseAtom())
        if isinstance(phi, jsl.Not):
            return self.build(phi.body, not positive)
        if isinstance(phi, jsl.And):
            parts = (StateAtom(self.build(phi.lhs, positive)),
                     StateAtom(self.build(phi.rhs, positive)))
            return self.node(RAnd(parts) if positive else ROr(parts))
        if isinstance(phi, jsl.Or):
            parts = (StateAtom(self.build(phi.lhs, positive)),
                     StateAtom(self.build(phi.rhs, positive)))
            return self.node(ROr(parts) if positive else RAnd(parts))
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
        sub = self.build(phi.body, positive)
        # a negated box is an existential over the negated body, and dually
        return self.tree(QuantAtom(sub, label, universal=boxlike == positive))

    def finish(self, final: int) -> JAutomaton:
        return make_automaton(self.node_rules, self.tree_rules, {final})


def jsl_to_automaton(phi: jsl.JslFormula) -> JAutomaton:
    """Automaton accepting exactly the documents validating against phi."""
    b = _Builder()
    return b.finish(b.build(phi, positive=True))


def recursive_to_automaton(expr: rec.RecursiveJslExpr) -> JAutomaton:
    """Automaton for a well-formed recursive expression.

    Each definition compiles twice (positive and negated); symbol atoms
    then resolve to the matching copy's final state.
    """
    if not rec.is_well_formed(expr):
        raise IllFormedRecursion(f"cyclic definitions: {rec.find_cycle(expr)}")
    b = _Builder()
    pos_final, neg_final = {}, {}
    for name, body in expr.definitions:
        pos_final[name] = b.build(body, positive=True)
        neg_final[name] = b.build(body, positive=False)
    final = b.build(expr.base, positive=True)

    def resolve(e: RuleExpr) -> RuleExpr:
        if isinstance(e, (RAnd, ROr)):
            parts = tuple(resolve(p) for p in e.parts)
            return RAnd(parts) if isinstance(e, RAnd) else ROr(parts)
        if isinstance(e, SymbolAtom):
            table = neg_final if e.negated else pos_final
            return StateAtom(table[e.name])
        return e

    node_rules = [(q, resolve(body)) for q, body in b.node_rules]
    tree_rules = b.tree_rules
    return make_automaton(node_rules, tree_rules, {final})
