"""Reduction encoders used as satisfiability test generators.

A propositional 3CNF maps to a navigational formula whose models pick,
for every variable, an array-valued or object-valued member (true resp.
false): key determinism makes the two choices mutually exclusive, so the
formula is satisfiable exactly when the CNF is.

A closed quantified 3CNF maps to a schema-logic formula over trees of
alternating levels: an X edge into each variable position, then one
(existential) or both (universal) of a T and an F edge.  One conjunct per
clause forbids any root-to-leaf assignment path that falsifies it.
"""

from __future__ import annotations

from .. import jnl
from .. import jsl
from .. import regex as rx
from .._node import Node

# literals are (variable name, positive) pairs; a clause is a sequence of them


def _clause_vars(clauses):
    out = []
    for clause in clauses:
        for var, _ in clause:
            if var not in out:
                out.append(var)
    return out


def encode_3sat(clauses) -> jnl.JnlUnary:
    """Navigational formula satisfiable iff the CNF is."""
    variables = sorted(_clause_vars(clauses))
    if not variables:
        return jnl.TOP
    marker = "w"
    while marker in variables:
        marker += "_"

    def truthy(var):
        return jnl.Exists(jnl.Compose(jnl.KeyAxis(var),
                                      jnl.Test(jnl.Exists(jnl.IdxAxis(1)))))

    def falsy(var):
        return jnl.Exists(jnl.Compose(jnl.KeyAxis(var),
                                      jnl.Test(jnl.Exists(jnl.KeyAxis(marker)))))

    parts = [jnl.Or(truthy(v), falsy(v)) for v in variables]
    for clause in clauses:
        if not clause:
            parts.append(jnl.Not(jnl.TOP))
            continue
        parts.append(jnl.or_all(truthy(v) if positive else falsy(v)
                                for v, positive in clause))
    return jnl.and_all(parts)


class Qbf(Node):
    """Closed quantified boolean formula with a 3CNF matrix."""
    # prefix: ((quantifier 'exists'|'forall', variable), ...)
    __slots__ = ("prefix", "clauses")

    def __post_init__(self):
        bound = [v for _, v in self.prefix]
        if len(set(bound)) != len(bound):
            raise ValueError("a variable is quantified twice")
        free = set(_clause_vars(self.clauses)) - set(bound)
        if free:
            raise ValueError(f"free variables: {sorted(free)}")
        for quant, _ in self.prefix:
            if quant not in ("exists", "forall"):
                raise ValueError(f"bad quantifier {quant!r}")


def _boxes(count, body):
    for _ in range(count):
        body = jsl.BoxKey(rx.SIGMA_STAR, body)
    return body


def _dias(count, body):
    for _ in range(count):
        body = jsl.DiaKey(rx.SIGMA_STAR, body)
    return body


_X = rx.word_regex("X")
_T = rx.word_regex("T")
_F = rx.word_regex("F")


def encode_qbf(qbf: Qbf) -> jsl.JslFormula:
    """Schema-logic formula satisfiable iff the quantified formula is true.

    Models are trees of height twice the prefix length: level 2k reaches
    the k+1-th variable position through an X edge, level 2k+1 branches
    through T and/or F.
    """
    n = len(qbf.prefix)
    position = {var: i + 1 for i, (_, var) in enumerate(qbf.prefix)}
    dia_t = jsl.DiaKey(_T, jsl.TOP)
    dia_f = jsl.DiaKey(_F, jsl.TOP)
    parts = []
    if n:
        parts.append(jsl.DiaKey(_X, jsl.TOP))
    for k, (quant, _) in enumerate(qbf.prefix, start=1):
        if quant == "exists":
            choice = jsl.Or(jsl.And(dia_t, jsl.Not(dia_f)),
                            jsl.And(jsl.Not(dia_t), dia_f))
        else:
            choice = jsl.And(dia_t, dia_f)
        parts.append(_boxes(2 * (k - 1), jsl.BoxKey(_X, choice)))
    for k in range(0, n - 1):
        step = jsl.And(jsl.BoxKey(_T, jsl.DiaKey(_X, jsl.TOP)),
                       jsl.BoxKey(_F, jsl.DiaKey(_X, jsl.TOP)))
        parts.append(_boxes(2 * k + 1, step))
    for clause in qbf.clauses:
        falsifier = _falsifying_path(clause, position)
        if falsifier is not None:
            parts.append(jsl.Not(falsifier))
    return jsl.and_all(parts)


def _falsifying_path(clause, position):
    """Formula finding an assignment path that falsifies the clause, or
    None when the clause is tautological."""
    signs = {}
    for var, positive in clause:
        if var in signs and signs[var] != positive:
            return None
        signs[var] = positive
    ordered = sorted(signs.items(), key=lambda item: position[item[0]])
    body = jsl.TOP
    prev = None
    for var, positive in reversed(ordered):
        wrong = _F if positive else _T
        body = jsl.DiaKey(_X, jsl.DiaKey(wrong, body))
        if prev is not None:
            body = _dias(2 * (position[prev] - position[var] - 1), body)
        prev = var
    return _dias(2 * (position[ordered[0][0]] - 1), body)
