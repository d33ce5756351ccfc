"""Expected answers computed without jlogic.

Every verdict the benchmark checks comes from here or from the generator's
own construction: plain-Python walks over the generated values, truth
tables, brute-force QBF and a small evaluator for the generated schema
specs.  Nothing in this module imports jlogic, and no answer is ever taken
from an earlier jlogic run.

Paths are tuples of segments: object keys (str) and 1-based array
positions (int), as the CLI renders them.
"""

from __future__ import annotations

import itertools
import json
import re

KEY_RE = re.compile(r"k[0-9]+")
STR_RE = re.compile(r"[a-z]+")


def children(value):
    """(segment, child) pairs of a JSON value."""
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, list):
        return [(i + 1, c) for i, c in enumerate(value)]
    return []


def walk(value):
    """Every (path, node) pair in pre-order; iterative, so deep values work."""
    out = []
    stack = [((), value)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        for seg, child in reversed(children(node)):
            stack.append((path + (seg,), child))
    return out


def count_nodes(value) -> int:
    count = 0
    stack = [value]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(c for _, c in children(node))
    return count


def render(path) -> str:
    """Text rendering of a path, as `jlogic query` prints it."""
    return "/".join(str(seg) for seg in path) if path else "(root)"


# -- validate: the well-typed definition g -------------------------------------


def g_valid(doc) -> bool:
    """Root verdict of `box(/items/) g`, where g accepts objects whose
    k-keyed children satisfy g, arrays whose elements do, strings in
    [a-z]+ and ints up to 100."""
    if not isinstance(doc, dict) or "items" not in doc:
        return True
    stack = [doc["items"]]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(c for k, c in node.items() if KEY_RE.fullmatch(k))
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, str):
            if not STR_RE.fullmatch(node):
                return False
        elif node > 100:
            return False
    return True


# -- query: the navigational formula families ----------------------------------


def jnl_text(spec) -> str:
    """JNL text of a query formula spec."""
    f = spec["f"]
    if f == "true":
        return "true"
    if f == "key":
        return f'[@"{spec["k"]}"]'
    if f == "keyre":
        return f'[@/{spec["re"]}/]'
    if f == "idx":
        return f'[#{spec["i"]}]'
    if f == "eqc":
        return f'eq(@"{spec["k"]}", {json.dumps(spec["c"], separators=(",", ":"))})'
    if f == "eqpp":
        return f'eq(@"{spec["a"]}", @"{spec["b"]}")'
    if f == "closure":
        return f'[(@/{spec["re"]}/)* / @"{spec["k"]}"]'
    raise ValueError(f"unknown formula family {f!r}")


def query_members(doc, spec) -> set:
    """Paths of the nodes where the formula spec holds."""
    nodes = walk(doc)
    f = spec["f"]
    if f == "closure":
        step = re.compile(spec["re"])
        key = spec["k"]
        reach = {}
        for path, node in reversed(nodes):  # children before parents
            ok = isinstance(node, dict) and key in node
            if not ok and isinstance(node, dict):
                ok = any(step.fullmatch(k) and reach[path + (k,)] for k in node)
            reach[path] = ok
        return {p for p, ok in reach.items() if ok}
    if f == "true":
        test = lambda n: True
    elif f == "key":
        test = lambda n: isinstance(n, dict) and spec["k"] in n
    elif f == "keyre":
        pat = re.compile(spec["re"])
        test = lambda n: isinstance(n, dict) and any(pat.fullmatch(k) for k in n)
    elif f == "idx":
        test = lambda n: isinstance(n, list) and len(n) >= spec["i"]
    elif f == "eqc":
        k, c = spec["k"], spec["c"]
        test = lambda n: isinstance(n, dict) and k in n and n[k] == c
    elif f == "eqpp":
        a, b = spec["a"], spec["b"]
        test = lambda n: isinstance(n, dict) and a in n and b in n and n[a] == n[b]
    else:
        raise ValueError(f"unknown formula family {f!r}")
    return {p for p, node in nodes if test(node)}


# -- reason: propositional and quantified formulas -----------------------------


def cnf_sat(clauses) -> bool:
    """Truth-table satisfiability of clauses of (variable, positive) literals."""
    variables = sorted({v for clause in clauses for v, _ in clause})
    for bits in itertools.product((True, False), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(any(assignment[v] == pos for v, pos in clause) for clause in clauses):
            return True
    return False


def qbf_true(prefix, clauses) -> bool:
    """Brute-force truth of a closed prefix formula over clauses."""

    def go(i, assignment):
        if i == len(prefix):
            return all(any(assignment[v] == pos for v, pos in clause) for clause in clauses)
        quant, var = prefix[i]
        branches = [go(i + 1, {**assignment, var: val}) for val in (True, False)]
        return any(branches) if quant == "exists" else all(branches)

    return go(0, {})


def cnf_witness_ok(witness, clauses, marker="w") -> bool:
    """Whether a 3CNF-encoding witness picks a consistent satisfying
    assignment: an array under a variable's key reads true, an object with
    the marker key reads false."""
    if not isinstance(witness, dict):
        return False
    assignment = {}
    for var in {v for clause in clauses for v, _ in clause}:
        child = witness.get(var)
        truthy = isinstance(child, list) and len(child) >= 1
        falsy = isinstance(child, dict) and marker in child
        if truthy == falsy:
            return False
        assignment[var] = truthy
    return all(any(assignment[v] == pos for v, pos in clause) for clause in clauses)


def qbf_witness_ok(witness, prefix, clauses) -> bool:
    """Whether a QBF-encoding witness is a winning strategy: each variable
    position is an X edge, an existential one picks exactly one of T and F,
    a universal one takes both, and every assignment path satisfies the
    clauses."""
    quants = [q for q, _ in prefix]
    names = [v for _, v in prefix]

    def go(node, k, assignment):
        if k == len(prefix):
            return all(any(assignment[v] == pos for v, pos in clause) for clause in clauses)
        if not isinstance(node, dict) or not isinstance(node.get("X"), dict):
            return False
        pos = node["X"]
        branches = [(val, pos[key]) for key, val in (("T", True), ("F", False)) if key in pos]
        if len(branches) != (1 if quants[k] == "exists" else 2):
            return False
        return all(go(child, k + 1, {**assignment, names[k]: val}) for val, child in branches)

    return go(witness, 0, {})


def witness_ok(witness, check) -> bool:
    """Whether a witness has the property a constructed sat case names."""
    prop = check["prop"]
    if prop == "min_keys":
        return isinstance(witness, dict) and len(witness) >= check["k"]
    if prop == "arr_len":
        return isinstance(witness, list) and len(witness) == check["k"]
    if prop == "int_range":
        return (isinstance(witness, int) and not isinstance(witness, bool)
                and check["lo"] <= witness <= check["hi"])
    if prop == "str_re":
        return isinstance(witness, str) and re.fullmatch(check["re"], witness) is not None
    if prop == "key_int_max":
        child = witness.get(check["k"]) if isinstance(witness, dict) else None
        return isinstance(child, int) and not isinstance(child, bool) and child <= check["max"]
    if prop == "cnf":
        return cnf_witness_ok(witness, check["clauses"])
    if prop == "qbf":
        return qbf_witness_ok(witness, check["prefix"], check["clauses"])
    raise ValueError(f"unknown witness property {prop!r}")


# -- reason: schema specs ---------------------------------------------------------
#
# A spec is a nested list: ["int", lo, hi, mult], ["str", pattern],
# ["obj", [[key, spec], ...], required_keys, extra_spec_or_None],
# ["arr", item_spec_or_None], ["anyOf", [specs]], ["allOf", [specs]],
# ["not", spec], ["enum", [consts]], and, for the same(...)-only fragment,
# ["same", const], ["dia_key", key, spec], ["box_key", regex, spec],
# ["dia_idx", i, spec], ["box_idx", spec], ["and", a, b], ["or", a, b],
# ["neg", spec].


def spec_holds(spec, value) -> bool:
    tag = spec[0]
    if tag == "int":
        _, lo, hi, mult = spec
        return (isinstance(value, int) and (lo is None or value >= lo)
                and (hi is None or value <= hi) and (not mult or value % mult == 0))
    if tag == "str":
        return isinstance(value, str) and (spec[1] is None
                                           or re.fullmatch(spec[1], value) is not None)
    if tag == "obj":
        _, props, required, extra = spec
        if not isinstance(value, dict):
            return False
        named = dict(props)
        if any(k not in value for k in required):
            return False
        for k, child in value.items():
            if k in named:
                if not spec_holds(named[k], child):
                    return False
            elif extra is not None and not spec_holds(extra, child):
                return False
        return True
    if tag == "arr":
        return isinstance(value, list) and (spec[1] is None
                                            or all(spec_holds(spec[1], c) for c in value))
    if tag == "anyOf":
        return any(spec_holds(s, value) for s in spec[1])
    if tag == "allOf":
        return all(spec_holds(s, value) for s in spec[1])
    if tag in ("not", "neg"):
        return not spec_holds(spec[1], value)
    if tag == "enum":
        return any(value == c for c in spec[1])
    if tag == "same":
        return value == spec[1]
    if tag == "dia_key":
        return isinstance(value, dict) and spec[1] in value and spec_holds(spec[2], value[spec[1]])
    if tag == "box_key":
        return not isinstance(value, dict) or all(
            spec_holds(spec[2], c) for k, c in value.items() if re.fullmatch(spec[1], k))
    if tag == "dia_idx":
        return (isinstance(value, list) and len(value) >= spec[1]
                and spec_holds(spec[2], value[spec[1] - 1]))
    if tag == "box_idx":
        return not isinstance(value, list) or all(spec_holds(spec[1], c) for c in value)
    if tag == "and":
        return spec_holds(spec[1], value) and spec_holds(spec[2], value)
    if tag == "or":
        return spec_holds(spec[1], value) or spec_holds(spec[2], value)
    raise ValueError(f"unknown spec {tag!r}")


# -- reason: recursive definitions ------------------------------------------------


def find_cycle(symbols, edges):
    """A cycle [s, ..., s] in the directed graph, or None."""
    succ = {s: sorted(d for src, d in edges if src == s) for s in symbols}
    color = dict.fromkeys(symbols, 0)

    def visit(s, trail):
        color[s] = 1
        trail.append(s)
        for t in succ[s]:
            if color[t] == 1:
                return trail[trail.index(t):] + [t]
            if color[t] == 0:
                found = visit(t, trail)
                if found:
                    return found
        trail.pop()
        color[s] = 2
        return None

    for s in symbols:
        if color[s] == 0:
            found = visit(s, [])
            if found:
                return found
    return None


def is_cycle(cycle, edges) -> bool:
    edge_set = {tuple(e) for e in edges}
    return (len(cycle) >= 2 and cycle[0] == cycle[-1]
            and all((a, b) in edge_set for a, b in zip(cycle, cycle[1:])))
