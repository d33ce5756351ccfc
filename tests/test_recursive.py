import random
import re
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.tree as jt
from jlogic.cli import main
from jlogic.decision import (Bounds, automaton_accepts, complement, jsl_to_automaton,
                             recursive_to_automaton, sat_bounded)
from jlogic.errors import IllFormedRecursion, MalformedFormula, UnfoldSizeExceeded
from jlogic.tree import height, parse_document
from helpers import (formula_size, is_well_formed, oracle_holds, oracle_jsl, random_jnl_unary,
                     random_jsl, random_tree, random_value, random_well_formed,
                     recursive_sat_sets)

EVEN_PATHS = ("let g1 = box(/.*/) g2; "
              "let g2 = dia(/.*/) true && box(/.*/) g1; in g1")
COMPLETE_BINARY = ("let g = !(dia(1) true) || "
                   "(minCh(2) && maxCh(2) && !unique && box(1:2) g); in g")


def even():
    return rec.parse_recursive(EVEN_PATHS)


def binary_tree_expr():
    return rec.parse_recursive(COMPLETE_BINARY)


# -- parsing and construction -----------------------------------------------------


def test_parse_round_trip():
    e = even()
    assert rec.parse_recursive(rec.to_text(e)) == e


def test_parse_bare_formula():
    e = rec.parse_recursive("int && min(3)")
    assert e.definitions == ()
    assert e.base == jsl.parse_jsl("int && min(3)")


def test_undefined_symbol_rejected():
    with pytest.raises(MalformedFormula):
        rec.parse_recursive("let g1 = box(/.*/) g2; in g1")


def test_duplicate_definition_rejected():
    with pytest.raises(MalformedFormula):
        rec.parse_recursive("let g = true; let g = int; in g")


# -- precedence graph ---------------------------------------------------------------


def test_self_negation_has_self_loop():
    e = rec.parse_recursive("let g1 = !g1; in g1")
    assert rec.precedence_graph(e).edges == frozenset({("g1", "g1")})
    assert not is_well_formed(e)
    assert rec.find_cycle(e) == ["g1", "g1"]


def test_even_paths_graph_has_no_edges():
    e = even()
    assert rec.precedence_graph(e).edges == frozenset()
    assert is_well_formed(e)


def test_empty_definitions_well_formed():
    e = rec.parse_recursive("in true")
    assert rec.precedence_graph(e).edges == frozenset()
    assert is_well_formed(e)


def test_boolean_connectives_do_not_shield():
    e = rec.parse_recursive("let a = b && true; let b = box(/.*/) a; in a")
    assert rec.precedence_graph(e).edges == frozenset({("a", "b")})
    assert is_well_formed(e)
    bad = rec.parse_recursive("let a = !(b || true); let b = a && int; in a")
    assert rec.precedence_graph(bad).edges == frozenset({("a", "b"), ("b", "a")})
    assert not is_well_formed(bad)


# -- dependency order ----------------------------------------------------------------


def random_dag(rng, size):
    """Successor lists over 0..size-1, keys in shuffled order, every edge
    pointing to a smaller number."""
    nodes = list(range(size))
    rng.shuffle(nodes)
    return {n: rng.sample(range(n), min(n, rng.randint(0, 3))) for n in nodes}


def test_dependency_order_puts_successors_first():
    rng = random.Random(31)
    for _ in range(200):
        succ = random_dag(rng, rng.randint(0, 40))
        order, cycle = rec.dependency_order(succ)
        assert cycle is None
        assert sorted(order) == sorted(succ)
        position = {n: i for i, n in enumerate(order)}
        assert all(position[t] < position[n] for n, ts in succ.items() for t in ts)


def test_dependency_order_returns_a_real_cycle():
    rng = random.Random(32)
    for _ in range(200):
        succ = random_dag(rng, rng.randint(1, 40))
        ring = rng.sample(sorted(succ), rng.randint(1, min(5, len(succ))))
        for s, t in zip(ring, ring[1:] + ring[:1]):
            succ[s].append(t)
        order, cycle = rec.dependency_order(succ)
        assert order is None
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        assert all(t in succ[s] for s, t in zip(cycle, cycle[1:]))


def test_dependency_order_long_chain_written_last_first():
    size = 100_000
    succ = {i: [i + 1] for i in range(size - 1)}
    succ[size - 1] = []
    assert rec.dependency_order(succ) == (list(range(size - 1, -1, -1)), None)
    succ[size - 1] = [0]
    assert rec.dependency_order(succ) == (None, list(range(size)) + [0])


def fresh(text, tag):
    """``text`` with every symbol ``g…`` renamed ``tag…``: an expression no
    other test builds, so nothing is kept on it yet."""
    expr = rec.parse_recursive(re.sub(r"\bg(\d*)\b", rf"{tag}\1", text))
    assert not vars(expr), tag
    return expr


def test_one_graph_build_per_call(monkeypatch):
    # the first call on an expression builds its graph once; what it
    # derives is kept on the expression, so a repeat builds none, unless
    # it depends on more than the expression (unfold's height, the search)
    builds = []
    successors = rec._successors
    monkeypatch.setattr(rec, "_successors", lambda expr: builds.append(expr) or successors(expr))
    doc = parse_document('{"a": [1, {"b": []}]}')
    calls = {
        "eval_recursive": (lambda e: rec.eval_recursive(e, doc), 0),
        "unfold": (lambda e: rec.unfold(e, 3), 1),
        "recursive_to_automaton": (recursive_to_automaton, 0),
    }
    for name, (call, again) in calls.items():
        expr = fresh(EVEN_PATHS, f"graph_{name}_")
        builds.clear()
        first = call(expr)
        assert len(builds) == 1, name
        builds.clear()
        assert call(expr) == first, name
        assert len(builds) == again, name
    unsat = fresh("let g = box(/.*/) g && int; in g && str", "graph_unsat")
    for expr, satisfiable in ((unsat, False), (fresh(EVEN_PATHS, "graph_sat"), True)):
        builds.clear()
        assert sat_bounded(expr, Bounds(2, 2, 2)).satisfiable is satisfiable
        # a witness is re-validated through eval_recursive, whose first
        # call on the expression builds its own
        assert len(builds) == 1 + satisfiable
        builds.clear()
        assert sat_bounded(expr, Bounds(2, 2, 2)).satisfiable is satisfiable
        assert len(builds) == 1


def test_a_second_evaluation_specializes_nothing(monkeypatch):
    calls = []
    specialize = jsl.specialize
    monkeypatch.setattr(jsl, "specialize",
                        lambda *args: calls.append(args) or specialize(*args))
    expr = fresh(EVEN_PATHS, "again")
    docs = [parse_document(text) for text in ('{"a": {"b": 1}}', '{"a": {}}', "[1, {}]")]
    assert [rec.eval_recursive(expr, doc) for doc in docs] == [
        oracle_jsl(doc, 0, rec.unfold(expr, height(doc))) for doc in docs]
    assert len(calls) == 2 * len(jt.NodeKind), calls  # two live definitions, once per kind
    calls.clear()
    for doc in docs + [parse_document('{"c": [[], {"d": {}}]}')]:
        rec.eval_recursive(expr, doc)
    assert calls == []


def test_eval_recursive_compiles_only_reached_definitions(monkeypatch):
    compiled = []
    compile_formula = jsl.compile_formula
    monkeypatch.setattr(jsl, "compile_formula",
                        lambda tree, phi, tables: compiled.append(phi)
                        or compile_formula(tree, phi, tables))
    expr = rec.parse_recursive("let used = int || obj && box(/.*/) used; "
                               "let unused = dia(/x/) unused || pattern(/q/); in used")
    for text, valid in (('{"a": "q", "b": {"c": 2}}', False), ('{"a": {"b": 1}}', True)):
        compiled.clear()
        assert rec.eval_recursive(expr, parse_document(text)) is valid
        assert compiled
        assert not any(f == jsl.SymbolRef("unused") or isinstance(f, jsl.Atom)
                       and isinstance(f.test, jsl.PatternTest)
                       for phi in compiled for f in jsl.subformulas(phi))


def test_cycle_among_unused_definitions_is_ill_formed(tmp_path, capsys):
    expr = rec.parse_recursive("let a = !b; let b = a || str; in int")
    with pytest.raises(IllFormedRecursion):
        rec.eval_recursive(expr, parse_document("5"))
    five, schema = tmp_path / "five.json", tmp_path / "cyclic.schema.json"
    five.write_text("5")
    schema.write_text('{"definitions": {"a": {"not": {"$ref": "#/definitions/b"}},'
                      ' "b": {"anyOf": [{"$ref": "#/definitions/a"}, {"type": "string"}]}},'
                      ' "type": "number"}')
    for via in ([], ["--via", "jsl"]):
        assert main(["validate", str(five), str(schema)] + via) == 2
        assert capsys.readouterr() == ("", "error: cyclic definitions: ['a', 'b', 'a']\n")


# -- unfolding -----------------------------------------------------------------------


def test_unfold_even_paths_height_four():
    expected = jsl.parse_jsl(
        "box(/.*/)( dia(/.*/)true && box(/.*/)box(/.*/)"
        "( dia(/.*/)true && box(/.*/)box(/.*/) !true ) )")
    assert rec.unfold(even(), 4) == expected


def test_unfold_symbol_free_base_unchanged():
    base = jsl.parse_jsl("int && dia(1) true")
    e = rec.make_recursive([("g", jsl.TOP)], base)
    for h in range(4):
        assert rec.unfold(e, h) == base


def test_unfold_output_is_symbol_free():
    rng = random.Random(15)
    for e in random_well_formed(rng, 40):
        u = rec.unfold(e, rng.randint(0, 3))
        assert not jsl.symbols_used(u)


def test_unfold_ill_formed_rejected():
    with pytest.raises(IllFormedRecursion):
        rec.unfold(rec.parse_recursive("let g1 = !g1; in g1"), 2)


def test_unfold_size_cap():
    e = rec.parse_recursive(
        "let g = (box(/.*/) g && box(/.*/) g) || dia(/.*/) g; in g")
    with pytest.raises(UnfoldSizeExceeded):
        rec.unfold(e, 30, size_cap=5_000)


def test_unfold_a_deep_formula():
    # the unfolding runs on `_node.walk`'s own stack, not Python's
    phi = jsl.parse_jsl('dia("a") ' * 3000 + "true")
    assert rec.unfold(rec.RecursiveJslExpr((), phi), 5) == phi
    with pytest.raises(UnfoldSizeExceeded):
        rec.unfold(rec.RecursiveJslExpr((), phi), 5, size_cap=100)


# -- evaluation ----------------------------------------------------------------------


def test_even_paths_on_chains():
    e = even()
    assert rec.eval_recursive(e, parse_document('{"a":{"b":0}}'))
    assert not rec.eval_recursive(e, parse_document('{"a":0}'))
    assert rec.eval_recursive(e, parse_document("{}"))


def test_complete_binary_examples():
    e = binary_tree_expr()
    assert rec.eval_recursive(e, parse_document("[[],[]]"))
    assert not rec.eval_recursive(e, parse_document("[[],[[],[]]]"))


def test_base_top_accepts_everything():
    rng = random.Random(16)
    e = rec.make_recursive([("g", jsl.Atom(jsl.KindTest(jt.NodeKind.OBJ)))], jsl.TOP)
    for _ in range(20):
        assert rec.eval_recursive(e, random_tree(rng))


def test_eval_equals_unfold_oracle_on_random_instances():
    rng = random.Random(17)
    for e in random_well_formed(rng, 100):
        for _ in range(3):
            t = random_tree(rng, rng.randint(0, 4), 3)
            expected = oracle_jsl(t, 0, rec.unfold(e, height(t)))
            assert rec.eval_recursive(e, t) == expected, rec.to_text(e)
            sets = recursive_sat_sets(e, t)
            for name, _ in e.definitions:
                unfolded = rec.unfold(rec.make_recursive(e.definitions, jsl.SymbolRef(name)),
                                      height(t))
                assert sets[name] == {n for n in t.nodes() if oracle_jsl(t, n, unfolded)}, \
                    (rec.to_text(e), name)


def _chains(max_height):
    docs = ["0"]
    for h in range(1, max_height + 1):
        docs.append('{"a":' * h + "0" + "}" * h)
    return [parse_document(d) for d in docs]


def test_even_paths_exhaustive_small_family():
    # the definitions quantify over object edges, so the family is the
    # exhaustive universe of object trees over keys {a, b} up to height 3,
    # extended by every single-key chain up to height 4
    e = even()

    def universe(h):
        if h == 0:
            return [0, {}]
        smaller = universe(h - 1)
        out = list(smaller)
        for key_set in (("a",), ("b",), ("a", "b")):
            if len(key_set) == 1:
                out.extend({key_set[0]: v} for v in smaller)
            else:
                out.extend({"a": v1, "b": v2} for v1 in smaller for v2 in smaller)
        return out

    def all_key_paths_even(value, depth=0):
        if not isinstance(value, dict) or not value:
            return depth % 2 == 0
        return all(all_key_paths_even(v, depth + 1) for v in value.values())

    family = universe(3) + [jt.to_python(c) for c in _chains(4)]
    seen = set()
    for value in family:
        text = jt.serialize(jt.from_python(value))
        if text in seen:
            continue
        seen.add(text)
        assert rec.eval_recursive(e, jt.from_python(value)) == all_key_paths_even(value), text


def test_complete_binary_exhaustive_family():
    e = binary_tree_expr()

    def is_complete(value):
        if not isinstance(value, list):
            return False
        if not value:
            return True
        return (len(value) == 2 and value[0] == value[1]
                and is_complete(value[0]) and is_complete(value[1]))

    def arrays(h):
        if h == 0:
            return [[]]
        smaller = arrays(h - 1)
        out = list(smaller)
        for a in smaller:
            out.append([a])
            out.append([a, a])
            out.append([a, a, a])
            for b in smaller:
                if b != a:
                    out.append([a, b])
        return out

    for value in arrays(3):
        t = jt.from_python(value)
        assert rec.eval_recursive(e, t) == is_complete(value), value


def test_circuit_encoding_agrees_with_direct_evaluation():
    # gate values as definitions over a document {"INi": "T"/"F"}
    import jlogic.regex as rx
    rng = random.Random(18)

    def random_circuit(n_inputs, n_gates):
        gates = []
        for g in range(n_gates):
            op = rng.choice(["and", "or", "not"])
            pool = [("in", i) for i in range(n_inputs)] + [("gate", j) for j in range(g)]
            args = [rng.choice(pool) for _ in range(1 if op == "not" else 2)]
            gates.append((op, args))
        return gates

    def eval_circuit(gates, inputs):
        values = []
        for op, args in gates:
            vals = [inputs[i] if kind == "in" else values[i] for kind, i in args]
            values.append(not vals[0] if op == "not" else
                          all(vals) if op == "and" else any(vals))
        return values[-1]

    def encode(gates):
        def ref(kind, i):
            if kind == "in":
                return jsl.DiaKey(rx.word_regex(f"IN{i+1}"),
                                  jsl.Atom(jsl.PatternTest(rx.word_regex("T"))))
            return jsl.SymbolRef(f"g{i}")

        defs = []
        for gi, (op, args) in enumerate(gates):
            parts = [ref(*a) for a in args]
            if op == "not":
                body = jsl.Not(parts[0])
            elif op == "and":
                body = jsl.And(parts[0], parts[1])
            else:
                body = jsl.Or(parts[0], parts[1])
            defs.append((f"g{gi}", body))
        return rec.make_recursive(defs, jsl.SymbolRef(f"g{len(gates)-1}"))

    for _ in range(30):
        n_inputs = rng.randint(1, 4)
        gates = random_circuit(n_inputs, rng.randint(1, 8))
        inputs = [rng.random() < 0.5 for _ in range(n_inputs)]
        doc = jt.from_python({f"IN{i+1}": ("T" if v else "F")
                              for i, v in enumerate(inputs)})
        expr = encode(gates)
        assert is_well_formed(expr)
        assert rec.eval_recursive(expr, doc) == eval_circuit(gates, inputs)


def test_strata_restricted_to_exact_heights():
    e = even()
    t = parse_document('{"a":{"b":{"c":0}},"d":0}')
    sets = recursive_sat_sets(e, t)
    heights = [0] * t.size  # children have larger ids than their parent
    for n in reversed(t.nodes()):
        heights[n] = 1 + max((heights[c] for c in t.children(n)), default=-1)
    for name, nodes in sets.items():
        assert all(0 <= heights[n] <= height(t) for n in nodes)


@pytest.mark.parametrize("depth", [5000, 5001])
def test_deep_document_bottom_up_paths(depth, tmp_path):
    # every bottom-up path runs with no recursion on document depth; g1
    # holds where the rest of the chain has even length
    text = '{"a":' * depth + "0" + "}" * depth
    expr = rec.parse_recursive(EVEN_PATHS)
    doc = parse_document(text)
    rjsl = tmp_path / "even.rjsl"
    rjsl.write_text(EVEN_PATHS)
    path = tmp_path / "deep.json"
    path.write_text(text)
    auto = recursive_to_automaton(expr)
    sets = recursive_sat_sets(expr, doc)
    verdicts = {
        "eval_recursive": rec.eval_recursive(expr, doc),
        "recursive_sat_sets": 0 in sets["g1"],
        "automaton": automaton_accepts(auto, doc),
        "complement": not automaton_accepts(complement(auto), doc),
        "cli validate": main(["validate", str(path), str(rjsl), "--logic", "rjsl"]) == 0,
        "cli automaton": main(["automaton", str(path), "--formula-file", str(rjsl),
                               "--logic", "rjsl"]) == 0,
    }
    assert verdicts == dict.fromkeys(verdicts, depth % 2 == 0)
    assert sets["g1"] == {n for n in doc.nodes() if (depth - n) % 2 == 0}
    assert sets["g2"] == {n for n in doc.nodes() if (depth - n) % 2 == 1}


# definitions written last-first, first-to-last, and a DAG whose every
# definition uses the one before twice (2^29 paths through the bodies)
LONG_DEFINITION_LISTS = {
    "reversed chain": " ".join(f"let g{i} = g{i + 1};" for i in range(2999))
    + " let g2999 = int; in g0",
    "forward chain": "let g0 = int; " + " ".join(f"let g{i} = g{i - 1};" for i in range(1, 3000))
    + " in g2999",
    "doubling dag": "let g0 = int; "
    + " ".join(f"let g{i} = g{i - 1} || g{i - 1};" for i in range(1, 30)) + " in g29",
}


@pytest.mark.parametrize("name", sorted(LONG_DEFINITION_LISTS))
def test_long_definition_lists_through_cli(name, tmp_path, capsys):
    doc = tmp_path / "five.json"
    doc.write_text("5")
    rjsl = tmp_path / "e.rjsl"
    rjsl.write_text(LONG_DEFINITION_LISTS[name])
    rows = {
        "check-wf": (["check-wf", "--formula-file", str(rjsl)], "WELL-FORMED"),
        "validate": (["validate", str(doc), str(rjsl), "--logic", "rjsl"], "VALID"),
        "automaton": (["automaton", str(doc), "--formula-file", str(rjsl), "--logic", "rjsl"],
                      "ACCEPT"),
    }
    for command, (argv, verdict) in rows.items():
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (rc, captured.out.splitlines()[-1:]) == (0, [verdict]), (command, captured.err)
        if name == "doubling dag" and command != "check-wf":
            assert elapsed < 1.0, (command, elapsed)


def doubling_dag(count, first="dia(/.*/) true"):
    return rec.parse_recursive(
        f"let g0 = {first}; "
        + " ".join(f"let g{i} = g{i - 1} || g{i - 1};" for i in range(1, count))
        + f" in g{count - 1}")


def test_specialized_fill_runs_only_object_bodies(monkeypatch):
    # 2^29 paths through the bodies, all ending in a key modality: every
    # definition is false at arrays, strings and numbers, so only the
    # objects (ids 0, 3 and 5) call a body, once per definition
    expr = doubling_dag(30)
    doc = parse_document('{"a": [1, {"b": []}], "c": {}}')
    tables, calls = {name: bytearray(doc.size) for name, _ in expr.definitions}, []

    def counted(tree, phi, symbols):
        body = jsl.compile_formula(tree, phi, symbols)

        def call(n):
            calls.append(n)
            return body(n)
        return call

    bodies = dict(expr.definitions)
    definitions = [(name, bodies[name]) for name in rec._topo_order(expr)]
    with monkeypatch.context() as patch:  # count the calls of the bodies fill_tables compiles
        patch.setattr(rec, "jsl", SimpleNamespace(specialize=jsl.specialize,
                                                  compile_formula=counted))
        rec.fill_tables(doc, definitions, tables, range(doc.size - 1, -1, -1))
    assert sorted(Counter(calls).items()) == [(0, 30), (3, 30), (5, 30)]
    assert {doc.kind(n) for n in calls} == {jt.NodeKind.OBJ}
    assert tables == rec._sat_tables(expr, doc)
    assert all(list(table) == [1, 0, 0, 1, 0, 0] for table in tables.values())
    assert rec.eval_recursive(expr, doc)


@pytest.mark.parametrize("first, per_definition", [("dia(/.*/) true", 3), ("int", 0)])
def test_specialization_linear_in_definitions(first, per_definition):
    # the doubling DAG again, at growing lengths: a symbol folds to its
    # definition's constant and is never expanded, so each specialized body
    # keeps at most three nodes (g(i-1) || g(i-1) at objects)
    for count in (30, 60, 120):
        expr = doubling_dag(count, first)
        consts, size = {kind: {} for kind in jt.NodeKind}, 0
        for name in rec._topo_order(expr):
            for kind in jt.NodeKind:
                f = jsl.specialize(dict(expr.definitions)[name], kind, consts[kind])
                if isinstance(f, bool):
                    consts[kind][name] = f
                else:
                    size += formula_size(f)
        assert size == max(0, per_definition * count - 1), (first, count)


# Where each folding rule of jsl.specialize applies: the kinds at which an
# atom or a modality turns into a constant.
LEAVES = {jt.NodeKind.STR, jt.NodeKind.INT}
ALL_KINDS = set(jt.NodeKind)
EXPECTED_FOLDS = {
    "KindTest": ALL_KINDS,
    "UniqueTest": ALL_KINDS - {jt.NodeKind.ARR},
    "PatternTest": ALL_KINDS - {jt.NodeKind.STR},
    "MinTest": ALL_KINDS - {jt.NodeKind.INT},
    "MaxTest": ALL_KINDS - {jt.NodeKind.INT},
    "MultOfTest": ALL_KINDS - {jt.NodeKind.INT},
    "MinChTest": LEAVES,
    "MaxChTest": LEAVES,
    "SameAsTest": ALL_KINDS,  # at every kind but the constant's own
    "BoxKey": ALL_KINDS - {jt.NodeKind.OBJ},
    "DiaKey": ALL_KINDS - {jt.NodeKind.OBJ},
    "BoxIdx": ALL_KINDS - {jt.NodeKind.ARR},
    "DiaIdx": ALL_KINDS - {jt.NodeKind.ARR},
}


def test_specialize_agrees_with_oracle_at_every_node():
    """Each definition and base of random recursive expressions,
    specialized per kind in dependency order (as the fill does), against
    the oracle on its unfolding, at every node of that kind.  Symbols read
    reference tables built from the oracle, not the evaluator's."""
    rng = random.Random(2024)
    folds = {name: set() for name in EXPECTED_FOLDS}
    for e in random_well_formed(rng, 120):
        bodies = dict(e.definitions)
        for t in [random_tree(rng) for _ in range(3)]:
            h = height(t)
            unfolded = {name: rec.unfold(rec.make_recursive(e.definitions, jsl.SymbolRef(name)), h)
                        for name in bodies}
            tables = {name: bytearray(oracle_jsl(t, n, phi) for n in t.nodes())
                      for name, phi in unfolded.items()}
            consts = {kind: {} for kind in jt.NodeKind}
            for name in rec._topo_order(e) + [None]:
                phi = e.base if name is None else bodies[name]
                meaning = rec.unfold(e, h) if name is None else unfolded[name]
                for kind in jt.NodeKind:
                    f = jsl.specialize(phi, kind, consts[kind])
                    if isinstance(f, bool) and name is not None:
                        consts[kind][name] = f
                    holds = (lambda n, f=f: f) if isinstance(f, bool) \
                        else jsl.compile_formula(t, f, tables)
                    for n in t.nodes():
                        if t.kind(n) is kind:
                            assert bool(holds(n)) == oracle_jsl(t, n, meaning), \
                                (rec.to_text(e), name, kind, n)
        for phi in list(bodies.values()) + [e.base]:
            for sub in jsl.subformulas(phi):
                rule = type(sub.test if isinstance(sub, jsl.Atom) else sub).__name__
                for kind in jt.NodeKind:
                    if rule in folds and isinstance(jsl.specialize(sub, kind), bool):
                        folds[rule].add(kind)
    assert folds == EXPECTED_FOLDS


@pytest.mark.parametrize("text, kind, expected", [
    ("minCh(0)", jt.NodeKind.STR, True),
    ("minCh(1)", jt.NodeKind.INT, False),
    ("maxCh(0)", jt.NodeKind.INT, True),
    ("minCh(0)", jt.NodeKind.OBJ, "minCh(0)"),
    ("same([1])", jt.NodeKind.ARR, "same([1])"),
    ("same([1])", jt.NodeKind.OBJ, False),
    ("unique", jt.NodeKind.OBJ, False),
    ("obj && box(/a+/) int || str && pattern(/x/)", jt.NodeKind.OBJ, "box(/a+/) int"),
    ("obj && box(/a+/) int || str && pattern(/x/)", jt.NodeKind.ARR, False),
    ("!(int && max(3)) && true", jt.NodeKind.INT, "!max(3)"),
    ("dia(/a+/) str || box(1:*) int", jt.NodeKind.OBJ, True),
    ("dia(/a+/) str && box(1:*) int", jt.NodeKind.OBJ, "dia(/a+/) str"),
    ("dia(2) str && box(/a+/) g", jt.NodeKind.ARR, "dia(2) str"),
])
def test_specialize_examples(text, kind, expected):
    f = jsl.specialize(jsl.parse_jsl(text, allow_symbols=True), kind)
    assert (f if isinstance(f, bool) else jsl.to_text(f)) == expected


def test_specialize_folds_only_unshielded_symbols():
    phi = jsl.parse_jsl("g && (h || box(/a+/) g) && !dia(1) h", allow_symbols=True)
    arr, obj = jt.NodeKind.ARR, jt.NodeKind.OBJ
    assert jsl.to_text(jsl.specialize(phi, obj, {"g": True, "h": False})) == 'box(/a+/) g'
    assert jsl.specialize(phi, obj, {"g": False}) is False
    assert jsl.to_text(jsl.specialize(phi, arr, {"g": True})) == "!dia(1) h"
    assert jsl.specialize(phi, jt.NodeKind.STR, {"g": True}) is True


def test_fill_keeps_to_the_given_nodes():
    """Membership fills the tables over the node's subtree only: ids
    outside it keep their 0, ids inside agree with the full fill."""
    rng = random.Random(17)
    outside = 0
    for e in random_well_formed(rng, 60):
        t = random_tree(rng, 4)
        full = rec._sat_tables(e, t)
        for n in t.nodes():
            last = n
            while t.children(last):
                last = t.children(last)[-1]
            part = rec._sat_tables(e, t, nodes=range(last, n - 1, -1))
            for name, table in part.items():
                assert table[n:last + 1] == full[name][n:last + 1], rec.to_text(e)
                assert not any(table[:n]) and not any(table[last + 1:]), rec.to_text(e)
                outside += any(full[name][:n]) or any(full[name][last + 1:])
    assert outside > 100  # the full fill sets many ids outside the subtree


def test_cut_expressions_agree_with_the_oracles(monkeypatch):
    # With closures allowed to nest two levels, nearly every formula is cut
    # into definitions; each evaluator still agrees with the oracles.
    monkeypatch.setattr(rec, "MAX_CLOSURE_NESTING", 2)
    rng, cut = random.Random(21), 0
    for _ in range(200):
        phi, t = random_jsl(rng, 4), random_tree(rng, 3)
        expr = rec.cut(rec.RecursiveJslExpr((), phi))
        cut += bool(expr.definitions)
        assert all(f._nesting <= 2 for _, f in expr.definitions + (("", expr.base),))
        expected = oracle_jsl(t, 0, phi)
        assert jsl.validate(t, phi) == expected, jsl.to_text(phi)
        assert automaton_accepts(jsl_to_automaton(phi), t) == expected, jsl.to_text(phi)
        u = random_jnl_unary(rng, 3)
        assert jnl.eval_unary_ids(t, u) == {n for n in t.nodes() if oracle_holds(t, u, n)}
    for e in random_well_formed(rng, 100):
        t = random_tree(rng, 3)
        assert rec.eval_recursive(e, t) == oracle_jsl(t, 0, rec.unfold(e, height(t))), \
            rec.to_text(e)
    assert cut > 150
