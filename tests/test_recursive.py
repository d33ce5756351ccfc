import random
import time

import pytest

import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.tree as jt
from jlogic.cli import main
from jlogic.decision import automaton_accepts, complement, recursive_to_automaton
from jlogic.errors import IllFormedRecursion, MalformedFormula, UnfoldSizeExceeded
from jlogic.tree import height, parse_document
from helpers import random_jsl, random_tree, random_value, random_well_formed

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
    assert not rec.is_well_formed(e)
    assert rec.find_cycle(e) == ["g1", "g1"]


def test_even_paths_graph_has_no_edges():
    e = even()
    assert rec.precedence_graph(e).edges == frozenset()
    assert rec.is_well_formed(e)


def test_empty_definitions_well_formed():
    e = rec.parse_recursive("in true")
    assert rec.precedence_graph(e).edges == frozenset()
    assert rec.is_well_formed(e)


def test_boolean_connectives_do_not_shield():
    e = rec.parse_recursive("let a = b && true; let b = box(/.*/) a; in a")
    assert rec.precedence_graph(e).edges == frozenset({("a", "b")})
    assert rec.is_well_formed(e)
    bad = rec.parse_recursive("let a = !(b || true); let b = a && int; in a")
    assert rec.precedence_graph(bad).edges == frozenset({("a", "b"), ("b", "a")})
    assert not rec.is_well_formed(bad)


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
            expected = jsl.validate(t, rec.unfold(e, height(t)))
            assert rec.eval_recursive(e, t) == expected, rec.to_text(e)
            sets = rec.recursive_sat_sets(e, t)
            for name, _ in e.definitions:
                unfolded = rec.unfold(rec.make_recursive(e.definitions, jsl.SymbolRef(name)),
                                      height(t))
                assert sets[name] == {n for n in t.nodes() if jsl.holds(t, n, unfolded)}, \
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
        assert rec.is_well_formed(expr)
        assert rec.eval_recursive(expr, doc) == eval_circuit(gates, inputs)


def test_strata_restricted_to_exact_heights():
    e = even()
    t = parse_document('{"a":{"b":{"c":0}},"d":0}')
    sets = rec.recursive_sat_sets(e, t)
    heights = jt.tree_heights(t)
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
    sets = rec.recursive_sat_sets(expr, doc)
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


def test_candidates_read_each_definition_once():
    # 2^29 paths through the bodies, all ending in a key modality: only the
    # objects with keys (ids 3 and 0) may satisfy the definitions
    expr = rec.parse_recursive(
        "let g0 = dia(/.*/) true; "
        + " ".join(f"let g{i} = g{i - 1} || g{i - 1};" for i in range(1, 30)) + " in g29")
    doc = parse_document('{"a": [1, {"b": []}], "c": {}}')
    bodies = dict(expr.definitions)
    assert list(rec.candidates(doc, bodies.values(), bodies, range(5, -1, -1))) == [3, 0]
    assert rec.eval_recursive(expr, doc)
