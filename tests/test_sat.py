import random
from itertools import combinations, product

import pytest

import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.regex as rx
import jlogic.translate as translate
import jlogic.tree as jt
from jlogic._node import walk
from jlogic.cli import main
from jlogic.decision import Bounds, Qbf, encode_3sat, encode_qbf, sat_bounded
from jlogic.decision import search
from jlogic.decision.search import (Inventory, _LevelTables, _Program, _class_search,
                                    _collect_jsl, _compositions, _least_size)
from jlogic.errors import BoundsTooLarge, IllFormedRecursion
from jlogic.tree import parse_document, serialize
from helpers import (JSL_FEATURES, jsl_features, oracle_jsl, oracle_node_test, oracle_qbf, oracle_sat,
                     random_jnl_unary, random_jsl, random_node_test, random_tree, random_well_formed,
                     truth_table_sat)

UNSAT_PAIR = '[@"a" / test([#1])] && [@"a" / test([@"b"])]'


def test_trivial_sat_returns_empty_object():
    verdict = sat_bounded(jnl.parse_jnl("true"), Bounds(2, 2, 2))
    assert verdict.satisfiable
    assert serialize(verdict.witness) == "{}"


def test_key_determinism_conflict_unsat():
    verdict = sat_bounded(jnl.parse_jnl(UNSAT_PAIR), Bounds(3, 3, 4))
    assert not verdict.satisfiable
    assert verdict.bounds == Bounds(3, 3, 4)
    assert verdict.describe() == "UNSAT up to (3,3,4)"


def test_compatible_pair_sat():
    verdict = sat_bounded(jnl.parse_jnl('[@"a" / test([#1])] && [@"b" / test([@"c"])]'),
                          Bounds(3, 3, 5))
    assert verdict.satisfiable
    assert jnl.eval_membership(verdict.witness, jnl.parse_jnl(
        '[@"a" / test([#1])] && [@"b" / test([@"c"])]'), ())


def test_witnesses_revalidate():
    rng = random.Random(1)
    for _ in range(60):
        phi = random_jsl(rng, rng.randint(0, 2))
        try:
            verdict = sat_bounded(phi, Bounds(2, 2, 4), budget=100_000)
        except BoundsTooLarge:
            continue
        if verdict.satisfiable:
            assert oracle_jsl(verdict.witness, 0, phi)


def _tiny_universe():
    """Every document of depth <= 2 and width <= 1 over a few atoms, all
    inside Bounds(2, 2, 4)."""
    leaves = [0, 1, "x", {}, []]
    level1 = list(leaves)
    for a in leaves:
        level1.append([a])
        level1.append({"a": a})
        level1.append({"b": a})
    out = list(level1)
    for a in level1:
        out.append({"a": a})
        out.append([a])
    return [jt.from_python(v) for v in out]


# boundaries the random formulas reach too rarely: a box that must skip
# keys or positions it does not name (also under negation), and multOf(0)
TINY_SPACE_FIXED = [
    "obj && box(/a/) int && dia(/b/) str",
    "obj && !box(/a|b/) int && box(/b/) int",
    "obj && box(/.*/) !dia(/a/) true && dia(/b/) obj",
    "arr && box(2:*) str && dia(1) int",
    "arr && !box(1:1) int && dia(1:*) dia(1:*) int",
    "int && multOf(0) && min(1)",
    "int && !multOf(0) && max(1)",
]


def test_verdict_matches_exhaustive_check_on_tiny_space():
    # every (plain jsl) verdict is cross-checked by brute enumeration of
    # all documents over a fixed tiny universe; witnesses are node-count
    # minimal, so none is larger than the smallest satisfier found there
    rng = random.Random(2)
    docs = _tiny_universe()
    randoms = [random_jsl(rng, rng.randint(0, 2)) for _ in range(120)]
    features = set().union(*map(jsl_features, randoms))
    for phi in [jsl.parse_jsl(text) for text in TINY_SPACE_FIXED] + randoms:
        sizes = [d.size for d in docs if oracle_jsl(d, 0, phi)]
        try:
            verdict = sat_bounded(phi, Bounds(2, 2, 4), budget=150_000)
        except BoundsTooLarge:
            continue
        if sizes:
            assert verdict.satisfiable, jsl.to_text(phi)
            assert verdict.witness.size <= min(sizes), jsl.to_text(phi)
        if not verdict.satisfiable:
            assert not sizes, jsl.to_text(phi)
    assert features == JSL_FEATURES, JSL_FEATURES - features


def test_recursive_verdict_matches_exhaustive_check_on_tiny_space():
    # shielded self- and forward references compile to copy placeholders;
    # the verdict must still agree with eval_recursive over the universe
    docs = _tiny_universe()
    checked = sat = 0
    for expr in random_well_formed(random.Random(5), 80):
        sizes = [d.size for d in docs if rec.eval_recursive(expr, d)]
        try:
            verdict = sat_bounded(expr, Bounds(2, 2, 4), budget=150_000)
        except BoundsTooLarge:
            continue
        checked += 1
        sat += verdict.satisfiable
        if sizes:
            assert verdict.satisfiable, rec.to_text(expr)
            assert verdict.witness.size <= min(sizes), rec.to_text(expr)
        if not verdict.satisfiable:
            assert not sizes, rec.to_text(expr)
    assert checked > 60 and 0 < sat < checked


@pytest.mark.parametrize("text,bounds,expected", [
    # child counts need more keys than the formula names
    ("obj && minCh(2)", Bounds(3, 3, 6), '{"k":{},"k0":{}}'),
    ("obj && minCh(3) && box(/.*/) int", Bounds(2, 3, 4), '{"k":0,"k0":0,"k1":0}'),
    ("obj && !maxCh(2)", Bounds(2, 3, 3), '{"k":{},"k0":{},"k1":{}}'),
    ("obj && minCh(4)", Bounds(3, 3, 6), None),
    ("obj && minCh(3)", Bounds(3, 3, 2), None),  # the atom bound caps the keys
])
def test_child_counts_get_fresh_keys(text, bounds, expected):
    verdict = sat_bounded(jsl.parse_jsl(text), bounds)
    if expected is None:
        assert not verdict.satisfiable
    else:
        assert serialize(verdict.witness) == expected


def test_unique_multiplicity_needed():
    phi = jsl.parse_jsl("arr && unique && minCh(2)")
    verdict = sat_bounded(phi, Bounds(2, 3, 3))
    assert verdict.satisfiable
    assert oracle_jsl(verdict.witness, 0, phi)
    anti = jsl.parse_jsl("arr && !unique && minCh(2)")
    verdict = sat_bounded(anti, Bounds(2, 3, 3))
    assert verdict.satisfiable
    assert oracle_jsl(verdict.witness, 0, anti)


def test_recursive_sat():
    expr = rec.parse_recursive(
        "let g = !(dia(1) true) || (minCh(2) && maxCh(2) && !unique && box(1:2) g); "
        "in g && arr && minCh(1)")
    verdict = sat_bounded(expr, Bounds(3, 3, 3))
    assert verdict.satisfiable
    assert rec.eval_recursive(expr, verdict.witness)
    assert verdict.witness.size == 3  # equal-leaf pair, e.g. ["s","s"]


def test_recursive_ill_formed_rejected():
    with pytest.raises(IllFormedRecursion):
        sat_bounded(rec.parse_recursive("let g = !g; in g"), Bounds(2, 2, 2))


def _compiled(phi):
    return _Program({}).compile_recursive(rec.RecursiveJslExpr((), phi))


def test_eval_sequence_puts_operands_first():
    program = _compiled(jsl.parse_jsl("!(int && dia(/a/) str) || !int"))
    sequence = program._eval_sequence()
    assert sorted(sequence) == list(range(len(program.instrs)))
    position = {b: i for i, b in enumerate(sequence)}
    assert any(program.deps)
    for b, deps in enumerate(program.deps):
        assert all(position[d] < position[b] for d in deps), program.instrs[b]
    cyclic = _Program({})
    cyclic.instrs = [jsl.TOP, jsl.Not(jsl.TOP), jsl.And(jsl.TOP, jsl.TOP)]
    cyclic.deps = [(), (2,), (0, 1)]
    with pytest.raises(IllFormedRecursion, match="cyclic same-node bit dependencies"):
        cyclic._eval_sequence()


def test_eqpaths_goes_through_plain_enumeration():
    verdict = sat_bounded(jnl.parse_jnl("eq(eps, eps)"), Bounds(1, 1, 2))
    assert verdict.satisfiable
    assert serialize(verdict.witness) == "{}"
    verdict = sat_bounded(jnl.parse_jnl('eq(@"a", @"b")'), Bounds(2, 2, 3))
    assert verdict.satisfiable
    t = verdict.witness
    assert jnl.eval_membership(t, jnl.parse_jnl('eq(@"a", @"b")'), ())


def test_star_goes_through_the_staged_search():
    phi = jnl.parse_jnl('[(@"a")* / test(eq(eps, 7))]')
    verdict = sat_bounded(phi, Bounds(2, 2, 3))
    assert verdict.satisfiable
    assert jnl.eval_membership(verdict.witness, phi, ())


@pytest.mark.parametrize("text,expected", [
    ('[(@"a")* / @"b"]', '{"b":{}}'),
    ('!([(@"a")*])', None),
    ('[(#1)* / @"x"] && [#2]', '[{"x":{}},{}]'),
    ('[(@/k.*/)* / test(eq(eps, 3))]', "3"),
])
def test_closure_formulas_answer_at_the_default_bounds(text, expected):
    # a closure is a definition of the recursive translation, so these
    # answer well within a small budget at the CLI's default bounds
    phi = jnl.parse_jnl(text)
    verdict = sat_bounded(phi, Bounds(3, 3, 6), budget=2_000)
    if expected is None:
        assert verdict.describe() == "UNSAT up to (3,3,6)"
    else:
        assert serialize(verdict.witness) == expected
        assert jnl.eval_membership(verdict.witness, phi, ())


def test_closure_verdicts_match_exhaustive_enumeration_on_tiny_spaces():
    # each staged witness satisfies the oracle and is as small as the
    # smallest tree over the same inventory; each staged UNSAT finds no
    # tree there either
    rng = random.Random(24)
    checked = sat = 0
    while checked < 300:
        phi = random_jnl_unary(rng, 3)
        parts = set(map(type, jnl._walk(phi)))
        if jnl.Star not in parts or jnl.EqPaths in parts:
            continue
        checked += 1
        expr = translate._jnl_to_recursive(phi, None)
        for bounds in (Bounds(2, 1, 3), Bounds(1, 2, 3)):
            verdict = sat_bounded(phi, bounds, budget=2_000)
            inventory = _collect_jsl([body for _, body in expr.definitions] + [expr.base],
                                     bounds.max_atoms, bounds.max_width)
            every = _class_search(_compiled(jsl.TOP), inventory, bounds, 2_000,
                                  lambda tree: () in oracle_sat(tree, phi), exhaustive=True)
            assert every.satisfiable == verdict.satisfiable, jnl.unary_to_text(phi)
            if verdict.satisfiable:
                sat += 1
                assert () in oracle_sat(verdict.witness, phi), jnl.unary_to_text(phi)
                assert verdict.witness.size == every.witness.size, jnl.unary_to_text(phi)
    assert 0 < sat < 2 * checked


def test_unsat_rejecting_formula():
    verdict = sat_bounded(jsl.parse_jsl("int && str"), Bounds(2, 2, 3))
    assert not verdict.satisfiable


def test_budget_exceeded():
    phi = jsl.parse_jsl("dia(/.*/) dia(/.*/) dia(/.*/) unique")
    with pytest.raises(BoundsTooLarge):
        sat_bounded(phi, Bounds(6, 4, 6), budget=200)


def test_3sat_encoding_fidelity():
    rng = random.Random(3)
    variables = ["x1", "x2", "x3", "x4", "x5"]
    for _ in range(15):
        clauses = [[(v, rng.random() < 0.5) for v in rng.sample(variables, 3)]
                   for _ in range(8)]
        verdict = sat_bounded(encode_3sat(clauses), Bounds(2, 5, 8))
        assert verdict.satisfiable == truth_table_sat(clauses), clauses


def test_3sat_single_positive_clause():
    verdict = sat_bounded(encode_3sat([[("x1", True)]]), Bounds(2, 2, 4))
    assert verdict.satisfiable
    py = jt.to_python(verdict.witness)
    assert isinstance(py["x1"], list) and py["x1"]


def test_3sat_contradiction_unsat():
    clauses = [[("x1", True)], [("x1", False)]]
    verdict = sat_bounded(encode_3sat(clauses), Bounds(2, 2, 4))
    assert not verdict.satisfiable


def test_3sat_full_contradiction_three_vars():
    names = ["x1", "x2", "x3"]
    clauses = [[(v, bool(bits & (1 << i))) for i, v in enumerate(names)]
               for bits in range(8)]
    assert not truth_table_sat(clauses)
    verdict = sat_bounded(encode_3sat(clauses), Bounds(2, 3, 5))
    assert not verdict.satisfiable


def test_qbf_exists_sat():
    q = Qbf((("exists", "x1"),), ((("x1", True),),))
    assert oracle_qbf(q.prefix, q.clauses)
    verdict = sat_bounded(encode_qbf(q), Bounds(2, 2, 4))
    assert verdict.satisfiable


def test_qbf_forall_unsat():
    q = Qbf((("forall", "x1"),), ((("x1", True),),))
    assert not oracle_qbf(q.prefix, q.clauses)
    verdict = sat_bounded(encode_qbf(q), Bounds(2, 2, 4))
    assert not verdict.satisfiable


def test_qbf_random_fidelity():
    rng = random.Random(4)
    for _ in range(12):
        n = rng.randint(1, 3)
        prefix = tuple((rng.choice(["exists", "forall"]), f"x{i+1}") for i in range(n))
        names = [f"x{i+1}" for i in range(n)]
        clauses = tuple(tuple((v, rng.random() < 0.5)
                              for v in rng.sample(names, min(3, n)))
                        for _ in range(rng.randint(1, 4)))
        q = Qbf(prefix, clauses)
        verdict = sat_bounded(encode_qbf(q), Bounds(2 * n, 2, 5), budget=500_000)
        assert verdict.satisfiable == oracle_qbf(prefix, clauses), q


def test_qbf_tautological_clause_dropped():
    q = Qbf((("forall", "x1"),), ((("x1", True), ("x1", False)),))
    assert oracle_qbf(q.prefix, q.clauses)
    verdict = sat_bounded(encode_qbf(q), Bounds(2, 2, 4))
    assert verdict.satisfiable


def test_qbf_validation():
    with pytest.raises(ValueError):
        Qbf((("forall", "x1"), ("exists", "x1")), ())
    with pytest.raises(ValueError):
        Qbf((("exists", "x1"),), ((("x2", True),),))
    with pytest.raises(ValueError):
        Qbf((("some", "x1"),), ())


def test_repeated_subformulas_share_one_instruction():
    # equal subformulas built as distinct objects are one interned node,
    # with one bit
    def part():
        return jsl.parse_jsl('(dia("a") int || box(1:2) !str) && obj')
    phi = jsl.And(jsl.Or(part(), jsl.Not(part())), jsl.And(part(), jsl.TOP))
    program = _compiled(phi)
    assert len(program.instrs) == len(set(jsl.subformulas(phi)))
    assert program.phi_bit == len(program.instrs) - 1


def test_node_test_bits_agree_with_the_oracle_on_every_leaf_and_shape():
    # the plain node tests compile once per search over one batch tree of
    # the one-node candidates and the (kind, child count) shapes; each bit
    # agrees with the oracle on a real tree of that shape
    rng = random.Random(20)
    tests = []
    while len(tests) < 300:
        test = random_node_test(rng)
        if not isinstance(test, (jsl.UniqueTest, jsl.SameAsTest)):
            tests.append(test)
    program = _compiled(jsl.or_all(jsl.Atom(t) for t in tests))
    strings, ints = ("", "a", "b", "0", "ab", "ba", "a1", "bb0"), (0, 1, 2, 3, 4, 5, 6, 12)
    leaves = program.compile_atoms(Inventory(("k",), strings, ints), 3)
    assert [value for _, value, _, _, _ in leaves] == [None, None, *strings, *ints]
    cases = [(bits, {"obj": {}, "arr": []}.get(kind, value)) for kind, value, _, bits, _ in leaves]
    for count in range(1, 4):
        cases.append((program.shape_bits(("obj", count)), {f"k{i}": i for i in range(count)}))
        cases.append((program.shape_bits(("arr", count)), ["a"] * count))
    for bits, value in cases:
        tree = jt.from_python(value)
        for test in tests:
            bit = program.bit_of[jsl.Atom(test)]
            assert (bits >> bit) & 1 == oracle_node_test(tree, 0, test), (test, value)


PINNED_CNF = [[("x1", True), ("x2", False), ("x3", True)],
              [("x1", False), ("x2", True), ("x4", False)],
              [("x2", False), ("x3", False), ("x4", True)],
              [("x1", True), ("x3", True), ("x4", True)]]
PINNED_CONTRADICTION = [[("x1", True)], [("x1", False)], [("x2", True), ("x1", True)]]
PINNED_QBF_TRUE = Qbf((("forall", "x1"), ("exists", "x2")),
                      ((("x1", True), ("x2", True)), (("x1", False), ("x2", False))))
PINNED_QBF_FALSE = Qbf((("forall", "x1"), ("exists", "x2")),
                       ((("x1", True), ("x2", True)), (("x1", True), ("x2", False))))


# Each case also pins the smallest --budget that answers: the number of
# candidate trees the search enumerates before it returns.
PINNED = [
    pytest.param("jnl", jnl.unary_to_text(encode_3sat(PINNED_CNF)), (2, 5, 8),
                 '{"x1":[{}],"x2":[{}],"x3":[{}],"x4":[{}]}', 273, id="3cnf"),
    pytest.param("jnl", jnl.unary_to_text(encode_3sat(PINNED_CONTRADICTION)), (2, 3, 5), None,
                 31, id="3cnf-unsat"),
    pytest.param("jsl", jsl.to_text(encode_qbf(PINNED_QBF_TRUE)), (4, 2, 5),
                 '{"X":{"F":{"X":{"T":{}}},"T":{"X":{"F":{}}}}}', 737, id="qbf"),
    pytest.param("jsl", jsl.to_text(encode_qbf(PINNED_QBF_FALSE)), (4, 2, 5), None,
                 2677, id="qbf-unsat"),
    pytest.param("jsl", "arr && unique && minCh(3)", (2, 3, 3), '["s",[],{}]', 216,
                 id="unique"),
    pytest.param("jsl", "arr && !unique && minCh(2) && dia(1) arr", (2, 3, 3), "[[],[]]",
                 202, id="not-unique"),
    pytest.param("jsl", 'obj && dia("a") same({"b": [1, "x"]})', (3, 2, 4),
                 '{"a":{"b":[1,"x"]}}', 236, id="same-below"),
    pytest.param("jsl", 'arr && dia(2) same([1, "a"]) && !same([[1, "a"], [1, "a"]])',
                 (3, 2, 4), '["a",[1,"a"]]', 90, id="same-root"),
    pytest.param("rjsl", "let g = !(dia(1) true) || (minCh(2) && maxCh(2) && !unique "
                         "&& box(1:2) g); in g && arr && minCh(1)", (3, 3, 3), '["s","s"]',
                 778, id="recursive-pairs"),
    pytest.param("rjsl", 'let g = int || (obj && dia(/a|b/) g && box(/.*/) g); '
                         'in g && obj && dia("b") obj', (3, 2, 4), '{"b":{"a":0}}',
                 91, id="recursive-keys"),
    pytest.param("jsl", "arr && dia(2:3) (int && min(4)) && box(1:1) str && !box(3:*) int",
                 (2, 4, 4), '["s",4,"s"]', 105, id="index-intervals"),
    pytest.param("jsl", 'obj && box(/a|b/) (arr && minCh(1)) && dia(/b/) true '
                        '&& dia("c") (int && multOf(3) && min(1))', (3, 3, 5),
                 '{"b":[{}],"c":3}', 177, id="box-keys"),
    pytest.param("jsl", 'obj && box(/a|b/) int && dia("a") true && !dia("b") true '
                        '&& dia(/c/) str', (2, 3, 4), '{"a":0,"c":"s"}', 48,
                 id="box-dia-keys"),
    pytest.param("jnl", 'eq(@"a", @"b") && [@"a" / #1]', (2, 2, 3), '{"a":["s"],"b":["s"]}',
                 4076, id="eqpaths"),
    pytest.param("jnl", '[(@"a")* / test(eq(eps, 7))]', (2, 2, 3), "7", 32, id="star"),
]


@pytest.mark.parametrize("logic,formula,bounds,expected,budget", PINNED)
def test_pinned_witness(capsys, logic, formula, bounds, expected, budget):
    # the exact minimal witness (or bound) the search reports, through the CLI
    argv = ["sat", "--logic", logic, "--formula", formula, "--max-depth", str(bounds[0]),
            "--max-width", str(bounds[1]), "--max-atoms", str(bounds[2])]
    want = (1, "UNSAT up to ({},{},{})\n".format(*bounds)) if expected is None \
        else (0, f"SAT\n{expected}\n")
    for extra in ((), ("--budget", str(budget))):
        rc = main(argv + list(extra))
        assert (rc, capsys.readouterr().out) == want
    assert main(argv + ["--budget", str(budget - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: search exceeded the candidate budget ({budget - 1})\n"


def test_a_deep_witness_is_reported(capsys):
    # the witness is read back from its canonical text, so its depth is not
    # bounded by Python's recursion limit
    depth = 600
    assert main(["sat", "--formula", 'dia("a") ' * depth + "true", "--max-depth", str(depth),
                 "--max-width", "1", "--max-atoms", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == "SAT\n" + '{"a":' * depth + "{}" + "}" * depth + "\n" and err == ""


@pytest.mark.parametrize("logic,formula,bounds,expected,budget", PINNED)
def test_pinned_witness_without_the_size_bound(monkeypatch, capsys, logic, formula, bounds,
                                               expected, budget):
    # the root sizes the bound skips change no answer and no budget
    monkeypatch.setattr(search, "_least_size", lambda phi: 1)
    test_pinned_witness(capsys, logic, formula, bounds, expected, budget)


# one case per rule of the bound, each with a model of exactly that size
LEAST_SIZE_CASES = [
    ('same({"a": [1, "x"]})', 4, {"a": [1, "x"]}),
    ("obj && minCh(2)", 3, {"a": 0, "b": 0}),
    ("arr && dia(2:3) (arr && minCh(1))", 4, [0, [0]]),
    ('dia("a") dia("b") true && dia("b") true', 4, {"a": {"b": 0}, "b": 0}),
    ('dia("a") dia("a") true && dia("a") true', 3, {"a": {"a": 0}}),
    ('dia("b") true && (dia("a") dia("c") true || dia("a") arr)', 3, {"a": [], "b": 0}),
    ('obj && !dia("a") true && dia("b") true', 2, {"b": 0}),
    ('dia(/a|b/) int && dia("a") int', 2, {"a": 0}),
]


@pytest.mark.parametrize("text,least,model", LEAST_SIZE_CASES)
def test_least_size_rules(text, least, model):
    phi, tree = jsl.parse_jsl(text), jt.from_python(model)
    assert oracle_jsl(tree, 0, phi) and tree.size == least
    assert _least_size(phi) == least


def test_least_size_is_a_lower_bound_on_every_model():
    rng = random.Random(22)
    docs = _tiny_universe() + [random_tree(rng) for _ in range(150)]
    phis = [jsl.parse_jsl(text) for text, _, _ in LEAST_SIZE_CASES]
    phis += [jsl.parse_jsl(text) for text in TINY_SPACE_FIXED]
    phis += [random_jsl(rng, rng.randint(0, 4)) for _ in range(300)]
    bounded = 0
    for phi in phis:
        least = _least_size(phi)
        sizes = [d.size for d in docs if oracle_jsl(d, 0, phi)]
        assert least <= min(sizes, default=least), jsl.to_text(phi)
        bounded += least > 1 and bool(sizes)
    assert bounded >= 50


def test_least_size_of_a_3cnf_encoding_is_its_smallest_model(monkeypatch):
    # one member per variable, holding an array or an object: 1 + 2v nodes
    rng = random.Random(3)
    for v in range(1, 7):
        names = [f"x{i}" for i in range(1, v + 1)]
        clauses = [[(x, rng.random() < 0.5) for x in names[i:i + 3]] for i in range(v)]
        phi = encode_3sat(clauses)
        assert _least_size(translate.jnl_to_jsl(phi)) == 1 + 2 * v
    # the search gets that bound, and the root builds no smaller candidate
    seen, built = [], set()
    staged, bases = search._staged_search, _LevelTables.bases
    monkeypatch.setattr(search, "_staged_search",
                        lambda *args: seen.append(args[-1]) or staged(*args))

    def root_bases(self, kind, labels, sizes, groups):
        if self.root:
            built.add(1 + sum(sizes))
        return bases(self, kind, labels, sizes, groups)
    monkeypatch.setattr(_LevelTables, "bases", root_bases)
    verdict = sat_bounded(encode_3sat(PINNED_CNF), Bounds(2, 5, 8))
    assert seen == [9] and built == {9} and verdict.witness.size == 9


def test_compositions_are_every_sum_in_lexicographic_order():
    for count in range(1, 5):
        for sizes in combinations(range(1, 7), count):
            table = _compositions(list(sizes))
            for slots in range(1, 4):
                for total in range(1, 14):
                    expected = [c for c in product(sizes, repeat=slots) if sum(c) == total]
                    assert table[slots, total] == expected, (sizes, slots, total)


def test_least_size_folds_a_long_chain_in_one_visit(monkeypatch):
    # 3,000 members under distinct keys: per call, one visit for the whole
    # chain, one per member and one for their shared body
    members = [jsl.DiaKey(rx.word_regex(f"k{i}"), jsl.TOP) for i in range(3000)]
    visits = []
    monkeypatch.setattr(search, "walk", lambda visit, arg: walk(
        lambda sub: visits.append(sub) or visit(sub), arg))
    assert _least_size(jsl.and_all(members)) == 3001
    assert _least_size(jsl.or_all(members)) == 2
    assert len(visits) == 2 * (1 + 3000 + 1)
