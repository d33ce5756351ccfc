"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on a green run; on failures the captured line is shown anyway).
Tolerances and budgets are pinned here and nowhere else.
"""

import json
import random
import time

import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.regex as rx
import jlogic.schema as sch
import jlogic.translate as tr
import jlogic.tree as jt
from jlogic.decision import (
    Bounds,
    Qbf,
    automaton_accepts,
    complement,
    encode_3sat,
    encode_qbf,
    jsl_to_automaton,
    recursive_to_automaton,
    sat_bounded,
)
from jlogic.errors import FragmentViolation, UnfoldSizeExceeded
from jlogic.tree import height, parse_document, serialize, verify_invariants

from helpers import (
    is_well_formed,
    oracle_jsl,
    oracle_qbf,
    oracle_sat,
    random_jnl_unary,
    random_jsl,
    random_tree,
    random_value,
    truth_table_sat,
)
from test_schema import CORPUS, KEYWORDS, targeted_documents


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def timed(fn, repeats=5):
    import gc
    best = None
    fn()  # warm caches
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        gc.enable()
    return best


def test_c01_model_invariants():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(1000):
        text = json.dumps(random_value(rng, 4, 3))
        tree = parse_document(text)
        verify_invariants(tree)
    elapsed = time.perf_counter() - start
    report("C1 model invariants on 1000 random documents", elapsed < 5.0,
           f"{elapsed:.2f}s")


def test_c02_jnl_oracle_equivalence():
    rng = random.Random(1002)
    start = time.perf_counter()
    checked = 0
    while checked < 500:
        tree = random_tree(rng, 3, 3)
        if tree.size > 12:
            continue
        phi = random_jnl_unary(rng, rng.randint(1, 4))
        assert jnl.eval_unary(tree, phi) == oracle_sat(tree, phi), jnl.unary_to_text(phi)
        checked += 1
    elapsed = time.perf_counter() - start
    report("C2 navigational evaluation vs naive oracle (500 pairs)",
           elapsed < 30.0, f"{elapsed:.2f}s")


def _chain(n):
    return parse_document('{"a":' * (n - 1) + "0" + "}" * (n - 1))


def test_c03_jnl_scaling_smoke():
    # the per-doubling rate over the whole 1k -> 8k series (three doublings)
    sizes = [1000, 2000, 4000, 8000]
    chains = [_chain(n) for n in sizes]
    linear = jnl.parse_jnl("[@/.*/ / @/.*/ / @/.*/]")
    starred = jnl.parse_jnl("[(@/.*/)* / test(eq(eps, 0))]")
    linear_times = [timed(lambda t=t: jnl.eval_membership(t, linear, ()), repeats=9)
                    for t in chains]
    star_times = [timed(lambda t=t: jnl.eval_membership(t, starred, ()), repeats=9)
                  for t in chains]
    linear_rate = (linear_times[-1] / linear_times[0]) ** (1 / 3)
    star_rate = (star_times[-1] / star_times[0]) ** (1 / 3)
    ok = linear_rate <= 2.5 and star_rate <= 8.0
    report("C3 scaling smoke on 1k/2k/4k/8k chains", ok,
           f"per-doubling rate {linear_rate:.2f} (limit 2.5), "
           f"star {star_rate:.2f} (cubic envelope 8.0)")


def test_c04_known_unsat_and_minimal_witness():
    start = time.perf_counter()
    conflict = jnl.parse_jnl('[@"a" / test([#1])] && [@"a" / test([@"b"])]')
    verdict = sat_bounded(conflict, Bounds(3, 3, 4))
    ok = not verdict.satisfiable and verdict.bounds == Bounds(3, 3, 4)
    trivial = sat_bounded(jnl.parse_jnl("true"), Bounds(3, 3, 4))
    ok = ok and trivial.satisfiable and serialize(trivial.witness) == "{}"
    elapsed = time.perf_counter() - start
    report("C4 key-determinism conflict unsat at (3,3); true gives {}",
           ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_c05_3sat_reduction_fidelity():
    rng = random.Random(1005)
    variables = ["x1", "x2", "x3", "x4", "x5"]
    start = time.perf_counter()
    agree = 0
    for _ in range(50):
        clauses = [[(v, rng.random() < 0.5) for v in rng.sample(variables, 3)]
                   for _ in range(8)]
        verdict = sat_bounded(encode_3sat(clauses), Bounds(2, 5, 8))
        assert verdict.satisfiable == truth_table_sat(clauses), clauses
        agree += 1
    elapsed = time.perf_counter() - start
    report("C5 3CNF encoding verdicts match truth tables (50 instances)",
           agree == 50 and elapsed < 120.0, f"{elapsed:.1f}s")


def test_c06_qbf_reduction_fidelity():
    rng = random.Random(1006)
    start = time.perf_counter()
    agree = 0
    for _ in range(20):
        n = rng.randint(1, 3)
        prefix = tuple((rng.choice(["exists", "forall"]), f"x{i+1}") for i in range(n))
        names = [f"x{i+1}" for i in range(n)]
        clauses = tuple(tuple((v, rng.random() < 0.5)
                              for v in rng.sample(names, min(3, n)))
                        for _ in range(rng.randint(1, 4)))
        q = Qbf(prefix, clauses)
        verdict = sat_bounded(encode_qbf(q), Bounds(2 * n, 2, 5), budget=500_000)
        assert verdict.satisfiable == oracle_qbf(prefix, clauses), q
        agree += 1
    elapsed = time.perf_counter() - start
    report("C6 quantified-boolean encoding matches brute-force truth (20 instances)",
           agree == 20 and elapsed < 120.0, f"{elapsed:.1f}s")


def test_c07_schema_logic_equivalence():
    rng = random.Random(1007)
    start = time.perf_counter()
    joined = "\n".join(CORPUS)
    assert len(CORPUS) >= 20
    for keyword in KEYWORDS:
        assert f'"{keyword}"' in joined, keyword
    docs = targeted_documents(rng, 200)
    for text in CORPUS:
        schema = sch.parse_schema(text)
        compiled = sch.schema_to_jsl(schema)
        back = sch.jsl_to_schema(compiled)
        for doc in docs:
            direct = sch.validate_schema(doc, schema)
            assert direct == oracle_jsl(doc, 0, compiled), (text, serialize(doc))
            assert direct == sch.validate_schema(doc, back), (text, serialize(doc))
    number = sch.parse_schema('{"type":"number","maximum":12,"multipleOf":4}')
    accepted = [v for v in range(0, 21)
                if sch.validate_schema(parse_document(str(v)), number)]
    assert accepted == [0, 4, 8, 12]
    elapsed = time.perf_counter() - start
    report("C7 schema/logic equivalence on keyword-covering corpus x200 docs",
           elapsed < 60.0, f"{len(CORPUS)} schemas, {elapsed:.1f}s")


def test_c08_logic_translation_equivalence():
    rng = random.Random(1008)

    def admissible_jnl():
        while True:
            phi = random_jnl_unary(rng, rng.randint(0, 3))
            try:
                tr.jnl_to_jsl(phi)
            except FragmentViolation:
                continue
            return phi

    def admissible_jsl():
        while True:
            phi = random_jsl(rng, rng.randint(0, 3))
            if all(isinstance(f.test, jsl.SameAsTest)
                   for f in jsl.subformulas(phi) if isinstance(f, jsl.Atom)):
                return phi

    for _ in range(300):
        phi = admissible_jnl()
        out = tr.jnl_to_jsl(phi)
        t = random_tree(rng, 3, 3)
        expected = frozenset(t.path_of(n) for n in t.nodes() if oracle_jsl(t, n, out))
        assert jnl.eval_unary(t, phi) == expected, jnl.unary_to_text(phi)
    for _ in range(300):
        phi = admissible_jsl()
        out = tr.jsl_to_jnl(phi)
        t = random_tree(rng, 3, 3)
        expected = frozenset(t.path_of(n) for n in t.nodes() if oracle_jsl(t, n, phi))
        assert jnl.eval_unary(t, out) == expected, jsl.to_text(phi)
    const = parse_document('{"x":1}')
    worked = jnl.EqConst(jnl.Compose(jnl.Test(jnl.Exists(jnl.KeyAxis("b"))),
                                     jnl.KeyAxis("a")), const)
    exact = tr.jnl_to_jsl(worked) == jsl.And(
        jsl.DiaKey(rx.word_regex("a"), jsl.Atom(jsl.SameAsTest(const))),
        jsl.DiaKey(rx.word_regex("b"), jsl.TOP))
    report("C8 translations preserve node sets (300 per direction) + worked example",
           exact)


def test_c09_recursive_semantics():
    rng = random.Random(1009)
    checked = 0
    while checked < 200:
        names = [f"g{i}" for i in range(rng.randint(1, 3))]
        try:
            expr = rec.make_recursive(
                [(n, random_jsl(rng, rng.randint(1, 3), symbols=tuple(names)))
                 for n in names],
                random_jsl(rng, rng.randint(0, 2), symbols=tuple(names)))
        except Exception:
            continue
        if not is_well_formed(expr):
            continue
        tree = random_tree(rng, rng.randint(0, 5), 3)
        try:
            unfolded = rec.unfold(expr, height(tree), size_cap=300_000)
        except UnfoldSizeExceeded:
            continue
        assert rec.eval_recursive(expr, tree) == oracle_jsl(tree, 0, unfolded), \
            rec.to_text(expr)
        checked += 1

    even = rec.parse_recursive(
        "let g1 = box(/.*/) g2; let g2 = dia(/.*/) true && box(/.*/) g1; in g1")

    def universe(h):
        if h == 0:
            return [0, {}]
        smaller = universe(h - 1)
        out = list(smaller)
        out.extend({"a": v} for v in smaller)
        out.extend({"b": v} for v in smaller)
        out.extend({"a": v1, "b": v2} for v1 in smaller for v2 in smaller)
        return out

    def key_paths_even(value, depth=0):
        if not isinstance(value, dict) or not value:
            return depth % 2 == 0
        return all(key_paths_even(v, depth + 1) for v in value.values())

    chains = [0] + [json.loads('{"a":' * h + "0" + "}" * h) for h in range(1, 5)]
    for value in universe(3) + chains:
        t = jt.from_python(value)
        assert rec.eval_recursive(even, t) == key_paths_even(value), value

    binary = rec.parse_recursive(
        "let g = !(dia(1) true) || (minCh(2) && maxCh(2) && !unique && box(1:2) g); in g")

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
        assert rec.eval_recursive(binary, jt.from_python(value)) == is_complete(value)
    report("C9 recursive evaluation equals unfold oracle (200 instances + families)",
           True)


def _balanced(branching, depth):
    value = 0
    for _ in range(depth):
        value = {f"k{i}": value for i in range(branching)}
    return jt.from_python(value)


def test_c10_recursive_evaluation_performance():
    tree = _balanced(10, 4)
    assert tree.size > 10_000
    even = rec.parse_recursive(
        "let g1 = box(/.*/) g2; let g2 = dia(/.*/) true && box(/.*/) g1; in g1")
    elapsed = timed(lambda: rec.eval_recursive(even, tree), repeats=3)
    report("C10 recursive evaluation over a balanced 11k-node tree", elapsed < 1.0,
           f"{elapsed * 1000:.0f}ms")


def test_c11_automata_differentials():
    rng = random.Random(1011)
    for _ in range(300):
        phi = random_jsl(rng, rng.randint(0, 3))
        t = random_tree(rng, 3, 3)
        assert automaton_accepts(jsl_to_automaton(phi), t) == oracle_jsl(t, 0, phi), \
            jsl.to_text(phi)
    built = 0
    while built < 300:
        names = tuple(f"g{i}" for i in range(rng.randint(1, 2)))
        try:
            expr = rec.make_recursive(
                [(n, random_jsl(rng, 2, symbols=names)) for n in names],
                random_jsl(rng, 1, symbols=names))
        except Exception:
            continue
        if not is_well_formed(expr):
            continue
        t = random_tree(rng, 3, 3)
        assert automaton_accepts(recursive_to_automaton(expr), t) == \
            rec.eval_recursive(expr, t), rec.to_text(expr)
        built += 1
    autos = [jsl_to_automaton(random_jsl(rng, 2)) for _ in range(10)]
    for _ in range(100):
        t = random_tree(rng, 3, 3)
        for auto in autos:
            assert automaton_accepts(complement(complement(auto)), t) == \
                automaton_accepts(auto, t)
    report("C11 automata agree with evaluators (300+300 pairs, double complement)",
           True)


# Capabilities deliberately not implemented, with their bounded substitutes.
# The list itself is part of the contract: its presence is asserted below.
OUT_OF_SCOPE = [
    {
        "capability": "undecidability witness for satisfiability of recursive "
                      "navigational formulas with two-path subtree equality "
                      "(counter-machine encoding)",
        "status": "documented only; no decision procedure exists or is attempted",
        "substitute": "sat_bounded reports SAT with a witness or UNSAT up to "
                      "explicit bounds",
    },
    {
        "capability": "worst-case-optimal satisfiability procedures "
                      "(polynomial-space through doubly-exponential-time "
                      "constructions, including state-set emptiness with "
                      "witness counting)",
        "status": "not implemented",
        "substitute": "bounded-model search over an atom inventory with "
                      "depth/width/budget caps; negative answers are "
                      "bound-relative by construction",
    },
    {
        "capability": "monadic second-order equivalence over a fixed finite "
                      "key alphabet",
        "status": "out of scope",
        "substitute": "none (purely comparative result)",
    },
]


def test_c12_out_of_scope_honesty():
    assert OUT_OF_SCOPE, "the skip list must exist"
    text = json.dumps(OUT_OF_SCOPE)
    assert "undecidability" in text
    assert "bounded" in text
    assert all(entry.get("substitute") for entry in OUT_OF_SCOPE)
    report("C12 out-of-scope list present and names the bounded substitutes",
           True, f"{len(OUT_OF_SCOPE)} entries")
