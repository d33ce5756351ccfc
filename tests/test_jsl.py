import random

import pytest
from hypothesis import given, settings, strategies as st

import jlogic.jsl as jsl
import jlogic.regex as rx
import jlogic.tree as jt
from jlogic.errors import MalformedFormula
from jlogic.jsl import check_unique, parse_jsl, to_text, validate
from jlogic.tree import NodeKind, parse_document
from helpers import eval_jsl, oracle_jsl, random_jsl, random_tree

NUMBER_FORMULA = "int && max(12) && multOf(4)"


def test_parse_number_formula_shape():
    f = parse_jsl(NUMBER_FORMULA)
    assert f == jsl.And(
        jsl.And(jsl.Atom(jsl.KindTest(NodeKind.INT)), jsl.Atom(jsl.MaxTest(12))),
        jsl.Atom(jsl.MultOfTest(4)))


def test_parse_true():
    assert parse_jsl("true") == jsl.TOP


def test_parse_nested_modalities():
    f = parse_jsl("box(/.*/) dia(/.*/) true")
    assert f == jsl.BoxKey(rx.SIGMA_STAR, jsl.DiaKey(rx.SIGMA_STAR, jsl.TOP))


def test_parse_key_sugar_and_intervals():
    assert parse_jsl('box("age") int') == jsl.BoxKey(rx.word_regex("age"),
                                                     jsl.Atom(jsl.KindTest(NodeKind.INT)))
    assert parse_jsl("dia(2) str") == jsl.DiaIdx(2, 2, jsl.Atom(jsl.KindTest(NodeKind.STR)))
    assert parse_jsl("box(2:*) true") == jsl.BoxIdx(2, None, jsl.TOP)
    assert parse_jsl("dia(1:3) true") == jsl.DiaIdx(1, 3, jsl.TOP)


@pytest.mark.parametrize("bad", [
    "", "min()", "box() true", "dia(0) true", "box(3:1) true", "int &&",
    "pattern(abc)", "g1",
])
def test_parse_errors(bad):
    with pytest.raises(MalformedFormula):
        parse_jsl(bad)


def test_symbols_need_opt_in():
    with pytest.raises(MalformedFormula):
        parse_jsl("box(/.*/) g1")
    f = parse_jsl("box(/.*/) g1", allow_symbols=True)
    assert f == jsl.BoxKey(rx.SIGMA_STAR, jsl.SymbolRef("g1"))


def test_number_formula_accepts_multiples_up_to_twelve():
    f = parse_jsl(NUMBER_FORMULA)
    accepted = [v for v in range(0, 21) if validate(parse_document(str(v)), f)]
    assert accepted == [0, 4, 8, 12]


def test_box_vacuous_on_leaves():
    f = parse_jsl('box(/.*/) !true && box(1:*) !true')
    for doc in ['"x"', "3", "{}", "[]"]:
        assert validate(parse_document(doc), f)


def test_min_max_interplay():
    f = parse_jsl("min(5) && max(5)")
    assert validate(parse_document("5"), f)
    assert not validate(parse_document("4"), f)
    assert not validate(parse_document("6"), f)
    assert not validate(parse_document('"5"'), f)


def test_mult_of_zero_only_zero():
    f = parse_jsl("multOf(0)")
    assert validate(parse_document("0"), f)
    assert not validate(parse_document("4"), f)


def test_child_counts_are_kind_agnostic():
    f2 = parse_jsl("minCh(2)")
    assert validate(parse_document('{"a":1,"b":2}'), f2)
    assert validate(parse_document("[1,2]"), f2)
    assert not validate(parse_document('"xx"'), f2)
    assert validate(parse_document('"xx"'), parse_jsl("maxCh(0)"))
    assert validate(parse_document("7"), parse_jsl("minCh(0)"))


def test_check_unique_examples():
    assert check_unique(parse_document("[1,2]"), ())
    assert not check_unique(parse_document("[1,1]"), ())
    assert not check_unique(parse_document('[{"a":1},{"a":1}]'), ())
    assert check_unique(parse_document('[{"a":1},{"a":2}]'), ())
    assert check_unique(parse_document("[]"), ())
    assert not check_unique(parse_document("{}"), ())
    assert not check_unique(parse_document("5"), ())


def test_unique_ignores_object_order():
    assert not check_unique(parse_document('[{"a":1,"b":2},{"b":2,"a":1}]'), ())


def test_eval_jsl_at_inner_node():
    t = parse_document('{"p": {"q": 8}}')
    f = parse_jsl('dia("q") int')
    assert not validate(t, f)
    assert eval_jsl(t, (0,), f)


def test_oracle_equivalence():
    rng = random.Random(90210)
    for _ in range(250):
        t = random_tree(rng, 3, 3)
        f = random_jsl(rng, rng.randint(0, 3))
        check = jsl.compile_formula(t, f, {})
        for n in t.nodes():
            assert check(n) == oracle_jsl(t, n, f), to_text(f)
            assert eval_jsl(t, t.path_of(n), f) == check(n), to_text(f)


def test_box_dia_duality():
    rng = random.Random(64)
    for _ in range(150):
        t = random_tree(rng, 3, 3)
        body = random_jsl(rng, 1)
        pattern = rx.word_regex("a") if rng.random() < 0.5 else rx.SIGMA_STAR
        box = jsl.BoxKey(pattern, body)
        dual = jsl.Not(jsl.DiaKey(pattern, jsl.Not(body)))
        box_i = jsl.BoxIdx(1, 2, body)
        dual_i = jsl.Not(jsl.DiaIdx(1, 2, jsl.Not(body)))
        box, dual, box_i, dual_i = (jsl.compile_formula(t, f, {})
                                    for f in (box, dual, box_i, dual_i))
        for n in t.nodes():
            assert box(n) == dual(n)
            assert box_i(n) == dual_i(n)


def test_print_parse_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        f = random_jsl(rng, rng.randint(0, 3))
        text = to_text(f)
        back = parse_jsl(text)
        assert to_text(back) == text
        t = random_tree(rng, 2, 2)
        assert validate(t, back) == validate(t, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=15))
def test_min_max_bounds_property(value, lo, hi):
    t = parse_document(str(value))
    f = jsl.And(jsl.Atom(jsl.MinTest(lo)), jsl.Atom(jsl.MaxTest(hi)))
    assert validate(t, f) == (lo <= value <= hi)


def test_scaling_smoke_wide_objects():
    # unique-free evaluation touches each (node, subformula) pair once,
    # so doubling the fan-out may at most roughly double the time
    import gc
    import time

    def wide(n):
        return jt.from_python({f"k{i}": i for i in range(n)})

    phi = parse_jsl("box(/.*/) (int && min(0)) && minCh(1)")
    times = []
    gc.disable()
    try:
        for n in (2000, 4000, 8000, 16000):
            t = wide(n)
            validate(t, phi)  # warm caches before timing
            # every sample validates 16,000 keys in all, so each one spans
            # many scheduler time slices, at every size alike
            repeats = 16000 // n
            best = None
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(repeats):
                    validate(t, phi)
                elapsed = (time.perf_counter() - start) / repeats
                best = elapsed if best is None else min(best, elapsed)
            times.append(best)
    finally:
        gc.enable()
    rate = (times[-1] / times[0]) ** (1 / 3)
    assert rate <= 2.5, (rate, times)
