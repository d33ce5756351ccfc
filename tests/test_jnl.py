import random
import sys

import pytest

import jlogic.jnl as jnl
import jlogic.translate as translate
import jlogic.tree as jt
from jlogic.errors import MalformedFormula, UnsupportedOperator
from jlogic.jnl import (
    And,
    Compose,
    EqConst,
    EqPaths,
    Eps,
    Exists,
    IdxAxis,
    IdxRangeAxis,
    KeyAxis,
    Star,
    Top,
    compile_find_filter,
    eval_binary,
    eval_membership,
    eval_unary,
    eval_unary_ids,
    parse_jnl,
    unary_to_text,
)
from jlogic.tree import parse_document
from helpers import (
    interpreter_sat,
    oracle_holds,
    oracle_pairs,
    oracle_sat,
    random_jnl_binary,
    random_chain,
    random_jnl_unary,
    random_tree,
    random_value,
    w1_value,
)

PERSON_DOC = '{"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["fishing","yoga"]}'


def person():
    return parse_document(PERSON_DOC)


# -- parsing ------------------------------------------------------------------


def test_parse_eq_const():
    f = parse_jnl('eq(@"name", "Sue")')
    assert f == EqConst(KeyAxis("name"), parse_document('"Sue"'))


def test_parse_true():
    assert parse_jnl("true") == Top()


def test_parse_conjunction_of_tests():
    f = parse_jnl('[@"a" / test([#1])] && [@"a" / test([@"b"])]')
    expected = And(
        Exists(Compose(KeyAxis("a"), jnl.Test(Exists(IdxAxis(1))))),
        Exists(Compose(KeyAxis("a"), jnl.Test(Exists(KeyAxis("b"))))))
    assert f == expected


def test_parse_ranges_and_star():
    assert parse_jnl("[#2:5]") == Exists(IdxRangeAxis(2, 5))
    assert parse_jnl("[#2:*]") == Exists(IdxRangeAxis(2, None))
    assert parse_jnl('[(@"a")*]') == Exists(Star(KeyAxis("a")))
    assert parse_jnl("[eps]") == Exists(Eps())


@pytest.mark.parametrize("bad", [
    "", "&&", "[#0]", "[#3:2]", "eq(@\"a\")", "[@'a']", "true true",
    "eq(@\"a\", true)", "[@\"a\" /]",
])
def test_parse_errors(bad):
    with pytest.raises(MalformedFormula):
        parse_jnl(bad)


def test_print_parse_round_trip():
    # composition/conjunction chains reassociate, so compare stabilized text
    # and semantics rather than tree shapes
    rng = random.Random(11)
    for _ in range(200):
        f = random_jnl_unary(rng, rng.randint(0, 3))
        text = unary_to_text(f)
        back = parse_jnl(text)
        assert unary_to_text(back) == text
        t = random_tree(rng, 3, 3)
        assert eval_unary(t, back) == eval_unary(t, f)


# -- evaluation ----------------------------------------------------------------


def test_eval_binary_hobbies_first():
    t = person()
    pairs = eval_binary(t, Compose(KeyAxis("hobbies"), IdxAxis(1)))
    assert pairs == frozenset({((), ((1, 0)))})
    fishing = t.node_at((1, 0))
    assert t.value(fishing) == "fishing"


def test_eval_binary_eps_is_identity():
    t = person()
    assert eval_binary(t, Eps()) == frozenset((p, p) for p in t.domain)


def test_eval_unary_eqconst_example():
    t = person()
    f = EqConst(Compose(KeyAxis("name"), KeyAxis("first")), parse_document('"John"'))
    assert eval_unary(t, f) == frozenset({()})


def test_eval_unary_top_is_domain():
    t = person()
    assert eval_unary(t, Top()) == t.domain


def test_eqpaths_eps_eps_everywhere():
    t = person()
    assert eval_unary(t, EqPaths(Eps(), Eps())) == t.domain


def test_eval_membership_matches_eval_unary():
    rng = random.Random(17)
    for _ in range(60):
        t = random_tree(rng, 3, 3)
        f = random_jnl_unary(rng, rng.randint(0, 3))
        sat = eval_unary(t, f)
        for n in t.nodes():
            p = t.path_of(n)
            assert eval_membership(t, f, p) == (p in sat)


def test_oracle_equivalence_binary():
    rng = random.Random(4242)
    for _ in range(150):
        t = random_tree(rng, 3, 3)
        alpha = random_jnl_binary(rng, rng.randint(0, 3))
        got = eval_binary(t, alpha)
        want = frozenset((t.path_of(a), t.path_of(b)) for a, b in oracle_pairs(t, alpha))
        assert got == want, jnl.binary_to_text(alpha)


def test_oracle_equivalence_unary():
    rng = random.Random(2718)
    for _ in range(200):
        t = random_tree(rng, 3, 3)
        f = random_jnl_unary(rng, rng.randint(0, 4))
        assert eval_unary(t, f) == oracle_sat(t, f), unary_to_text(f)


def nested_closure(rng, depth) -> jnl.JnlBinary:
    """A closure whose body holds a closure directly, ``depth`` levels."""
    inner = random_jnl_binary(rng, 0) if depth == 0 else nested_closure(rng, depth - 1)
    other = random_jnl_binary(rng, rng.randint(0, 1))
    return Star(rng.choice([inner, Compose(inner, other), Compose(other, inner)]))


def test_nested_closures_match_the_oracles():
    # an inner closure's table reads the outer one's at the same node
    rng = random.Random(1)
    for _ in range(400):
        t = random_tree(rng, 3, 3)
        alpha = nested_closure(rng, rng.randint(1, 2))
        beta = random_jnl_binary(rng, rng.randint(0, 2))
        f = EqPaths(alpha, beta) if rng.random() < 0.5 else EqPaths(beta, alpha)
        assert eval_unary(t, f) == oracle_sat(t, f), unary_to_text(f)
        want = frozenset((t.path_of(a), t.path_of(b)) for a, b in oracle_pairs(t, alpha))
        assert eval_binary(t, alpha) == want, jnl.binary_to_text(alpha)


JNL_CONSTRUCTORS = {jnl.Top, jnl.Not, And, jnl.Or, Exists, EqConst, EqPaths, jnl.Test,
                    KeyAxis, jnl.KeyRegexAxis, IdxAxis, IdxRangeAxis, Compose, Eps, Star}


def _check_compiled(t, f, want, members, paths=True):
    """The three entry points against the node ids ``want``; membership at
    the ids in ``members``.  Paths are as long as the document is deep, so
    ``paths`` can skip eval_unary."""
    text = unary_to_text(f)
    assert eval_unary_ids(t, f) == want, text
    if paths:
        assert eval_unary(t, f) == {t.path_of(n) for n in want}, text
    for n in members:
        assert eval_membership(t, f, t.path_of(n)) == (n in want), (text, n)


def test_compiled_evaluator_differential():
    """Seeded random formulas on random trees, every node checked against
    the naive pair-set oracle."""
    rng = random.Random(7031)
    seen = set()
    for _ in range(300):
        t = random_tree(rng, 4, 4)
        f = random_jnl_unary(rng, rng.randint(1, 4))
        seen.update(type(g) for g in jnl._walk(f))
        want = frozenset(n for n in t.nodes() if oracle_holds(t, f, n))
        _check_compiled(t, f, want, t.nodes())
    assert seen == JNL_CONSTRUCTORS


# closures with bodies that may stay put, nested closures, both equality
# forms, key regexes and intervals ahead of a test: the cases the
# translation to shielded definitions and the equality tables must get right
SHAPED_FORMULAS = [
    'eq(@"a", @"b")', 'eq(#1, #2)', 'eq(#1 / @"a", #2)', '[@/a|c/ / test(eq(eps, 0))]',
    '[#2:3 / test([@"b"])]',
    '[(eps)*]', '[(test([@"a"]))* / @"b"]', '[((@"a")*)* / @"b"]',
    '[((@"a")* / (@"b")*)* / #1]', '[(test([@"a"]) / @"a")* / test(eq(eps, 1))]',
    '[((@"a")* / test([#2]))* / @"c"]', '[(#1:2 / test(eq(eps, 0)) / eps)*]',
    'eq((@"a")*, (@"b")*)', 'eq((@"a")* / @"a", (@"a")*)', 'eq((@/a|b/)*, (#1:2)* / #1)',
    'eq((test([@"a"]))*, eps)', 'eq(test([@"b"]), (@"a")* / test([@"b"]))',
    '[(eps / (@"a" / test(!eq(@"b", @"c")))*)* / test(eq(@"b", 2))]',
    'eq((#1:2)*, (#2)* / #1)', 'eq(#1:2, #2:3)', '!eq((@/./)* / #1, (@/./)* / #2)',
    '[((#1:*)* / test(eq(@"a", @"b")))* / @"c"]',
]


def test_compiled_shapes_against_oracle():
    rng = random.Random(8117)
    formulas = [parse_jnl(text) for text in SHAPED_FORMULAS]
    for _ in range(40):
        t = random_tree(rng, 4, 3)
        for f in formulas:
            want = frozenset(n for n in t.nodes() if oracle_holds(t, f, n))
            _check_compiled(t, f, want, t.nodes())


DEEP_FORMULAS = [
    '[(@"a")* / test(eq(eps, 0))]', '[(@/a|b/ / #1:2)* / @"b"]',
    '[(test([@"a"]) / @"a")* / test(eq(eps, 0))]', 'eq(@"a" / @"a", @"b")',
    'eq(@/a|b/, #1:*)', '!eq(@"a", 0) && [((@"a")* / #2)* / @"b"]',
    'eq(#1:*, @"a" / @"b") || [#2 / test(eq(eps, "x"))]',
]


def test_compiled_evaluator_on_deep_chains():
    """Depth-5000 chains, against the set-at-a-time interpreter: no
    recursion follows the document's depth.  Membership is checked at a
    sample of nodes along the chain, the paths of eval_unary (quadratic in
    size on a chain) for one formula."""
    rng = random.Random(5000)
    for _ in range(2):
        t = jt.from_python(random_chain(rng, 5000))
        members = list(range(0, t.size, 997)) + [t.size - 1]
        for text in DEEP_FORMULAS:
            f = parse_jnl(text)
            _check_compiled(t, f, interpreter_sat(t, f), members, text == DEEP_FORMULAS[0])


W1_FORMULAS = [
    '[(@/k1.*/)*]', 'eq(@"items" / #1, @"items" / #2)', '[(@/k1.*/)* / test(eq(eps, "x"))]',
    '[#2:3 / test(eq(eps, 42))]', 'eq(@/k1.*/, @/k2.*/)', 'eq(#1, #2) && ![@"k3"]',
    '[@"items" / #3 / (#1:* / @/k[0-9]/)* / test(eq(eps, 17))]',
]


def test_compiled_evaluator_on_w1():
    """A W1-shaped document of about 20,000 nodes against the set-at-a-time
    interpreter, membership at every 101st node."""
    rng = random.Random(7)
    t = jt.from_python({"items": [w1_value(rng, 5) for _ in range(80)]})
    assert t.size > 10_000
    for text in W1_FORMULAS:
        f = parse_jnl(text)
        _check_compiled(t, f, interpreter_sat(t, f), range(0, t.size, 101))


def test_star_sweep_is_linear_in_work():
    """eq((@"a")*, (@"a")*) holds everywhere; the chain sweep never builds
    the quadratic reach sets."""
    t = jt.from_python(random_chain(random.Random(1), 5000, keys=("a",)))
    f = parse_jnl('eq((@"a")*, (@"a")*)')
    assert eval_unary_ids(t, f) == frozenset(t.nodes())


def _nested_closures(k):
    """(..((@"a")* / @"x2")* .. / @"xk")*: k closures, each inside the next."""
    text = '(@"a")*'
    for i in range(2, k + 1):
        text = f'({text} / @"x{i}")*'
    return text


def test_nested_closures_grow_linearly(monkeypatch):
    """The strict paths of a closure repeat every closure nested in it.  Each
    closure still gets one definition per continuation, and eq's reach sets
    one closure per path and continuation, so both grow with the nesting
    depth instead of its factorial (720 definitions at depth 6)."""
    for k in (6, 8):
        f = parse_jnl(f'[{_nested_closures(k)} / test(eq(eps, 1))]')
        assert len(translate._jnl_to_recursive(f, None).definitions) == k
    built = []
    axis = jnl._axis
    monkeypatch.setattr(jnl, "_axis", lambda t, b, cont: built.append(b) or axis(t, b, cont))
    t = jt.from_python({"a": {"x2": {"a": {"b": 1}}, "b": [1]}, "x3": {"x2": 1}})
    for k in (6, 8):
        built.clear()
        eval_unary_ids(t, parse_jnl(f'eq({_nested_closures(k)} / @"b", {_nested_closures(k)})'))
        assert len(built) <= 2 * k + 1


def _nested_keys_value(rng, depth):
    if depth == 0 or (depth < 9 and rng.random() < 0.2):
        return rng.choice([0, 1])
    keys = rng.sample(["a", "b", "x2", "x3", "x4", "x5", "x6"], rng.randint(1, 3))
    return {k: _nested_keys_value(rng, depth - 1) for k in keys}


def test_nested_closures_against_interpreter():
    """Six nested closures on documents whose keys let them all move,
    against the set-at-a-time interpreter, membership at every 7th node."""
    rng = random.Random(6006)
    formulas = [parse_jnl(text) for text in (
        f'[{_nested_closures(6)} / test(eq(eps, 1))]', f'[{_nested_closures(6)} / @"b"]',
        f'eq({_nested_closures(5)} / @"b", {_nested_closures(6)} / @"a")',
        f'[{_nested_closures(4)} / test(eq({_nested_closures(3)}, @"b"))]')]
    hits = set()
    for _ in range(8):
        t = jt.from_python(_nested_keys_value(rng, 9))
        for i, f in enumerate(formulas):
            want = interpreter_sat(t, f)
            hits.update(i for n in want if n)
            _check_compiled(t, f, want, range(0, t.size, 7))
    assert hits == set(range(len(formulas)))  # each holds below the root somewhere


def test_compose_is_relation_composition():
    rng = random.Random(5)
    for _ in range(40):
        t = random_tree(rng, 3, 3)
        a = random_jnl_binary(rng, 1)
        b = random_jnl_binary(rng, 1)
        ab = eval_binary(t, Compose(a, b))
        ra, rb = eval_binary(t, a), eval_binary(t, b)
        composed = frozenset((x, z) for (x, y) in ra for (y2, z) in rb if y == y2)
        assert ab == composed


def test_star_contains_identity_and_is_closed():
    rng = random.Random(6)
    for _ in range(30):
        t = random_tree(rng, 3, 3)
        a = random_jnl_binary(rng, 1)
        star = eval_binary(t, Star(a))
        assert frozenset((p, p) for p in t.domain) <= star
        step = eval_binary(t, a)
        grown = star | frozenset((x, z) for (x, y) in star for (y2, z) in step if y == y2)
        assert grown == star


def test_index_and_key_exists_always_disjoint():
    rng = random.Random(8)
    for _ in range(40):
        t = random_tree(rng, 3, 3)
        via_index = eval_unary(t, Exists(IdxAxis(1)))
        via_key = eval_unary(t, Exists(KeyAxis("a")))
        assert not (via_index & via_key)


def test_key_axis_deterministic():
    rng = random.Random(9)
    for _ in range(40):
        t = random_tree(rng, 3, 3)
        pairs = eval_binary(t, KeyAxis("a"))
        sources = [src for src, _ in pairs]
        assert len(sources) == len(set(sources))


def test_not_and_or_are_set_operations():
    rng = random.Random(10)
    for _ in range(30):
        t = random_tree(rng, 3, 3)
        f = random_jnl_unary(rng, 2)
        g = random_jnl_unary(rng, 2)
        assert eval_unary(t, jnl.Not(f)) == t.domain - eval_unary(t, f)
        assert eval_unary(t, And(f, g)) == eval_unary(t, f) & eval_unary(t, g)
        assert eval_unary(t, jnl.Or(f, g)) == eval_unary(t, f) | eval_unary(t, g)


# -- find filters -----------------------------------------------------------------


def corpus(rng, count=20):
    docs = []
    for _ in range(count):
        value = random_value(rng, 2, 3)
        if not isinstance(value, dict):
            value = {"v": value}
        docs.append(value)
    docs.append({"name": "Sue", "age": 7})
    docs.append({"name": {"first": "Sue"}})
    return docs


def filter_oracle(doc, filt) -> bool:
    """Independent interpreter of the mini filter dialect over python data."""
    def nav(value, path):
        for seg in path.split("."):
            if seg.isdigit():
                idx = int(seg)
                if not isinstance(value, list) or idx > len(value):
                    return None, False
                value = value[idx - 1]
            else:
                if not isinstance(value, dict) or seg not in value:
                    return None, False
                value = value[seg]
        return value, True

    def cond(value_path, spec, doc):
        value, ok = nav(doc, value_path)
        if isinstance(spec, dict) and spec:
            dollars = [k for k in spec if k.startswith("$")]
            if dollars:
                return ok and value == spec["$eq"]
            return all(cond(f"{value_path}.{k}", v, doc) for k, v in spec.items())
        return ok and value == spec

    def run(f):
        for key, val in f.items():
            if key == "$and":
                if not all(run(x) for x in val):
                    return False
            elif key == "$or":
                if not any(run(x) for x in val):
                    return False
            elif key == "$not":
                if run(val):
                    return False
            else:
                if not cond(key, val, doc):
                    return False
        return True

    return run(filt)


def test_filter_example_sue():
    filt = parse_document('{"name": {"$eq": "Sue"}}')
    f = compile_find_filter(filt)
    assert f == EqConst(KeyAxis("name"), parse_document('"Sue"'))
    assert eval_membership(parse_document('{"name": "Sue"}'), f, ())
    assert not eval_membership(parse_document('{"name": "Bob"}'), f, ())


def test_filter_empty_and_is_trivial():
    assert compile_find_filter(parse_document('{"$and": []}')) == Top()
    assert compile_find_filter(parse_document("{}")) == Top()


def test_filter_agrees_with_interpreter_oracle():
    rng = random.Random(55)
    docs = corpus(rng)
    filters = [
        {"name": {"$eq": "Sue"}},
        {"name": "Sue"},
        {"name": {"first": "Sue"}},
        {"a": 1},
        {"$or": [{"a": 1}, {"b": {"$eq": 2}}]},
        {"$and": [{"a": {"$eq": 1}}, {"$not": {"b": 2}}]},
        {"c.1": 0},
        {"a.b": {"$eq": "x"}},
        {"$not": {"name": "Sue"}},
    ]
    for filt in filters:
        compiled = compile_find_filter(jt.from_python(filt))
        for doc in docs:
            got = eval_membership(jt.from_python(doc), compiled, ())
            assert got == filter_oracle(doc, filt), (filt, doc)


@pytest.mark.parametrize("filt, formula", [
    ({"a.\u00b2": 1}, 'eq(@"a" / @"\u00b2", 1)'),  # a superscript digit is a key
    ({"\u0661": 1}, 'eq(@"\u0661", 1)'),            # so is an Arabic-Indic one
    ({"a.2": 1}, 'eq(@"a" / #2, 1)'),
])
def test_filter_only_ascii_digit_segments_are_positions(filt, formula):
    assert compile_find_filter(jt.from_python(filt)) == parse_jnl(formula)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string limit on this interpreter")
def test_filter_position_past_int_string_limit():
    with pytest.raises(UnsupportedOperator, match="int-string limit"):
        compile_find_filter(jt.from_python({"1" * 5000: 1}))


@pytest.mark.parametrize("filt", [
    {"$gt": 3},
    {"a": {"$lt": 2}},
    {"a": {"$eq": 1, "b": 2}},
    {"$and": 3},
    {"a.0": 1},
])
def test_filter_unsupported_operators(filt):
    with pytest.raises(UnsupportedOperator):
        compile_find_filter(jt.from_python(filt))
