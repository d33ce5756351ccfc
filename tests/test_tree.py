import random
import sys
import threading
import time
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import jlogic.jnl as jnl
import jlogic.tree as jt
from jlogic.errors import (
    DuplicateKey,
    InvariantViolation,
    JLogicError,
    MalformedFormula,
    MalformedSyntax,
    NonNaturalNumber,
    UnknownNode,
    UnsupportedValue,
)
from jlogic.tree import (
    NodeKind,
    from_python,
    height,
    navigate,
    parse_document,
    serialize,
    structural_equal,
    subtree,
    to_python,
    verify_invariants,
)
from helpers import naive_equal, random_tree, random_value

DEEP = 3000  # nesting past the C scanner's recursion limit
PERSON_DOC = '{"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["fishing","yoga"]}'


def person():
    return parse_document(PERSON_DOC)


def test_parse_person_doc_shape():
    t = person()
    assert t.kind(0) is NodeKind.OBJ
    assert set(t.keys_of(0)) == {"name", "age", "hobbies"}
    hobbies = t.node_at(navigate(t, ["hobbies"]))
    assert t.kind(hobbies) is NodeKind.ARR
    assert t.child_count(hobbies) == 2


def test_parse_empty_object():
    t = parse_document("{}")
    assert t.size == 1
    assert t.kind(0) is NodeKind.OBJ
    assert t.children(0) == ()


@pytest.mark.parametrize("text,exc", [
    ('{"a":1,"a":2}', DuplicateKey),
    ("-5", NonNaturalNumber),
    ("1.5", NonNaturalNumber),
    ("2e3", NonNaturalNumber),
    ("true", UnsupportedValue),
    ("false", UnsupportedValue),
    ("null", UnsupportedValue),
    ('{"a": true}', UnsupportedValue),
    ("[1,]", MalformedSyntax),
    ('{"a" 1}', MalformedSyntax),
    ("01", MalformedSyntax),
    ("", MalformedSyntax),
    ('"unterminated', MalformedSyntax),
    ("-abc", MalformedSyntax),
    ("NaN", NonNaturalNumber),
    ("-Infinity", NonNaturalNumber),
    ('"\\u+0e9"', MalformedSyntax),
    ('"\\u 0e9"', MalformedSyntax),
    ('"\\u0_e9"', MalformedSyntax),
    ('"\\u-0e9"', MalformedSyntax),
    # past the C scanner's nesting limit: the fallback parser answers
    ("[" * DEEP + '"\\u+0e9"' + "]" * DEEP, MalformedSyntax),
    ("[" * DEEP + '"\\u 0e9"' + "]" * DEEP, MalformedSyntax),
    ("[" * DEEP + '"\\u0_e9"' + "]" * DEEP, MalformedSyntax),
    ("[" * DEEP + '"\\u-0e9"' + "]" * DEEP, MalformedSyntax),
    ("[" * DEEP + "-abc" + "]" * DEEP, MalformedSyntax),
    ("[" * DEEP + "-1" + "]" * DEEP, NonNaturalNumber),
    ("[" * DEEP + "NaN" + "]" * DEEP, NonNaturalNumber),
    ("[" * DEEP + '{"a":1,"a":2}' + "]" * DEEP, DuplicateKey),
    ("[" * DEEP + "true" + "]" * DEEP, UnsupportedValue),
], ids=lambda v: v if isinstance(v, type) or len(v) < 20 else f"{v[DEEP - 1:DEEP + 9]}-deep")
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_document(text)


class _Color(IntEnum):
    RED = 1


class _Str(str):
    pass


class _List(list):
    pass


@pytest.mark.parametrize("value, expected", [
    ({1: 0}, UnsupportedValue("object key 1 is not a string")),
    ({1: 0, "a": 0}, UnsupportedValue("object key 1 is not a string")),
    ([True], UnsupportedValue("value True is outside the model")),
    ({"a": None}, UnsupportedValue("value None is outside the model")),
    ([1.5], UnsupportedValue("value of type float is outside the model")),
    ((1, 2), UnsupportedValue("value of type tuple is outside the model")),
    ({"a": [[-1]]}, NonNaturalNumber("negative number -1")),
    (_Color.RED, 1),
    ([_Str("x"), {"k": _Color.RED}], ["x", {"k": 1}]),
    (OrderedDict([("b", 1), ("a", [2])]), {"a": [2], "b": 1}),
    (_List([1, _List(["y"]), []]), [1, ["y"], []]),
])
def test_from_python_model_checks(value, expected):
    """Python values outside the model fail with the fault's type and
    message; subclass instances build what their base types build."""
    if isinstance(expected, JLogicError):
        with pytest.raises(type(expected)) as info:
            from_python(value)
        assert str(info.value) == str(expected)
    else:
        assert from_python(value).columns() == from_python(expected).columns()


def test_minus_zero_is_zero():
    # the builder, not the scanner, rejects negatives, and -0 is not one
    assert parse_document("-0").columns() == parse_document("0").columns()
    assert parse_document('{"a": [-0]}') == parse_document('{"a": [0]}')


@pytest.mark.parametrize("wrap", [0, DEEP])
@pytest.mark.parametrize("text, exc, fragment", [
    ('{"a": -1, "a": 2}', DuplicateKey, "'a'"),
    ("[-1, 1.5]", NonNaturalNumber, r"1\.5"),
])
def test_scanner_faults_come_before_negatives(text, exc, fragment, wrap):
    """A fault the scanner's hooks see anywhere in the text is reported
    before a negative number, which only the builder checks."""
    with pytest.raises(exc, match=fragment):
        parse_document("[" * wrap + text + "]" * wrap)


# scalar faults only: the C scanner's structural messages vary between versions
@pytest.mark.parametrize("text", ['"\\u+0e9"', '"unterminated', '"a\x01b"', "-abc"])
def test_deep_scalar_fault_reads_as_shallow(text):
    wrap = 1200  # past the C scanner's nesting limit
    with pytest.raises(MalformedSyntax) as shallow:
        parse_document(text)
    with pytest.raises(MalformedSyntax) as deep:
        parse_document("[" * wrap + text + "]" * wrap)
    assert deep.value.pos == shallow.value.pos + wrap
    assert str(deep.value) == str(shallow.value).replace(
        f"offset {shallow.value.pos})", f"offset {deep.value.pos})")


def test_serialize_int_leaf():
    assert serialize(parse_document("5")) == "5"


def test_serialize_reparse_isomorphic():
    t = person()
    again = parse_document(serialize(t))
    assert serialize(again) == serialize(t)
    assert again == t


def test_serialize_idempotent_second_pass():
    text = serialize(person())
    assert serialize(parse_document(text)) == text


def test_serialize_sorts_keys():
    assert serialize(parse_document('{"b":2,"a":1}')) == '{"a":1,"b":2}'


def test_subtree_of_name():
    t = person()
    sub = subtree(t, navigate(t, ["name"]))
    assert sub == parse_document('{"first":"John","last":"Doe"}')


def test_subtree_identity():
    t = person()
    assert subtree(t, ()) == t


def test_subtree_unknown_node():
    with pytest.raises(UnknownNode):
        subtree(person(), (9, 9))


def test_subtree_invariants_random():
    rng = random.Random(101)
    for _ in range(50):
        t = random_tree(rng)
        for n in t.nodes():
            verify_invariants(subtree(t, t.path_of(n)))


def test_structural_equal_reflexive():
    t = person()
    for n in t.nodes():
        assert structural_equal(t, t.path_of(n), t.path_of(n))


def test_structural_equal_object_order_insensitive():
    t = parse_document('[{"a":1,"b":2},{"b":2,"a":1}]')
    assert structural_equal(t, (0,), (1,))


def test_structural_equal_array_order_sensitive():
    t = parse_document("[[1,2],[2,1]]")
    assert not structural_equal(t, (0,), (1,))


def test_structural_equal_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(40):
        t = random_tree(rng)
        nodes = list(t.nodes())
        for _ in range(20):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert t.equal_subtrees(a, b) == naive_equal(t, a, t, b)


def test_structural_equal_equivalence_relation():
    rng = random.Random(13)
    pool = [random_tree(rng, 2, 2) for _ in range(6)]
    big = jt.from_python([to_python(t) for t in pool for _ in range(2)])
    nodes = list(big.children(0))
    for a in nodes:
        assert big.equal_subtrees(a, a)
        for b in nodes:
            assert big.equal_subtrees(a, b) == big.equal_subtrees(b, a)
            for c in nodes:
                if big.equal_subtrees(a, b) and big.equal_subtrees(b, c):
                    assert big.equal_subtrees(a, c)


def test_equal_serializations_iff_structurally_equal():
    rng = random.Random(23)
    for _ in range(60):
        t1, t2 = random_tree(rng, 2), random_tree(rng, 2)
        combined = from_python([to_python(t1), to_python(t2)])
        assert (serialize(t1) == serialize(t2)) == structural_equal(combined, (0,), (1,))


def test_navigate_examples():
    t = person()
    john = navigate(t, ["name", "first"])
    assert t.value(t.node_at(john)) == "John"
    fishing = navigate(t, ["hobbies", 1])
    assert t.value(t.node_at(fishing)) == "fishing"
    assert navigate(t, ["missing"]) is None
    assert navigate(t, ["hobbies", 3]) is None
    assert navigate(t, ["age", "deeper"]) is None


def test_navigate_rejects_zero_index():
    with pytest.raises(ValueError):
        navigate(person(), ["hobbies", 0])


def test_height_examples():
    assert height(parse_document("7")) == 0
    assert height(parse_document("{}")) == 0
    assert height(person()) == 2


def test_height_subtree_monotone():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tree(rng)
        for n in t.nodes():
            assert height(subtree(t, t.path_of(n))) <= height(t)


def test_deep_chain_round_trip():
    n = 3000
    text = '{"a":' * n + "0" + "}" * n
    t = parse_document(text)
    assert height(t) == n
    assert serialize(t) == text
    verify_invariants(t)


def test_empty_string_is_a_valid_key():
    t = parse_document('{"": 5}')
    assert navigate(t, [""]) == (0,)
    assert serialize(t) == '{"":5}'
    verify_invariants(t)


def test_key_navigation_is_deterministic():
    rng = random.Random(31)
    for _ in range(30):
        t = random_tree(rng)
        for n in t.nodes():
            keys = t.keys_of(n)
            assert len(set(keys)) == len(keys)


json_values = st.recursive(
    st.one_of(st.integers(min_value=0, max_value=50), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(json_values)
def test_roundtrip_property(value):
    t = from_python(value)
    verify_invariants(t)
    assert parse_document(serialize(t)) == t
    assert to_python(t) == value or isinstance(value, dict)


@settings(max_examples=80, deadline=None)
@given(json_values)
def test_to_python_inverts_from_python(value):
    assert from_python(to_python(from_python(value))) == from_python(value)


# -- ingestion paths, subtree identity ---------------------------------------------

# single characters that break the grammar, and whole tokens that keep it
# or hit a model rule (negative, fractional, literal, duplicate key, escape)
_MUTATIONS = list('{}[]",:\\-.eE0 \n\x01é١') + [
    "-1", "-abc", "1.5", "1e5", "1.", "01", "NaN", "Infinity", "-Infinity", "true", "null",
    '"a":1,', '{"a":1,"a":2}', '"\\u00e9"', '"\\ud800"', '"\\ud800\\udc00"', '"\\u+0e9"',
    "\\u", "[[[", "]]]"]


def _fallback(text):
    """The iterative parser alone, as used past the C scanner's depth."""
    return from_python(jt._Parser(text).parse_document())


def _outcome(parse, text):
    try:
        return serialize(parse(text))
    except JLogicError as exc:
        return type(exc)


def test_stdlib_and_fallback_parsers_agree_on_mutants():
    rng = random.Random(2024)
    for _ in range(3000):
        chars = list(serialize(random_tree(rng, 3, 3)))
        for _ in range(rng.randint(1, 3)):
            roll, pos = rng.random(), rng.randint(0, len(chars))
            if roll < 0.4:
                chars.insert(pos, rng.choice(_MUTATIONS))
            elif roll < 0.7 and pos < len(chars):
                del chars[pos]
            elif pos < len(chars):
                chars[pos] = rng.choice(_MUTATIONS)
        text = "".join(chars)
        assert _outcome(parse_document, text) == _outcome(_fallback, text), text


def test_deep_document_every_path():
    n = 5000
    text = '{"a":' * n + "0" + "}" * n
    t = parse_document(text)
    assert t.size == n + 1 and height(t) == n
    assert serialize(parse_document(serialize(t))) == text
    verify_invariants(t)
    assert t.equal_subtrees(n, t.node_at((0,) * n))
    assert not t.equal_subtrees(0, 1)


def _int_limit():
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


@pytest.mark.skipif(not _int_limit(), reason="no int-string limit on this interpreter")
@pytest.mark.parametrize("wrap", [0, DEEP])
def test_number_past_int_string_limit(wrap):
    digits = "7" * (_int_limit() + 700)
    with pytest.raises(MalformedSyntax, match="limit"):
        parse_document("[" * wrap + digits + "]" * wrap)
    with pytest.raises(MalformedFormula, match="limit"):
        jnl.parse_jnl(f'eq(@"a", {"[" * wrap}{digits}{"]" * wrap})')
    with pytest.raises(MalformedFormula, match="limit"):
        jnl.parse_jnl(f"[#{digits}]")


def test_ids_are_preorder_and_sort_paths():
    rng = random.Random(41)
    for _ in range(30):
        t = random_tree(rng)
        paths = [t.path_of(n) for n in t.nodes()]
        assert paths == sorted(paths)
        assert [t.node_at(p) for p in paths] == list(t.nodes())
        assert t.paths_of(t.nodes()) == paths
        assert t.domain == set(paths) and len(t.domain) == t.size
        assert jnl.eval_unary(t, jnl.TOP) == t.domain
        verify_invariants(t)


@pytest.mark.parametrize("text,formula", [
    ('{"a":' * 5000 + "0" + "}" * 5000, 'eq(@"a", 0)'),
    ("[" * 5000 + "0" + "]" * 5000, "eq(#1, 0)"),
], ids=["object-chain", "array-chain"])
def test_paths_on_deep_chains(text, formula):
    t = parse_document(text)
    # a path costs its depth, so every node of the chain would cost
    # 12.5M steps: take every 50th depth and the leaf
    sample = list(range(0, t.size, 50)) + [t.size - 1]
    paths = [t.path_of(n) for n in sample]
    assert paths == [(0,) * n for n in sample]
    assert [t.node_at(p) for p in paths] == sample
    assert t.paths_of(sample) == paths
    assert jnl.eval_unary(t, jnl.parse_jnl(formula)) == {(0,) * (t.size - 2)}


def _columns(kinds, vals, children, keys=None):
    return jt.JsonTree([NodeKind[k] for k in kinds], vals, children,
                       keys or [None] * len(kinds))


@pytest.mark.parametrize("tree", [
    _columns(["ARR", "INT", "ARR"], [None, 0, None], [(2,), (), (1,)]),
    _columns(["ARR", "ARR", "INT"], [None, None, 0], [(1, 2), (2,), ()]),
    _columns(["ARR", "INT", "INT"], [None, 0, 1], [(1,), (), ()]),
    _columns(["ARR", "INT", "INT"], [None, 0, 1], [(1,), (2,), ()]),
    _columns(["OBJ", "INT", "INT"], [None, 0, 1], [(1, 2), (), ()], [("b", "a"), None, None]),
    _columns(["OBJ", "INT", "INT"], [None, 0, 1], [(1, 2), (), ()], [("a", "a"), None, None]),
    _columns(["ARR", "ARR", "INT", "INT"], [None, None, 0, 1], [(3, 1), (2,), (), ()]),
    _columns(["ARR", "INT"], [None, 0], [(1, 2), ()]),
], ids=["child-before-parent", "two-parents", "no-parent", "leaf-with-children",
        "unsorted-keys", "repeated-keys", "siblings-out-of-pre-order", "child-past-the-end"])
def test_verify_invariants_rejects_broken_columns(tree):
    with pytest.raises(InvariantViolation):
        verify_invariants(tree)


def test_const_lookup_absent_is_unequal():
    t = parse_document('[{"a":[1,"x"]},{"a":[1,"x"]},[1,"x"]]')
    ids = t.subtree_ids()
    const = parse_document('{"a":[1,"x"]}')
    assert t.const_id(const) == ids[1] == ids[t.node_at((1,))]
    assert t.const_id(parse_document('[1,"x"]')) == ids[t.node_at((2,))]
    assert t.const_id(parse_document('{"a":[1,"y"]}')) is None
    assert t.const_id(parse_document('"y"')) is None


def test_equal_and_hash_are_exact():
    rng = random.Random(43)
    trees = [random_tree(rng, 2, 2) for _ in range(60)]
    for t1 in trees:
        for t2 in trees:
            same = serialize(t1) == serialize(t2)
            assert (t1 == t2) == same
            if same:
                assert hash(t1) == hash(t2)


def test_shared_tree_lazy_ids_under_threads():
    rng = random.Random(47)
    values = [random_value(rng, 3, 3) for _ in range(40)]
    oracle = from_python(values * 3)
    nodes = list(oracle.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(300)]
    expected = [serialize(oracle, oracle.path_of(a)) == serialize(oracle, oracle.path_of(b))
                for a, b in pairs]
    deadline = time.monotonic() + 0.6
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        while time.monotonic() < deadline:
            shared = from_python(values * 3)  # fresh: no ids built yet
            answers, errors = {}, []

            def worker(i, shared=shared, answers=answers, errors=errors):
                try:
                    answers[i] = [shared.equal_subtrees(a, b) for a, b in pairs]
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads)
            assert not errors
            assert all(answers[i] == expected for i in range(8))
    finally:
        sys.setswitchinterval(previous)
