import random

import pytest

import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.regex as rx
import jlogic.translate as tr
import jlogic.tree as jt
from jlogic.errors import FragmentViolation
from jlogic.tree import parse_document
from helpers import oracle_jsl, random_jnl_unary, random_jsl, random_tree


def jsl_nodes(tree, phi):
    return frozenset(tree.path_of(n) for n in tree.nodes() if oracle_jsl(tree, n, phi))


def test_worked_equality_example_compiles_exactly():
    const = parse_document('{"x":1}')
    phi = jnl.EqConst(jnl.Compose(jnl.Test(jnl.Exists(jnl.KeyAxis("b"))),
                                  jnl.KeyAxis("a")), const)
    expected = jsl.And(jsl.DiaKey(rx.word_regex("a"), jsl.Atom(jsl.SameAsTest(const))),
                       jsl.DiaKey(rx.word_regex("b"), jsl.TOP))
    assert tr.jnl_to_jsl(phi) == expected
    assert jsl.to_text(tr.jnl_to_jsl(phi)) == 'dia("a") same({"x":1}) && dia("b") true'


def test_top_translates_both_ways():
    assert tr.jnl_to_jsl(jnl.TOP) == jsl.TOP
    assert tr.jsl_to_jnl(jsl.TOP) == jnl.TOP


def test_same_as_becomes_eq_on_eps():
    const = parse_document("5")
    assert tr.jsl_to_jnl(jsl.Atom(jsl.SameAsTest(const))) == jnl.EqConst(jnl.Eps(), const)


def _admissible_jnl(rng, depth):
    while True:
        phi = random_jnl_unary(rng, depth)
        try:
            tr.jnl_to_jsl(phi)
        except FragmentViolation:
            continue
        return phi


def _admissible_jsl(rng, depth):
    def only_sameas(phi):
        return all(isinstance(f.test, jsl.SameAsTest)
                   for f in jsl.subformulas(phi) if isinstance(f, jsl.Atom))
    while True:
        phi = random_jsl(rng, depth)
        if only_sameas(phi):
            return phi


def test_jnl_to_jsl_preserves_node_sets():
    rng = random.Random(301)
    for _ in range(300):
        phi = _admissible_jnl(rng, rng.randint(0, 3))
        out = tr.jnl_to_jsl(phi)
        t = random_tree(rng, 3, 3)
        assert jnl.eval_unary(t, phi) == jsl_nodes(t, out), jnl.unary_to_text(phi)


def test_jsl_to_jnl_preserves_node_sets():
    rng = random.Random(302)
    for _ in range(300):
        phi = _admissible_jsl(rng, rng.randint(0, 3))
        out = tr.jsl_to_jnl(phi)
        t = random_tree(rng, 3, 3)
        assert jsl_nodes(t, phi) == jnl.eval_unary(t, out), jsl.to_text(phi)


def test_double_translation_preserves_semantics():
    rng = random.Random(303)
    for _ in range(100):
        phi = _admissible_jsl(rng, 2)
        back = tr.jnl_to_jsl(tr.jsl_to_jnl(phi))
        t = random_tree(rng, 3, 3)
        assert jsl_nodes(t, phi) == jsl_nodes(t, back)


def test_eqpaths_rejected():
    with pytest.raises(FragmentViolation):
        tr.jnl_to_jsl(jnl.parse_jnl("eq(eps, eps)"))


def test_star_rejected():
    with pytest.raises(FragmentViolation):
        tr.jnl_to_jsl(jnl.parse_jnl('[(@"a")*]'))


@pytest.mark.parametrize("text", ["unique", "int", "pattern(/a/)", "minCh(2)"])
def test_node_tests_other_than_sameas_rejected(text):
    with pytest.raises(FragmentViolation):
        tr.jsl_to_jnl(jsl.parse_jsl(text))


def test_violation_names_the_construct():
    try:
        tr.jsl_to_jnl(jsl.parse_jsl("unique"))
    except FragmentViolation as exc:
        assert exc.construct == "unique"
