import random
import re

import pytest

import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.tree as jt
from jlogic.cli import main
from jlogic.decision import automata as am
from jlogic.decision import (
    automaton_accepts,
    complement,
    jsl_to_automaton,
    recursive_to_automaton,
)
from jlogic.errors import AutomatonError, IllFormedRecursion
from jlogic.tree import NodeKind, height, parse_document
from helpers import (
    AUTOMATON_FEATURES,
    JSL_FEATURES,
    automaton_features,
    is_well_formed,
    jsl_features,
    oracle_automaton,
    oracle_jsl,
    random_automaton,
    random_jsl,
    random_tree,
)


def str_automaton():
    return jsl_to_automaton(jsl.Atom(jsl.KindTest(NodeKind.STR)))


def test_single_test_automaton():
    auto = str_automaton()
    assert automaton_accepts(auto, parse_document('"x"'))
    assert not automaton_accepts(auto, parse_document("{}"))


def test_always_true_automaton():
    rng = random.Random(1)
    auto = jsl_to_automaton(jsl.TOP)
    for _ in range(20):
        assert automaton_accepts(auto, random_tree(rng))


def test_compiled_size_linear():
    rng = random.Random(2)
    for _ in range(40):
        phi = random_jsl(rng, 3)
        auto = jsl_to_automaton(phi)
        size = sum(1 for _ in jsl.subformulas(phi))
        assert auto.size <= 2 * size + 2


# one formula per node test at its boundary, and modalities over key
# regexes and open index intervals; each runs on every document below
EDGE_FORMULAS = ("int", "unique", "pattern(/a+b/)", "min(2)", "max(2)", "multOf(0)",
                 "multOf(3)", "minCh(2)", "maxCh(1)", "same([1,2])", "box(2:*) min(1)",
                 "dia(2:*) max(1)", "box(1:1) max(1)", "dia(2:2) max(0)",
                 "box(/a.*/) min(1)", "dia(/[ab]/) !int")
EDGE_DOCS = ("0", "1", "2", "3", "6", '"aab"', '"ab "', "[]", "[1,1]", "[1,2]", "[1,2,0]",
             "[2,1,0]", "{}", '{"a":1,"ab":0,"c":5}', '{"b":"x"}')


def _edge_instances():
    docs = [parse_document(d) for d in EDGE_DOCS]
    for text in EDGE_FORMULAS:
        phi = jsl.parse_jsl(text)
        for t in docs:
            yield phi, t


def test_formula_automaton_differential():
    for phi, t in _edge_instances():
        expected = oracle_jsl(t, 0, phi)
        auto = jsl_to_automaton(phi)
        assert automaton_accepts(auto, t) == expected, (jsl.to_text(phi), t)
        assert automaton_accepts(complement(auto), t) == (not expected), (jsl.to_text(phi), t)
    rng = random.Random(3)
    seen = set()
    for _ in range(500):
        phi = random_jsl(rng, rng.randint(0, 3))
        seen |= jsl_features(phi)
        auto = jsl_to_automaton(phi)
        t = random_tree(rng, 3, 3)
        expected = oracle_jsl(t, 0, phi)
        assert automaton_accepts(auto, t) == expected, jsl.to_text(phi)
        assert automaton_accepts(complement(auto), t) == (not expected), jsl.to_text(phi)
    assert seen >= JSL_FEATURES, JSL_FEATURES - seen


def test_recursive_degenerate_union():
    rng = random.Random(4)
    base = jsl.parse_jsl("obj && dia(/.*/) int")
    expr = rec.make_recursive([], base)
    auto = recursive_to_automaton(expr)
    plain = jsl_to_automaton(base)
    for _ in range(30):
        t = random_tree(rng)
        assert automaton_accepts(auto, t) == automaton_accepts(plain, t)


def test_even_paths_automaton_on_chains():
    expr = rec.parse_recursive(
        "let g1 = box(/.*/) g2; let g2 = dia(/.*/) true && box(/.*/) g1; in g1")
    auto = recursive_to_automaton(expr)
    for h in range(0, 7):
        doc = parse_document('{"a":' * h + "0" + "}" * h if h else "{}")
        assert automaton_accepts(auto, doc) == rec.eval_recursive(expr, doc), h


def test_complete_binary_automaton_random_arrays():
    rng = random.Random(5)
    expr = rec.parse_recursive(
        "let g = !(dia(1) true) || (minCh(2) && maxCh(2) && !unique && box(1:2) g); in g")
    auto = recursive_to_automaton(expr)

    def random_array(depth):
        if depth == 0 or rng.random() < 0.3:
            return []
        return [random_array(depth - 1) for _ in range(rng.randint(1, 3))]

    for _ in range(50):
        t = jt.from_python(random_array(3))
        assert automaton_accepts(auto, t) == rec.eval_recursive(expr, t)


def test_recursive_automaton_differential_random():
    for phi, t in _edge_instances():
        expected = oracle_jsl(t, 0, phi)
        expr = rec.make_recursive([("g", phi)], jsl.SymbolRef("g"))
        auto = recursive_to_automaton(expr)
        assert rec.eval_recursive(expr, t) == expected, (jsl.to_text(phi), t)
        assert automaton_accepts(auto, t) == expected, (jsl.to_text(phi), t)
        assert automaton_accepts(complement(auto), t) == (not expected), (jsl.to_text(phi), t)
    rng = random.Random(6)
    built = 0
    seen = set()
    while built < 60:
        names = tuple(f"g{i}" for i in range(rng.randint(1, 2)))
        try:
            expr = rec.make_recursive(
                [(n, random_jsl(rng, 2, symbols=names)) for n in names],
                random_jsl(rng, 1, symbols=names))
        except Exception:
            continue
        if not is_well_formed(expr):
            continue
        built += 1
        for _, body in expr.definitions + (("", expr.base),):
            seen |= jsl_features(body)
        auto = recursive_to_automaton(expr)
        comp = complement(auto)
        for _ in range(5):
            t = random_tree(rng, 3, 3)
            expected = oracle_jsl(t, 0, rec.unfold(expr, height(t)))
            assert rec.eval_recursive(expr, t) == expected, rec.to_text(expr)
            assert automaton_accepts(auto, t) == expected, rec.to_text(expr)
            assert automaton_accepts(comp, t) == (not expected), rec.to_text(expr)
    assert seen >= JSL_FEATURES, JSL_FEATURES - seen


def test_ill_formed_recursive_rejected():
    expr = rec.parse_recursive("let g = !g; in g")
    with pytest.raises(IllFormedRecursion):
        recursive_to_automaton(expr)


def test_complement_of_str_automaton():
    comp = complement(str_automaton())
    assert not automaton_accepts(comp, parse_document('"x"'))
    assert automaton_accepts(comp, parse_document("{}"))


def test_complement_of_always_true_rejects_everything():
    rng = random.Random(7)
    comp = complement(jsl_to_automaton(jsl.TOP))
    for _ in range(20):
        assert not automaton_accepts(comp, random_tree(rng))


def test_complement_negates_acceptance():
    rng = random.Random(8)
    for _ in range(60):
        phi = random_jsl(rng, 2)
        auto = jsl_to_automaton(phi)
        comp = complement(auto)
        for _ in range(4):
            t = random_tree(rng, 3, 3)
            assert automaton_accepts(comp, t) == (not automaton_accepts(auto, t))


def test_double_complement_restores_acceptance():
    rng = random.Random(9)
    phis = [random_jsl(rng, 2) for _ in range(10)]
    autos = [jsl_to_automaton(phi) for phi in phis]
    for _ in range(100):
        t = random_tree(rng, 3, 3)
        for auto in autos:
            assert automaton_accepts(complement(complement(auto)), t) == \
                automaton_accepts(auto, t)


def test_random_automata_against_oracle():
    # hand-built automata, not compiled from formulas: aliases, shared and
    # self-quantifying states, several finals; each with its complement
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        auto = random_automaton(rng, rng.randint(1, 10))
        seen |= automaton_features(auto)
        comp = complement(auto)
        for _ in range(4):
            t = random_tree(rng, 3, 3)
            expected = oracle_automaton(auto, t)
            assert automaton_accepts(auto, t) == expected, auto
            assert automaton_accepts(comp, t) == (not expected), auto
    assert seen >= AUTOMATON_FEATURES, AUTOMATON_FEATURES - seen


def test_translation_shares_states_and_resolves_aliases():
    # the benchmark's g: one definition, read by both boxes and the base
    g = rec.parse_recursive(
        "let g = (obj && box(/k[0-9]+/) g) || (arr && box(1:*) g) || "
        "(str && pattern(/[a-z]+/)) || (int && max(100)); in box(/items/) g")
    text = rec.to_text(am._to_recursive(recursive_to_automaton(g)))
    assert re.sub(r"q[0-9]+", "q", text) == (
        "let q = obj && box(/k[0-9]+/) q || arr && box(1:*) q || str && pattern(/[a-z]+/)"
        ' || int && max(100); in box("items") q')
    # state 0 is read through the alias chain 2 -> 1 -> 0 and through 1
    chain = am.make_automaton(
        [(0, am.TestAtom(jsl.KindTest(NodeKind.INT))), (1, am.StateAtom(0)),
         (2, am.StateAtom(1)), (3, am.RAnd((am.StateAtom(2), am.StateAtom(1))))], [], {3})
    assert rec.to_text(am._to_recursive(chain)) == "let q0 = int; in q0 && q0"
    # every definition of a doubling DAG is read twice: one each, no copies
    dag = rec.parse_recursive("let g0 = int; " + " ".join(
        f"let g{i} = g{i - 1} || g{i - 1};" for i in range(1, 30)) + " in g29")
    assert len(am._to_recursive(recursive_to_automaton(dag)).definitions) == 29


def test_an_expression_builds_its_automaton_once(monkeypatch, tmp_path, capsys):
    builds = []
    build = am._build_recursive_automaton
    monkeypatch.setattr(am, "_build_recursive_automaton",
                        lambda expr: builds.append(expr) or build(expr))
    text = ("let once1 = box(/.*/) once2; "
            "let once2 = dia(/.*/) true && box(/.*/) once1; in once1")
    expr = rec.parse_recursive(text)
    assert not vars(expr)  # no other test builds this expression
    auto = recursive_to_automaton(expr)
    assert recursive_to_automaton(expr) is auto and builds == [expr]
    assert build(expr) is auto  # a fresh build is the same interned automaton
    assert auto.recursive is auto.recursive is am._to_recursive(auto)
    doc = tmp_path / "doc.json"
    doc.write_text('{"a": {"b": 1}}')
    for _ in range(2):  # 15 states, as when every call built its own
        assert main(["automaton", str(doc), "--logic", "rjsl", "--formula", text]) == 0
        assert capsys.readouterr() == ("ACCEPT\n", "states: 15\n")
    assert builds == [expr]


def test_long_node_state_chain():
    # 5,000 node states, each reading the one before; the run inlines a
    # bounded stretch of the chain per definition
    n = 5000
    node_rules = [(0, am.TestAtom(jsl.KindTest(NodeKind.INT)))]
    node_rules += [(q, am.RAnd((am.StateAtom(q - 1), am.TrueAtom()))) for q in range(1, n)]
    auto = am.make_automaton(node_rules, [], {n - 1})
    comp = complement(auto)
    for text, expected in (("5", True), ('"x"', False), ("[5]", False)):
        t = parse_document(text)
        assert automaton_accepts(auto, t) == expected, text
        assert automaton_accepts(comp, t) == (not expected), text


def test_node_rule_cycles_rejected():
    with pytest.raises(AutomatonError):
        am.make_automaton(
            node_rules=[(0, am.StateAtom(1)), (1, am.StateAtom(0))],
            tree_rules=[],
            final={0})


def test_node_rule_order_and_named_cycle_state():
    chain = [(0, am.StateAtom(1)), (1, am.RAnd((am.StateAtom(2), am.TrueAtom()))),
             (2, am.TrueAtom())]
    assert am.node_rule_order(am.make_automaton(chain, [], {0})) == [2, 1, 0]
    with pytest.raises(AutomatonError, match="cyclic node-state rules through 1$"):
        am.make_automaton(chain[:2] + [(2, am.StateAtom(1))], [], {0})


@pytest.mark.parametrize("node_rules, tree_rules", [
    ([(0, am.QuantAtom(0, am.IdxLabel(1, None)))], []),
    ([(0, am.SymbolAtom("g"))], []),
    ([(0, am.StateAtom(1))], [(1, am.TestAtom(jsl.UniqueTest()))]),
    ([(0, am.StateAtom(7))], []),
])
def test_misplaced_atoms_rejected_at_run(node_rules, tree_rules):
    auto = am.make_automaton(node_rules, tree_rules, {0})
    with pytest.raises(AutomatonError):
        automaton_accepts(auto, parse_document("[1]"))


def test_one_rule_per_state_enforced():
    with pytest.raises(AutomatonError):
        am.make_automaton(
            node_rules=[(0, am.TrueAtom()), (0, am.FalseAtom())],
            tree_rules=[],
            final={0})


def test_acyclicity_checked_on_every_construction():
    rng = random.Random(10)
    for _ in range(50):
        phi = random_jsl(rng, 3)
        auto = jsl_to_automaton(phi)
        am.node_rule_order(auto)  # raises on a cycle
        am.node_rule_order(complement(auto))

