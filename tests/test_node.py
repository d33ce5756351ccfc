"""Interned syntax-tree nodes (``jlogic._node``): equality is identity and
hashing is O(1), so both are total on nodes of any depth, and so is
``repr``, which prints through the iterative printers of ``jlogic.syntax``.
The walk driver visits each distinct node once, on a stack of its own.
"""

import ast
import os
import subprocess
import sys

import pytest

import jlogic
import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.recursive as recursive
import jlogic.regex as rx
import jlogic.schema as schema
import jlogic.translate as translate
from jlogic._node import walk
from jlogic.decision import Bounds, Qbf, automata, sat_bounded, search
from jlogic.decision.search import _Program
from jlogic.errors import BadBounds
from jlogic.tree import NodeKind, parse_document

DEPTH = 3000


def _jsl_chain():
    phi = jsl.Atom(jsl.KindTest(NodeKind.INT))
    for _ in range(DEPTH):
        phi = jsl.Not(phi)
    return phi


def _jnl_chain():
    phi = jnl.Exists(jnl.KeyAxis("a"))
    for _ in range(DEPTH):
        phi = jnl.Not(phi)
    return phi


def _star_nest():
    r = rx.Lit("a")
    for _ in range(DEPTH):
        r = rx.Star(r)
    return r


@pytest.mark.parametrize("build", [_jsl_chain, _jnl_chain, _star_nest])
def test_hash_and_equality_of_deep_nodes(build):
    first, second = build(), build()
    assert first is second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert len({first, second, first.body}) == 2
    assert repr(first) == repr(second) and repr(first) != repr(first.body)


def test_equal_constructions_are_one_object():
    assert rx.Cls(((97, 122),), True) is rx.Cls(ranges=((97, 122),), negated=True)
    assert rx.Cls(((97, 122),)) is rx.Cls(((97, 122),), negated=False)
    assert rx.Cls(((97, 122),)) is not rx.Cls(((97, 122),), True)
    top = jsl.Top()
    assert top is jsl.TOP
    assert jsl.BoxIdx(1, None, top) is jsl.BoxIdx(lo=1, hi=None, body=top)
    assert jsl.BoxIdx(1, None, top) is not jsl.DiaIdx(1, None, top)
    assert jsl.parse_jsl('dia("a") int && !obj') is jsl.parse_jsl('dia("a") int && !obj')
    assert jnl.parse_jnl('eq(@"a", [1, {"b": 2}])') is jnl.parse_jnl('eq(@"a",[1,{"b":2}])')
    assert jsl.Atom(jsl.SameAsTest(parse_document("[1]"))) is \
        jsl.Atom(jsl.SameAsTest(parse_document("[ 1 ]")))
    assert Bounds(2, 3, 4) is Bounds(max_depth=2, max_width=3, max_atoms=4)


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError):
        jsl.And(jsl.TOP)
    with pytest.raises(TypeError):
        jsl.And(jsl.TOP, jsl.TOP, jsl.TOP)
    with pytest.raises(TypeError):
        jsl.Not(jsl.TOP, body=jsl.TOP)
    with pytest.raises(TypeError):
        rx.Cls(((97, 122),), sign=True)


def test_nodes_are_immutable():
    phi = jsl.Not(jsl.TOP)
    with pytest.raises(AttributeError):
        phi.body = jsl.BOTTOM
    with pytest.raises(AttributeError):
        del phi.body
    with pytest.raises(AttributeError):
        phi.extra = 1
    with pytest.raises(AttributeError):
        rx.Lit("a")._key = ()
    assert phi.body is jsl.TOP


def test_checks_run_on_new_nodes_and_reject_them():
    for _ in range(2):  # a rejected node is never entered, so it is checked again
        with pytest.raises(BadBounds):
            Bounds(-1, 2, 2)
        with pytest.raises(ValueError):
            Qbf((("exists", "x1"),), ((("x2", True),),))
    assert Bounds(0, 0, 1).max_atoms == 1


def test_reprs():
    assert repr(jsl.KindTest(NodeKind.INT)) == "KindTest(kind=<NodeKind.INT: 'int'>)"
    assert repr(Bounds(1, 2, 3)) == "Bounds(max_depth=1, max_width=2, max_atoms=3)"
    assert repr(rx.parse_regex("(ab)*|c")) == "/c|(ab)*/"
    assert repr(jsl.parse_jsl("!int")) == "<jsl !int>"
    assert repr(jnl.parse_jnl('[@"a"]')) == '<jnl [@"a"]>'


def test_regex_sort_key_is_structural():
    # alt orders its operands by the cached key, whatever order they come in
    parts = [rx.parse_regex(t) for t in ("b", "a*", "[a-c]", "ab", "a|b", ".", "()")]
    assert rx.alt(parts) is rx.alt(parts[::-1])
    assert rx.to_text(rx.alt(parts)) == "()|a|b|.|[a-c]|ab|a*"


def test_import_leaves_dataclasses_out_and_resolves_all_names():
    src = os.path.dirname(os.path.dirname(os.path.abspath(jlogic.__file__)))
    code = ("import sys, jlogic, jlogic.cli, jlogic.decision\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"
            "for module in (jlogic, jlogic.decision):\n"
            "    for name in module.__all__:\n"
            "        getattr(module, name)\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _children(f):
    return [getattr(f, name) for name in ("lhs", "rhs", "body") if hasattr(f, name)]


def test_walk_visits_each_distinct_node_once_and_goes_deep():
    visits = []

    def size(f):  # nodes of the formula, counted per occurrence
        visits.append(f)
        total = 1
        for c in _children(f):
            total += yield c
        return total

    shared = jsl.TOP
    for _ in range(20):
        shared = jsl.And(shared, shared)
    assert walk(size, shared) == 2 ** 21 - 1
    assert len(visits) == 21
    visits.clear()
    assert walk(size, jsl.And(jsl.TOP, jsl.TOP), memo=False) == 3
    assert len(visits) == 3
    assert walk(size, _jsl_chain()) == DEPTH + 1
    memo = {}
    assert walk(size, jsl.TOP, memo) == 1 and memo == {jsl.TOP: 1}


SHARED_JOINS = 18


def _shared(leaf, join):
    phi = leaf
    for _ in range(SHARED_JOINS):
        phi = join(phi, phi)
    return phi


WALKING = [jsl, jnl, translate, recursive, schema, automata, search]


@pytest.mark.parametrize("name", ["validate", "specialize", "sat_bounded", "jnl_to_jsl",
                                  "eval_unary_ids"])
def test_shared_subformulas_cost_one_visit_each(name, monkeypatch):
    # obj joined with itself 18 times: 19 distinct nodes, 2^19 - 1 occurrences;
    # the walks those calls make visit fewer than ten nodes per distinct one
    phi = _shared(jsl.Atom(jsl.KindTest(NodeKind.OBJ)), jsl.And)
    u = _shared(jnl.parse_jnl('[@"a"]'), jnl.And)
    call = {"validate": lambda: jsl.validate(parse_document("{}"), phi),
            "specialize": lambda: jsl.specialize(phi, NodeKind.OBJ),
            "sat_bounded": lambda: sat_bounded(phi, Bounds(2, 2, 3)).satisfiable,
            "jnl_to_jsl": lambda: translate.jnl_to_jsl(u) is _shared(
                jsl.DiaKey(rx.word_regex("a"), jsl.TOP), jsl.And),
            "eval_unary_ids": lambda: jnl.eval_unary_ids(parse_document('{"a": 1}'), u) == {0}}
    visits = []

    def counted(visit, arg, memo=None):
        return walk(lambda sub: visits.append(sub) or visit(sub), arg, memo)
    for module in WALKING:
        monkeypatch.setattr(module, "walk", counted)
    assert call[name]() is True
    assert 0 < len(visits) < 10 * (SHARED_JOINS + 1)


def test_program_bits_come_after_their_operands():
    # a reversed pre-order over distinct nodes would put !obj before obj here
    obj = jsl.Atom(jsl.KindTest(NodeKind.OBJ))
    for phi in (jsl.And(jsl.Not(obj), obj), jsl.Or(jsl.And(jsl.Not(obj), obj), jsl.Not(obj)),
                _shared(obj, jsl.And), _shared(obj, lambda f, g: jsl.Or(jsl.Not(f), g))):
        program = _Program({}).compile_recursive(recursive.RecursiveJslExpr((), phi))
        assert len(program.instrs) == len(set(jsl.subformulas(phi)))
        for bit, deps in enumerate(program.deps):
            assert all(dep < bit for dep in deps), jsl.to_text(phi)


WALKED = ["jsl", "translate", "schema", "recursive", "decision/automata", "decision/search", "jnl"]


@pytest.mark.parametrize("module", WALKED)
def test_walkers_do_not_call_themselves(module):
    # formula and schema walkers run on `_node.walk`'s own stack
    path = os.path.join(os.path.dirname(jlogic.__file__), module + ".py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for call in ast.walk(fn) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == fn.name]
    assert found == []
