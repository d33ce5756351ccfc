"""The benchmark's own tests: seeded inputs, expected-answer functions and a
smoke run of every workload at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import expect  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.generate(workload, seed, str(tmp_path / name), tiny=True)
    same = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not same.left_only and not same.right_only
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", same.common_files,
                                           shallow=False)
    assert not mismatch and not errors
    manifest = (tmp_path / "a" / "manifest.json").read_bytes()
    assert manifest != (tmp_path / "c" / "manifest.json").read_bytes()


def test_g_walk():
    assert expect.g_valid({"items": [{"k1": "abc", "k22": [3, 100]}, "x"]})
    assert not expect.g_valid({"items": [{"k1": [101]}]})
    assert not expect.g_valid({"items": [["a1"]]})
    # keys outside k[0-9]+ are not constrained
    assert expect.g_valid({"items": [{"name": "Not Checked", "k3": 0}]})
    assert expect.g_valid({"other": 999})


def test_query_walks():
    doc = {"a": [1, {"b": 1, "c": 1}], "k12": {"k2": 3}, "k1": {"k13": {"k2": 0}}}
    assert expect.query_members(doc, {"f": "key", "k": "b"}) == {("a", 2)}
    assert expect.query_members(doc, {"f": "idx", "i": 2}) == {("a",)}
    assert expect.query_members(doc, {"f": "eqpp", "a": "b", "b": "c"}) == {("a", 2)}
    assert expect.query_members(doc, {"f": "eqc", "k": "k2", "c": 3}) == {("k12",)}
    assert expect.query_members(doc, {"f": "keyre", "re": "k1.*"}) == {(), ("k1",)}
    closure = {"f": "closure", "re": "k1.*", "k": "k2"}
    assert expect.query_members(doc, closure) == {(), ("k12",), ("k1",), ("k1", "k13")}
    assert len(expect.query_members(doc, {"f": "true"})) == expect.count_nodes(doc) == 11
    assert expect.render(()) == "(root)" and expect.render(("a", 2, "b")) == "a/2/b"


def test_truth_tables_and_witnesses():
    x, y = "x1", "x2"
    assert expect.cnf_sat([[(x, True)], [(x, False), (y, True)]])
    assert not expect.cnf_sat([[(x, True)], [(x, False)]])
    assert expect.cnf_witness_ok({x: [0], y: {"w": 0}}, [[(x, True), (y, True)]])
    assert not expect.cnf_witness_ok({x: {"w": 0}, y: {"w": 0}}, [[(x, True), (y, True)]])
    assert not expect.cnf_witness_ok({x: [0]}, [[(x, True), (y, True)]])
    # forall x exists y: x != y is true; exists y forall x: x != y is false
    clauses = [[(x, True), (y, True)], [(x, False), (y, False)]]
    assert expect.qbf_true([("forall", x), ("exists", y)], clauses)
    assert not expect.qbf_true([("exists", y), ("forall", x)], clauses)
    strategy = {"X": {"T": {"X": {"F": 0}}, "F": {"X": {"T": 0}}}}
    assert expect.qbf_witness_ok(strategy, [("forall", x), ("exists", y)], clauses)
    losing = {"X": {"T": {"X": {"T": 0}}, "F": {"X": {"T": 0}}}}
    assert not expect.qbf_witness_ok(losing, [("forall", x), ("exists", y)], clauses)
    assert expect.witness_ok({"a": 0, "b": 0}, {"prop": "min_keys", "k": 2})
    assert not expect.witness_ok({"a": 0}, {"prop": "min_keys", "k": 2})


def test_spec_evaluator():
    spec = ["obj", [["a", ["int", 2, 8, 2]], ["b", ["str", "a(b|c)*"]]], ["a"], None]
    assert expect.spec_holds(spec, {"a": 4, "b": "abcb"})
    assert not expect.spec_holds(spec, {"a": 5})
    assert not expect.spec_holds(spec, {"b": "a"})
    assert expect.spec_holds(["arr", ["enum", [1, "x"]]], [1, "x", 1])
    assert expect.spec_holds(["box_key", "k.*", ["same", 1]], {"k1": 1, "z": 2})
    assert not expect.spec_holds(["dia_idx", 2, ["same", 1]], [1])
    assert expect.spec_holds(["neg", ["and", ["same", 1], ["same", 2]]], 1)
    assert expect.find_cycle(["g1", "g2"], [("g1", "g2")]) is None
    cycle = expect.find_cycle(["g1", "g2"], [("g1", "g2"), ("g2", "g1")])
    assert expect.is_cycle(cycle, [("g1", "g2"), ("g2", "g1")])
    assert not expect.is_cycle(["g1", "g2"], [("g1", "g2")])


def test_benchmark_names_match_the_run():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    layer_names = [f"{name}.{stat}" for name in tracer.function_names() for stat in tracer.STATS]
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(layer_names) <= set(declared)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(
        1 - result["failed"] / result["attempted"])


@pytest.mark.parametrize("workload, absent", [
    ("validate", ("jnl.", "decision.search.")),
    ("query", ("recursive.eval_recursive", "decision.")),
    ("reason", ("decision.automata.",)),
])
def test_smoke_trace(workload, absent):
    result = _run(workload, 1)
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["trace.uncalled"]["value"] == 0
    assert metrics["cli.main.calls"]["value"] == result["attempted"]
    for name, metric in metrics.items():
        if name.endswith(".calls") and name.startswith(absent):
            assert metric["value"] == 0, name


def test_refuses_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "query",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
