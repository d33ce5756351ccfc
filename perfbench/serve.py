"""The serving process: answers a workload's requests through
`jlogic.cli.main(argv)`, one at a time (closed loop, one client), with
stdout and stderr captured, and checks every output.

    python3 perfbench/serve.py --dir WORKDIR --src SRC --mode MODE [--seconds S]

MODE is
- `first`: a cold process.  Prints `answered` as soon as the first request
  returns, then `ok` or the failure; the parent times launch to `answered`.
- `run`: answers the first request once to warm up, then repeats the whole
  request sequence while another pass fits in S seconds.
- `trace`: one untraced pass, then one pass with every layer wrapped.

Results go to WORKDIR/result.json.  Checks run outside the timed region
and with tracing off.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expect  # noqa: E402
import tracer as tracing  # noqa: E402

# functions each workload must reach at least once in a traced pass
EXPECTED = {
    "validate": ("tree.parse_document", "tree.from_python", "tree.tree_heights",
                 "regex.parse_regex", "regex.matches", "recursive.parse_recursive",
                 "recursive.eval_recursive", "schema.parse_schema", "schema.validate_schema",
                 "schema.schema_to_jsl", "decision.automata.recursive_to_automaton",
                 "decision.automata.automaton_accepts", "cli.main"),
    "query": ("tree.parse_document", "tree.from_python", "regex.matches", "jnl.parse_jnl",
              "jnl.eval_unary", "jnl.eval_membership", "cli.main"),
    "reason": ("tree.serialize", "jnl.parse_jnl", "jsl.parse_jsl", "recursive.parse_recursive",
               "recursive.precedence_graph", "recursive.find_cycle", "schema.parse_schema",
               "schema.schema_to_jsl", "schema.jsl_to_schema", "schema.schema_to_text",
               "translate.jsl_to_jnl", "decision.search.sat_bounded", "cli.main"),
}


# A fixed piece of pure-Python work that never touches jlogic, timed before
# every request: a JSON parse, walk and sort (allocation-heavy, like
# ingestion) and a tuple-and-dict loop (interpreter-bound, like the
# search).  Its median over a pass measures the CPU speed that pass got;
# run.py rescales the pass's latencies by it.
_PROBE_DOC = json.dumps([{f"k{i}": [i, "abc", {"x": i}] for i in range(40)}
                         for _ in range(4)])


def speed_probe() -> float:
    start = perf_counter()
    stack = [json.loads(_PROBE_DOC)]
    keys = []
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys.extend(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    keys.sort()
    seen = {}
    for i in range(1500):
        key = (i % 17, i % 5, i & 3)
        if key not in seen:
            seen[key] = len(seen)
    return perf_counter() - start


class Server:
    def __init__(self, manifest, tracer=None):
        from jlogic import cli
        self.cli = cli
        self.requests = manifest["requests"]
        self.tracer = tracer
        self.output_bytes = 0
        self.pass_probes = []   # median speed-probe time of each pass

    def answer(self, req):
        """(latency seconds, exit code or None, stdout, stderr, exception)."""
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        if self.tracer:
            self.tracer.begin_request(req["id"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(list(req["argv"]))
            except Exception as error:  # counted as a failed request
                exc = error
            latency = perf_counter() - start
        return latency, rc, out.getvalue(), err.getvalue(), exc

    def failure(self, req, rc, out, err, exc):
        """None when the output passes the request's check, else the reason."""
        if exc is not None:
            return f"{type(exc).__name__} escaped cli.main"
        if rc == 2:
            lines = err.strip().splitlines()
            return "exit 2: " + (lines[-1] if lines else "")
        enabled = self.tracer.enabled if self.tracer else False
        if self.tracer:
            self.tracer.enabled = False
        try:
            ok = check(req["check"], rc, out)
        finally:
            if self.tracer:
                self.tracer.enabled = enabled
        return None if ok else f"wrong output (exit {rc}): {out[:120]!r}"

    def run_pass(self, index, records, failures):
        total = 0.0
        probes = []
        for req in self.requests:
            probes.append(speed_probe())
            latency, rc, out, err, exc = self.answer(req)
            total += latency
            self.output_bytes += len(out.encode("utf-8", "surrogatepass"))
            reason = self.failure(req, rc, out, err, exc)
            records.append([req["id"], index, latency, reason is not None])
            if reason is not None:
                failures.setdefault(req["id"], reason)
        self.pass_probes.append(statistics.median(probes))
        return total


def check(spec, rc, out) -> bool:
    kind = spec["kind"]
    if kind == "exact":
        return rc == spec["exit"] and out == spec["stdout"]
    if kind == "paths":
        if rc != 0:
            return False
        with open(spec["expect"], encoding="utf-8") as handle:
            expected = json.load(handle)
        if spec["format"] == "json":
            got = [expect.render(tuple(p)) for p in json.loads(out)]
        else:
            got = out.splitlines()
        return sorted(got) == expected
    if kind == "sat":
        if not spec["sat"]:
            return rc == 1 and out == "UNSAT up to ({},{},{})\n".format(*spec["bounds"])
        lines = out.split("\n", 1)
        if rc != 0 or lines[0] != "SAT" or len(lines) < 2:
            return False
        return expect.witness_ok(json.loads(lines[1]), spec)
    if kind == "compile":
        return rc == 0 and compiled_verdicts(spec, out) == spec["verdicts"]
    if kind == "wf":
        lines = out.splitlines()
        edges = [f"  {a} -> {b}" for a, b in spec["edges"]]
        if rc != (0 if spec["well_formed"] else 1) or len(lines) != len(edges) + 2:
            return False
        if lines[0] != "symbols: " + " ".join(spec["symbols"]) or lines[1:-1] != edges:
            return False
        if spec["well_formed"]:
            return lines[-1] == "WELL-FORMED"
        prefix = "ILL-FORMED cycle: "
        return (lines[-1].startswith(prefix)
                and expect.is_cycle(lines[-1][len(prefix):].split(" -> "), spec["edges"]))
    raise ValueError(f"unknown check {kind!r}")


def compiled_verdicts(spec, artifact):
    """Root verdicts of the compiled artifact on the check documents,
    evaluated with the evaluator of the target logic."""
    from jlogic import jnl, jsl, schema, tree
    target = spec["target"]
    try:
        if target == "jsl":
            phi = jsl.parse_jsl(artifact)
            run = lambda t: jsl.validate(t, phi)
        elif target == "schema":
            doc = schema.parse_schema(artifact)
            run = lambda t: schema.validate_schema(t, doc)
        else:
            phi = jnl.parse_jnl(artifact)
            run = lambda t: jnl.eval_membership(t, phi, ())
        return [bool(run(tree.parse_document(text))) for text in spec["docs"]]
    except Exception as error:  # a broken artifact is a wrong output
        return f"{type(error).__name__}: {error}"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--mode", choices=("first", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    os.chdir(args.dir)
    with open("manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    tracer = tracing.Tracer() if args.mode == "trace" else None
    server = Server(manifest, tracer)
    first = manifest["requests"][0]

    if args.mode == "first":
        answer = server.answer(first)
        print("answered", flush=True)
        reason = server.failure(first, *answer[1:])
        print(reason or "ok", flush=True)
        return

    server.answer(first)  # warm caches; not counted
    records, failures, passes = [], {}, []
    result = {"records": records, "failures": failures, "passes": passes}
    if args.mode == "run":
        start = perf_counter()
        while True:
            gc.collect()
            pass_start = perf_counter()
            passes.append(server.run_pass(len(passes), records, failures))
            spent = perf_counter() - pass_start
            if perf_counter() - start + spent > args.seconds:
                break
    else:
        gc.collect()
        untraced = server.run_pass(0, [], {})
        tracer.install()
        tracer.enabled = True
        server.output_bytes = 0
        gc.collect()
        passes.append(server.run_pass(0, records, failures))
        tracer.enabled = False
        uncalled = [name for name in EXPECTED[manifest["workload"]]
                    if tracer.stats[name][0] == 0]
        layers = tracer.layer_metrics(server.output_bytes)
        # the untraced pass, rescaled to the speed the traced pass got
        untraced *= server.pass_probes[1] / server.pass_probes[0]
        layers["trace.overhead_s"] = (passes[0] - untraced, "s")
        layers["trace.uncalled"] = (len(uncalled), "count")
        result["layers"] = layers
        result["uncalled"] = uncalled
        tracer.write_spans("spans.jsonl")
    result["probe_s"] = server.pass_probes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
