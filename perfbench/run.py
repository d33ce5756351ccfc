"""The jlogic benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the directory holding `src/jlogic`).  It
1. generates the workload's inputs from the seed in a separate process,
   under `.perfbench/` in the checkout;
2. times several cold interpreters, each answering the first request
   (`setup_s`);
3. serves the fixed request sequence through `jlogic.cli.main` in one
   warm process, pass after pass while another pass fits in `--seconds`,
   and checks every output;
4. prints, as its last line, one JSON object with `correct`, `attempted`,
   `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
   per-layer metrics of one traced pass with `--trace 1`.

Inputs of failed requests are kept under `.perfbench/failed/`.  See
README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("validate", "query", "reason")
SETUP_LAUNCHES = 5
# Median time of serve.speed_probe on an idle 2-core machine (Python
# 3.11).  Each pass's latencies are multiplied by REFERENCE_PROBE_S / (the
# pass's median probe time): the CPU's speed on a shared machine drifts by
# up to 2x for seconds to minutes, and this cancels most of it.  It does
# not depend on jlogic, so a change to jlogic moves the times as it would
# on an idle machine.
REFERENCE_PROBE_S = 0.00075
DEADLINE_S = 170.0


def known_failure(req, reason) -> bool:
    """The baseline failures listed in README.md.  They count in `failed`
    and `ok_ratio` like any other failure; any other failure makes the run
    incorrect."""
    argv = req["argv"]
    if argv[0] == "validate" and len(argv) == 3:
        return reason.startswith("RecursionError")
    if argv[:3] == ["sat", "--formula", "obj && minCh(2)"]:
        return reason.startswith("wrong output")
    return False


def run_child(argv, deadline, **kwargs):
    """Run a child to completion, killing it if the deadline passes."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(argv, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {argv[1]} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"error: {os.path.basename(argv[1])} exited {proc.returncode}")


def setup_time(serve_argv, deadline):
    """Seconds from launching a fresh interpreter until it has answered the
    first request, and whether that answer passed its check."""
    start = time.perf_counter()
    proc = subprocess.Popen(serve_argv, stdout=subprocess.PIPE, text=True)
    # a probe that hangs is killed at the deadline, which ends its output
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        verdict = proc.stdout.readline().strip()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if line.strip() != "answered" or proc.returncode != 0:
        raise SystemExit("error: set-up probe did not answer")
    return elapsed, verdict == "ok"


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.  Request latencies come in
    clusters (one per size step), and a single order statistic jumps
    between clusters from seed to seed; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # integration steps per order statistic
    grid = [(j + 0.5) / (steps * n) for j in range(steps * n)]
    density = [math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))
               for t in grid]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def doubling_rate(points):
    """2**slope of the least-squares fit of log2 latency on log2 size."""
    xs = [math.log2(size) for size, _ in points]
    ys = [math.log2(latency) for _, latency in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
    return 2.0 ** slope


def end_to_end(manifest, result, setups):
    """Metrics from the records.  A request's latency is its median over
    the passes, each rescaled to the reference CPU speed; that repeats
    better from run to run than any one pass or the best of them."""
    requests = manifest["requests"]
    records = result["records"]
    scale = [REFERENCE_PROBE_S / probe for probe in result["probe_s"]]
    samples, failed = {}, set()
    for rid, index, latency, fail in records:
        samples.setdefault(rid, []).append(latency * scale[index])
        if fail:
            failed.add(rid)
    typical = {rid: statistics.median(values) for rid, values in samples.items()}
    done = {rid: latency for rid, latency in typical.items() if rid not in failed}
    ms = [latency * 1e3 for latency in done.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (sum(typical.values()), "s"),
        "req_p50_ms": (quantile(ms, 0.5), "ms"),
        "req_p90_ms": (quantile(ms, 0.9), "ms"),
        "ok_ratio": (sum(1 for r in records if not r[3]) / len(records), "ratio"),
        "doubling_rate": (doubling_rate([(requests[rid]["size"], latency)
                                         for rid, latency in done.items()]), "x/doubling"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    for cls in (1, 2, 3):
        sample = [latency * 1e3 for rid, latency in done.items() if requests[rid]["cls"] == cls]
        metrics[f"class{cls}_p50_ms"] = (quantile(sample, 0.5), "ms")
        print(f"class{cls}: {len(sample)} requests", file=sys.stderr)
    passes = len(result["passes"])
    print("speed probe per pass: " + " ".join(f"{p * 1e3:.3f}" for p in result["probe_s"])
          + f" ms; reference {REFERENCE_PROBE_S * 1e3:.3f} ms", file=sys.stderr)
    print(f"requests: {len(requests)} per pass, {len(done)} completed, median of {passes} "
          f"passes; {len(ms) - math.ceil(0.9 * len(ms))} requests ({passes} timings each) "
          f"beyond p90", file=sys.stderr)
    return metrics


def keep_failures(workdir, root, manifest, failures, label):
    """Copy the inputs of the failed requests where they can be replayed."""
    if not failures:
        return
    dest = os.path.join(root, ".perfbench", "failed", label)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    kept = []
    for rid, reason in sorted(failures.items(), key=lambda item: int(item[0])):
        req = manifest["requests"][int(rid)]
        for arg in req["argv"]:
            path = os.path.join(workdir, arg)
            if os.path.isfile(path):
                shutil.copy(path, dest)
        kept.append({"argv": req["argv"], "reason": reason})
        print(f"failed: {reason}: jlogic {' '.join(req['argv'])[:160]}", file=sys.stderr)
    with open(os.path.join(dest, "failed.json"), "w", encoding="utf-8") as handle:
        json.dump(kept, handle, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description="jlogic benchmark, one workload and seed")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "jlogic", "cli.py")):
        raise SystemExit("error: run from the root of a jlogic checkout (no src/jlogic)")
    label = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(root, ".perfbench", f"work-{label}-{os.getpid()}")
    py = sys.executable
    try:
        gen = [py, os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", workdir, "--src", src]
        run_child(gen + (["--tiny"] if args.tiny else []), deadline)
        with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)

        serve = [py, os.path.join(HERE, "serve.py"), "--dir", workdir, "--src", src]
        setup_time(serve + ["--mode", "first"], deadline)  # untimed: bytecode, file cache
        cold = [setup_time(serve + ["--mode", "first"], deadline)
                for _ in range(SETUP_LAUNCHES)]
        mode = "trace" if args.trace else "run"
        run_child(serve + ["--mode", mode, "--seconds", str(args.seconds)], deadline)
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
            result = json.load(handle)

        failures = result["failures"]
        keep_failures(workdir, root, manifest, failures, label)
        records = result["records"]
        correct = all(ok for _, ok in cold) and all(
            known_failure(manifest["requests"][int(rid)], reason)
            for rid, reason in failures.items())
        if args.trace:
            metrics = result["layers"]
            for name in result["uncalled"]:
                print(f"trace: expected {name} to be called", file=sys.stderr)
            print(f"trace: overhead {metrics['trace.overhead_s'][0]:.3f} s", file=sys.stderr)
            shutil.copy(os.path.join(workdir, "spans.jsonl"),
                        os.path.join(root, ".perfbench", f"spans-{label}.jsonl"))
        else:
            metrics = end_to_end(manifest, result, [t for t, _ in cold])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
