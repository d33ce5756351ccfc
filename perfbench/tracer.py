"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public functions of each jlogic module from outside
the program: every module-level binding of a wrapped function is replaced,
including `from`-import sites such as `jlogic.cli.automaton_accepts` and
`jlogic.recursive.tree_heights`.  Internal calls that go through a module
global are therefore seen too.

For each function it keeps calls, time, self time (the span minus the
part its child spans cover) and errors.  Spans of every function but
`regex.matches` are kept in memory with the request id and the parent
span, and written out at the end; `regex.matches` runs per key and per
string, so it is only aggregated.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# layer module -> wrapped public functions
LAYERS = {
    "tree": ("parse_document", "from_python", "serialize", "to_python", "tree_heights"),
    "regex": ("parse_regex", "matches"),
    "jnl": ("parse_jnl", "eval_unary", "eval_membership"),
    "jsl": ("parse_jsl", "validate", "check_unique"),
    "recursive": ("parse_recursive", "eval_recursive", "precedence_graph", "find_cycle"),
    "schema": ("parse_schema", "validate_schema", "schema_to_jsl", "jsl_to_schema",
               "schema_to_text"),
    "translate": ("jnl_to_jsl", "jsl_to_jnl"),
    "decision.automata": ("jsl_to_automaton", "recursive_to_automaton", "automaton_accepts"),
    "decision.search": ("sat_bounded",),
    "cli": ("main",),
}
AGGREGATED = {"regex.matches"}
STATS = ("calls", "ms", "self_ms", "errors")
# `from`-import sites that must end up wrapped
BINDINGS = (
    ("jlogic.cli", "automaton_accepts"),
    ("jlogic.cli", "jsl_to_automaton"),
    ("jlogic.cli", "recursive_to_automaton"),
    ("jlogic.cli", "sat_bounded"),
    ("jlogic.recursive", "tree_heights"),
)


def function_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Aggregates spans per wrapped function; off until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.stats = {name: [0, 0.0, 0.0, 0] for name in function_names()}
        self.counters = {"nodes": 0, "results": 0, "automata": 0, "states": 0,
                         "witness_nodes": 0}
        self.spans = []
        self.request = None
        self._stack = []     # [span index, child seconds] of the open spans
        self._depth = {}     # open activations per function

    def begin_request(self, request_id):
        self.request = request_id
        self._stack = []
        self._depth = {}

    def call(self, name, fn, args, kwargs):
        stat = self.stats[name]
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        span = None
        if name not in AGGREGATED:
            span = len(self.spans)
            parent = next((s for s, _ in reversed(self._stack) if s is not None), None)
            self.spans.append([self.request, name, parent, 0.0, 0.0])
        frame = [span, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat[3] += 1
            raise
        finally:
            elapsed = perf_counter() - start
            if self._stack and self._stack[-1] is frame:
                self._stack.pop()
            self._depth[name] = depth
            stat[0] += 1
            stat[2] += elapsed - frame[1]
            if depth == 0:
                stat[1] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed
            if span is not None:
                self.spans[span][3:] = [start, elapsed]
        self._observe(name, result)
        return result

    def _observe(self, name, result):
        c = self.counters
        if name == "tree.parse_document":
            c["nodes"] += result.size
        elif name == "jnl.eval_unary":
            c["results"] += len(result)
        elif name in ("decision.automata.jsl_to_automaton",
                      "decision.automata.recursive_to_automaton"):
            c["automata"] += 1
            c["states"] += result.size
        elif name == "decision.search.sat_bounded" and result.satisfiable:
            c["witness_nodes"] += result.witness.size

    def install(self):
        """Wrap every module-level binding of every traced function."""
        modules = {mod: importlib.import_module(f"jlogic.{mod}") for mod in LAYERS}
        wrappers = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                original = getattr(modules[mod], fn, None)
                if callable(original):
                    wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for name, module in list(sys.modules.items()):
            if name != "jlogic" and not name.startswith("jlogic."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
        for mod, attr in BINDINGS:
            value = getattr(sys.modules[mod], attr, None)
            if value is not None and not hasattr(value, "__traced__"):
                raise RuntimeError(f"{mod}.{attr} was not wrapped")

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        wrapper.__traced__ = name
        return wrapper

    def layer_metrics(self, output_bytes):
        out = {}
        for name, (calls, total, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.ms"] = (total * 1e3, "ms")
            out[f"{name}.self_ms"] = (self_s * 1e3, "ms")
            out[f"{name}.errors"] = (errors, "count")
        c = self.counters
        parse_s = self.stats["tree.parse_document"][1]
        out["tree.nodes_per_s"] = (c["nodes"] / parse_s if parse_s else 0.0, "1/s")
        out["jnl.eval_unary.results"] = (c["results"], "count")
        out["decision.automata.states"] = (
            c["states"] / c["automata"] if c["automata"] else 0.0, "count")
        out["decision.search.witness_nodes"] = (c["witness_nodes"], "count")
        out["cli.output_bytes"] = (output_bytes, "bytes")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for request, name, parent, start, elapsed in self.spans:
                handle.write(json.dumps({"request": request, "name": name, "parent": parent,
                                         "start": start, "ms": elapsed * 1e3}) + "\n")
