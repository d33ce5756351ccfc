"""Each argv below, run twice through ``jlogic.cli.main`` in one
interpreter, must give the same exit code, stdout and stderr both times,
and the same as a fresh ``python -m jlogic.cli`` with that argv.  The
argvs cover all six subcommands, their help, usage errors and engine
errors.  A process keeps each subcommand's parser and what it derives
from an interned formula, so this is where state carried from one call
to the next would show.

    PYTHONPATH=src python tests/repeated_calls.py

Exits 1 and prints each argv that differs.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

from jlogic.cli import main

INPUTS = {
    "doc.json": '{"name": {"first": "John", "last": "Doe"}, "hobbies": ["fish", "golf"],'
                ' "age": 42}',
    "deep.json": '{"a":' * 200 + "0" + "}" * 200,
    "g.schema.json": '{"definitions": {"g": {"anyOf": [{"type": "number"}, {"type": "object",'
                     ' "additionalProperties": {"$ref": "#/definitions/g"}}]}},'
                     ' "$ref": "#/definitions/g"}',
    "even.rjsl": "let g1 = box(/.*/) g2; let g2 = dia(/.*/) true && box(/.*/) g1; in g1",
    "cycle.rjsl": "let a = !b; let b = a || str; in int",
    "obj.jsl": 'obj && dia("name") obj',
    "bad.json": "\udcff",
}


def argvs(d: str) -> list:
    f = lambda name: os.path.join(d, name)  # noqa: E731
    return [
        ["query", f("doc.json"), "--formula", '[@"name" / @"first"]'],
        ["query", f("doc.json"), "--formula", "[@/.*/]", "--format", "json"],
        ["query", f("doc.json"), "--formula", "eq(#1, \"fish\")", "--node", "hobbies"],
        ["validate", f("deep.json"), f("g.schema.json")],
        ["validate", f("doc.json"), f("g.schema.json"), "--format", "json"],
        ["validate", f("deep.json"), f("even.rjsl"), "--logic", "rjsl"],
        ["validate", f("doc.json"), f("obj.jsl"), "--logic", "jsl"],
        ["compile", f("obj.jsl"), "--from", "jsl", "--to", "schema"],
        ["compile", f("g.schema.json"), "--from", "schema", "--to", "jsl"],
        ["sat", "--formula", "obj && dia(/k[0-9]+/) int && box(/.*/) int"],
        ["sat", "--formula", "obj && !obj", "--format", "json"],
        ["sat", "--logic", "rjsl", "--formula-file", f("even.rjsl")],
        ["check-wf", "--formula-file", f("even.rjsl")],
        ["check-wf", "--formula-file", f("cycle.rjsl")],
        ["automaton", f("doc.json"), "--formula-file", f("obj.jsl")],
        ["automaton", f("deep.json"), "--logic", "rjsl", "--formula-file", f("even.rjsl")],
        # usage errors
        ["-h"], [], ["bogus"], ["--", "sat", "--formula", "obj"], ["validate"],
        *([name, "-h"] for name in ("query", "validate", "compile", "sat", "check-wf",
                                    "automaton")),
        ["sat", "--formula", "obj", "extra"],
        ["sat", "--formula", "obj", "--max-depth", "two"],
        ["sat", "--formula", "obj", "--formula-file", f("obj.jsl")],
        # engine errors
        ["sat", "--formula", "obj &&"],
        ["validate", f("doc.json"), f("missing.json")],
        ["validate", f("bad.json"), f("g.schema.json")],
        ["validate", f("doc.json"), f("cycle.rjsl"), "--logic", "rjsl"],
    ]


def in_process(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh(argv: list) -> tuple:
    run = subprocess.run([sys.executable, "-m", "jlogic.cli", *argv], capture_output=True,
                         text=True, stdin=subprocess.DEVNULL)
    return run.returncode, run.stdout, run.stderr


def main_check() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to it, here and in the children
    bad = 0
    with tempfile.TemporaryDirectory() as d:
        for name, text in INPUTS.items():
            with open(os.path.join(d, name), "w", encoding="utf-8",
                      errors="surrogateescape") as handle:
                handle.write(text)
        for argv in argvs(d):
            first, second, expected = in_process(argv), in_process(argv), fresh(argv)
            shown = " ".join(argv).replace(d + os.sep, "")
            if first == second == expected:
                print(f"same: exit {first[0]}: {shown}")
                continue
            bad += 1
            print(f"DIFFERS: {shown}")
            for label, reply in (("first", first), ("second", second), ("fresh", expected)):
                print(f"  {label}: {reply!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main_check())
