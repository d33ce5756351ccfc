"""Command-line front door.

Subcommands: query, validate, compile, sat, check-wf, automaton.  Exit
codes are stable for scripting: 0 for success/VALID/SAT/ACCEPT, 1 for the
negative verdicts, 2 for usage and parse errors and for internal errors
(``error: internal: …``).  Results go to stdout, diagnostics to stderr.
File arguments accept ``-`` for standard input.

An argv that starts with a subcommand's name is parsed by that
subcommand's parser alone, built on the first such call and kept for the
rest of the process: six parsers at most, none of which keeps anything
of a call.  Any other argv (``-h``, no arguments, an unknown name, a
leading option or ``--``) goes to the whole parser, ``build_parser``,
built afresh each time, which also reports arguments a subcommand leaves
over.  Its messages are argparse's own either way.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from . import jnl
from . import jsl
from . import recursive as rec
from . import schema as sch
from . import translate
from . import tree as jt
from .decision import Bounds, automaton_accepts, jsl_to_automaton, \
    recursive_to_automaton, sat_bounded
from .errors import JLogicError, UnknownNode

_SURROGATE = re.compile("[\ud800-\udfff]")


def _read(path: str) -> str:
    """The text of a file argument (``-`` for standard input).  A file that
    cannot be read or is not UTF-8 is an input error that names it."""
    name = "standard input" if path == "-" else path
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise JLogicError(f"cannot read {name}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise JLogicError(f"cannot read {name}: not UTF-8 text ({exc.reason})") from None


def _parse_node_arg(text: str):
    if text in ("", "(root)"):
        return []
    return [_position(seg) if seg.isascii() and seg.isdigit() else seg
            for seg in text.split("/")]


def _position(seg: str) -> int:
    try:
        position = int(seg)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise UnknownNode(f"array position of {len(seg)} digits is over the interpreter's "
                          f"int-string limit of {limit} digits") from None
    if position < 1:
        raise UnknownNode(f"array positions are 1-based, got {position}")
    return position


def _labels(tree: jt.JsonTree, ids, render, sep: str) -> list:
    """The path label of each ascending node id: its steps (object keys,
    1-based array positions) rendered and joined by ``sep``; None for the
    root."""
    keys, rendered = tree.columns()[3], {}

    def step(m, i):  # each distinct key or position is rendered once
        ks = keys[m]
        label = ks[i] if ks is not None else i + 1
        text = rendered.get(label)
        if text is None:
            text = rendered[label] = render(label)
        return text

    return jt.walk_paths(tree, ids, step, lambda steps: sep.join(steps) if steps else None)


def _load_formula(args) -> str:
    if getattr(args, "formula", None) is not None:
        return args.formula
    return _read(args.formula_file)


def cmd_query(args) -> int:
    doc = jt.parse_document(_read(args.document))
    phi = jnl.parse_jnl(_load_formula(args))
    if args.node is not None:
        path = jt.navigate(doc, _parse_node_arg(args.node))
        if path is None:
            print(f"no node at {args.node!r}", file=sys.stderr)
            return 2
        member = jnl.eval_membership(doc, phi, path)
        if args.format == "json":
            print(json.dumps({"member": 1 if member else 0}))
        else:
            print("true" if member else "false")
        return 0 if member else 1
    # ids are DFS pre-order, so sorting them sorts the paths
    sat = sorted(jnl.eval_unary_ids(doc, phi))
    if args.format == "json":
        labels = _labels(doc, sat, json.dumps, ", ")
        print("[" + ", ".join("[]" if lab is None else f"[{lab}]" for lab in labels) + "]")
    elif sat:
        labels = _labels(doc, sat, str, "/")
        text = "\n".join("(root)" if lab is None else lab for lab in labels)
        # a lone surrogate in a key cannot be encoded: print it as the escape
        # that the json format uses
        print(_SURROGATE.sub(lambda m: f"\\u{ord(m.group()):04x}", text))
    return 0


def cmd_validate(args) -> int:
    doc = jt.parse_document(_read(args.document))
    text = _read(args.schema)
    if args.logic == "schema":
        ok = sch.validate_schema(doc, sch.parse_schema(text))
    elif args.logic == "jsl":
        ok = jsl.validate(doc, jsl.parse_jsl(text))
    else:
        ok = rec.eval_recursive(rec.parse_recursive(text), doc)
    if args.format == "json":
        print(json.dumps({"valid": 1 if ok else 0}))
    else:
        print("VALID" if ok else "INVALID")
    return 0 if ok else 1


def _compile_artifact(text: str, source: str, target: str) -> str:
    if source == "schema":
        compiled = sch.schema_to_jsl(sch.parse_schema(text))
        if target == "schema":
            return text.strip()
        if isinstance(compiled, rec.RecursiveJslExpr):
            if target == "jsl":
                return rec.to_text(compiled)
            raise JLogicError("a recursive schema only compiles to the schema logic")
        if target == "jsl":
            return jsl.to_text(compiled)
        return jnl.unary_to_text(translate.jsl_to_jnl(compiled))
    if source == "jsl":
        phi = jsl.parse_jsl(text)
        if target == "jsl":
            return jsl.to_text(phi)
        if target == "schema":
            return sch.schema_to_text(sch.jsl_to_schema(phi), indent=2)
        return jnl.unary_to_text(translate.jsl_to_jnl(phi))
    phi = jnl.parse_jnl(text)
    if target == "jnl":
        return jnl.unary_to_text(phi)
    compiled = translate.jnl_to_jsl(phi)
    if target == "jsl":
        return jsl.to_text(compiled)
    return sch.schema_to_text(sch.jsl_to_schema(compiled), indent=2)


def cmd_compile(args) -> int:
    print(_compile_artifact(_read(args.input), args.source, args.target))
    return 0


def cmd_sat(args) -> int:
    text = _load_formula(args)
    if args.logic == "jnl":
        formula = jnl.parse_jnl(text)
    elif args.logic == "jsl":
        formula = jsl.parse_jsl(text)
    else:
        formula = rec.parse_recursive(text)
    bounds = Bounds(args.max_depth, args.max_width, args.max_atoms)
    verdict = sat_bounded(formula, bounds, budget=args.budget)
    if args.format == "json":
        if verdict.satisfiable:
            print(json.dumps({"sat": 1, "witness": jt.to_python(verdict.witness)}))
        else:
            print(json.dumps({"sat": 0, "bounds": [bounds.max_depth, bounds.max_width,
                                                   bounds.max_atoms]}))
    elif verdict.satisfiable:
        print("SAT")
        print(jt.serialize(verdict.witness))
    else:
        print(f"UNSAT up to {bounds}")
    return 0 if verdict.satisfiable else 1


def cmd_check_wf(args) -> int:
    expr = rec.parse_recursive(_load_formula(args))
    graph = rec.precedence_graph(expr)
    print("symbols:", " ".join(graph.symbols) if graph.symbols else "(none)")
    for src, dst in sorted(graph.edges):
        print(f"  {src} -> {dst}")
    cycle = rec.find_cycle(expr)
    if cycle is None:
        print("WELL-FORMED")
        return 0
    print("ILL-FORMED cycle: " + " -> ".join(cycle))
    return 1


def cmd_automaton(args) -> int:
    doc = jt.parse_document(_read(args.document))
    text = _load_formula(args)
    if args.logic == "jsl":
        auto = jsl_to_automaton(jsl.parse_jsl(text))
    else:
        auto = recursive_to_automaton(rec.parse_recursive(text))
    ok = automaton_accepts(auto, doc)
    print(f"states: {auto.size}", file=sys.stderr)
    print("ACCEPT" if ok else "REJECT")
    return 0 if ok else 1


def _add_formula_args(parser, required=True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--formula", help="inline formula text")
    group.add_argument("--formula-file", help="file with the formula ('-' for stdin)")


def _query_args(q):
    q.add_argument("document")
    _add_formula_args(q)
    q.add_argument("--node", help="path like name/first or hobbies/2; membership check")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_query)


def _validate_args(v):
    v.add_argument("document")
    v.add_argument("schema", help="schema or formula file ('-' for stdin)")
    v.add_argument("--logic", choices=("schema", "jsl", "rjsl"), default="schema")
    v.add_argument("--via", dest="via_jsl", choices=("jsl",), default=None,
                   help="accepted for compatibility: a schema is always validated "
                        "through its schema-logic formula")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(func=cmd_validate)


def _compile_args(c):
    c.add_argument("input", help="input file ('-' for stdin)")
    c.add_argument("--from", dest="source", required=True,
                   choices=("schema", "jsl", "jnl"))
    c.add_argument("--to", dest="target", required=True,
                   choices=("schema", "jsl", "jnl"))
    c.set_defaults(func=cmd_compile)


def _sat_args(s):
    _add_formula_args(s)
    s.add_argument("--logic", choices=("jnl", "jsl", "rjsl"), default="jsl")
    s.add_argument("--max-depth", type=int, default=3)
    s.add_argument("--max-width", type=int, default=3)
    s.add_argument("--max-atoms", type=int, default=6)
    s.add_argument("--budget", type=int, default=200_000,
                   help="most candidate trees to enumerate, counting those masked and "
                        "dropped without being built (default %(default)s)")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_sat)


def _check_wf_args(w):
    _add_formula_args(w)
    w.set_defaults(func=cmd_check_wf)


def _automaton_args(a):
    a.add_argument("document")
    _add_formula_args(a)
    a.add_argument("--logic", choices=("jsl", "rjsl"), default="jsl")
    a.set_defaults(func=cmd_automaton)


# name: help line, and the function that adds the subcommand's arguments
_SUBCOMMANDS = {
    "query": ("evaluate a navigational formula over a document", _query_args),
    "validate": ("validate a document against a schema or formula", _validate_args),
    "compile": ("compile between schema, jsl and jnl", _compile_args),
    "sat": ("bounded satisfiability search", _sat_args),
    "check-wf": ("precedence graph and well-formedness", _check_wf_args),
    "automaton": ("compile a formula and run it over a document", _automaton_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jlogic",
        description="Query, validate and reason about JSON documents.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, fill) in _SUBCOMMANDS.items():
        fill(sub.add_parser(name, help=line))
    return parser


@cache
def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand alone, filled once per process."""
    parser = argparse.ArgumentParser(prog=f"jlogic {name}")
    _SUBCOMMANDS[name][1](parser)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """The arguments of one call, as the whole parser would read them: a
    subcommand's arguments go to its parser untouched, and what that
    parser leaves over is the top level's error."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return build_parser().parse_args(argv)
    args, extra = _subcommand_parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    """Run one command; returns its exit code.  Engine errors, unreadable
    input files among them, print ``error: …``; any other exception is
    reported as ``error: internal: …``.  Both exit 2, never a negative
    verdict."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except JLogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the boundary: a crash must not read as a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
