import argparse
import io
import json
import os
import random
import subprocess
import sys

import pytest

import jlogic.cli as cli
import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.regex as rx
from jlogic.cli import build_parser, main
from jlogic.tree import from_python, parse_document, serialize
from helpers import random_tree

PERSON_DOC = '{"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["fishing","yoga"]}'
NUMBER_SCHEMA = '{"type":"number","maximum":12,"multipleOf":4}'


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_query_root_result(files, capsys):
    doc = files("doc.json", PERSON_DOC)
    rc = main(["query", doc, "--formula", 'eq(@"name" / @"first", "John")'])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "(root)"


def test_query_true_lists_all_paths(files, capsys):
    doc = files("doc.json", PERSON_DOC)
    rc = main(["query", doc, "--formula", "true"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    tree = parse_document(PERSON_DOC)
    assert len(lines) == tree.size
    assert "(root)" in lines
    assert "name/first" in lines
    assert "hobbies/1" in lines


def test_query_json_output_round_trips(files, capsys):
    doc = files("doc.json", PERSON_DOC)
    rc = main(["query", doc, "--formula", '[@"hobbies" / #2]', "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    parse_document(out)
    assert json.loads(out) == [[]]


def test_query_membership(files, capsys):
    doc = files("doc.json", PERSON_DOC)
    rc = main(["query", doc, "--formula", "[#1]", "--node", "hobbies"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "true"
    rc = main(["query", doc, "--formula", "[#1]", "--node", "name"])
    assert rc == 1


def test_query_malformed_formula_exit_2(files, capsys):
    doc = files("doc.json", PERSON_DOC)
    rc = main(["query", doc, "--formula", "eq(((("])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_validate_number_schema(files, capsys):
    schema = files("num.schema", NUMBER_SCHEMA)
    good = files("good.json", "8")
    bad = files("bad.json", "13")
    assert main(["validate", good, schema]) == 0
    assert capsys.readouterr().out.strip() == "VALID"
    assert main(["validate", bad, schema]) == 1
    assert capsys.readouterr().out.strip() == "INVALID"


def test_validate_empty_schema_everything(files, capsys):
    schema = files("empty.schema", "{}")
    doc = files("doc.json", PERSON_DOC)
    assert main(["validate", doc, schema]) == 0


def test_validate_via_jsl_agrees(files, capsys):
    schema = files("num.schema", NUMBER_SCHEMA)
    for text, expected in [("8", 0), ("13", 1), ('"x"', 1), ("12", 0)]:
        doc = files("v.json", text)
        direct = main(["validate", doc, schema])
        capsys.readouterr()
        via = main(["validate", doc, schema, "--via", "jsl"])
        capsys.readouterr()
        assert direct == via == expected


def test_validate_jsl_and_rjsl_logic(files, capsys):
    doc = files("doc.json", '{"a":{"b":0}}')
    formula = files("f.jsl", 'dia("a") obj')
    assert main(["validate", doc, formula, "--logic", "jsl"]) == 0
    even = files("even.rjsl",
                 "let g1 = box(/.*/) g2; let g2 = dia(/.*/) true && box(/.*/) g1; in g1")
    assert main(["validate", doc, even, "--logic", "rjsl"]) == 0


def test_logic_verdicts_never_match_a_word_one_at_a_time(files, capsys, monkeypatch):
    # plain formulas, schemas through the logic and witness re-checks all run
    # the compiled closures, which match words through ``regex.word_filter``
    def refuse(*args):
        raise AssertionError("regex.matches called")
    monkeypatch.setattr(rx, "matches", refuse)
    doc = files("doc.json", '{"k1": "ab", "k22": "b", "x": [1, 2]}')
    for formula, expected in [('box(/k[0-9]+/) pattern(/a*b/) && dia("x") dia(2) int', 0),
                              ('dia(/k[0-9]+/) pattern(/a+b/)', 0),
                              ('box(/k[0-9]+/) pattern(/a+b/)', 1)]:
        assert main(["validate", doc, files("f.jsl", formula), "--logic", "jsl"]) == expected
        assert capsys.readouterr() == (["VALID", "INVALID"][expected] + "\n", "")
    schema = files("k.schema.json", '{"type": "object", "required": ["x"],'
                   ' "patternProperties": {"k[0-9]+": {"type": "string", "pattern": "a*b"}}}')
    assert main(["validate", doc, schema, "--via", "jsl"]) == 0
    assert capsys.readouterr() == ("VALID\n", "")
    bad = files("bad.json", '{"k1": 1, "x": 0}')
    assert main(["validate", bad, schema, "--via", "jsl"]) == 1
    assert capsys.readouterr() == ("INVALID\n", "")
    rc = main(["sat", "--formula", 'dia(/k[0-9]+/) pattern(/a+/) && !dia("k1") true',
               "--logic", "jsl", "--max-depth", "1", "--max-width", "1", "--max-atoms", "4"])
    out, err = capsys.readouterr()
    assert (rc, out.splitlines()[0], err) == (0, "SAT", "")
    witness = json.loads(out.splitlines()[1])
    [(key, value)] = witness.items()
    assert key != "k1" and key[0] == "k" and key[1:].isdigit()
    assert value and set(value) == {"a"}


@pytest.mark.parametrize("connective,expected", [("&&", "VALID"), ("||", "INVALID")])
def test_flat_chain_of_3000_operands(files, capsys, connective, expected):
    doc = files("e.json", "{}")
    operand = "obj" if connective == "&&" else "int"
    chain = f" {connective} ".join([operand] * 3000)
    formula = files("chain.jsl", chain)
    rjsl = files("chain.rjsl", f"let g = {chain}; in g")
    invalid = expected == "INVALID"
    for argv in (["validate", doc, formula, "--logic", "jsl"],
                 ["validate", doc, rjsl, "--logic", "rjsl"]):
        assert main(argv) == invalid
        assert capsys.readouterr() == (expected + "\n", "")
    assert main(["automaton", doc, "--formula-file", formula]) == invalid
    assert capsys.readouterr() == ("REJECT\n" if invalid else "ACCEPT\n", "states: 5999\n")
    assert main(["sat", "--formula-file", formula]) == 0
    assert capsys.readouterr() == ("SAT\n0\n" if invalid else "SAT\n{}\n", "")


def test_compile_schema_to_jsl(files, capsys):
    schema = files("s.schema", '{"type":"string","pattern":"(01)+"}')
    assert main(["compile", schema, "--from", "schema", "--to", "jsl"]) == 0
    assert capsys.readouterr().out.strip() == "str && pattern(/(01)+/)"


def test_compile_schema_with_ordinary_property_names(files, capsys):
    # the key class of additionalProperties prints through a DFA of one
    # state per distinct name suffix, here 44 of them
    names = ["name", "email", "address", "phone", "city", "country", "zip", "age",
             "id", "title", "status", "created_at"]
    raw = {"type": "object", "properties": {k: {"type": "string"} for k in names},
           "additionalProperties": {"type": "number"}}
    schema = files("s.schema", json.dumps(raw))
    assert main(["compile", schema, "--from", "schema", "--to", "jsl"]) == 0
    out, err = capsys.readouterr()
    phi = jsl.parse_jsl(out)
    for doc, verdict in (({"name": "x", "zip": "1"}, True), ({"nam": 1, "names": 2}, True),
                         ({"nam": "x"}, False), ({"age": 3}, False)):
        assert jsl.validate(from_python(doc), phi) is verdict, doc


def test_compile_true_to_empty_schema(files, capsys):
    formula = files("t.jsl", "true")
    assert main(["compile", formula, "--from", "jsl", "--to", "schema"]) == 0
    assert capsys.readouterr().out.strip() == "{}"


def test_compile_worked_equality_example(files, capsys):
    formula = files("f.jnl", 'eq(test([@"b"]) / @"a", {"x":1})')
    assert main(["compile", formula, "--from", "jnl", "--to", "jsl"]) == 0
    assert capsys.readouterr().out.strip() == 'dia("a") same({"x":1}) && dia("b") true'


def test_compile_fragment_violation_exit_2(files, capsys):
    formula = files("f.jsl", "unique")
    rc = main(["compile", formula, "--from", "jsl", "--to", "jnl"])
    assert rc == 2
    assert "unique" in capsys.readouterr().err


def test_sat_unsat_output(files, capsys):
    rc = main(["sat", "--formula", '[@"a" / test([#1])] && [@"a" / test([@"b"])]',
               "--logic", "jnl", "--max-depth", "3", "--max-width", "3",
               "--max-atoms", "4"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "UNSAT up to (3,3,4)"


def test_sat_witness_output(files, capsys):
    rc = main(["sat", "--formula", "true", "--logic", "jnl",
               "--max-depth", "2", "--max-width", "2", "--max-atoms", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "SAT"
    assert lines[1] == "{}"


def test_sat_json_round_trips(files, capsys):
    rc = main(["sat", "--formula", 'dia("a") int', "--logic", "jsl",
               "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    payload = json.loads(out)
    assert payload["sat"] == 1
    parse_document(json.dumps(payload["witness"]))


def test_check_wf_reports_cycle(files, capsys):
    rc = main(["check-wf", "--formula", "let g1 = !g1; in g1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "g1 -> g1" in out
    assert "ILL-FORMED" in out


def test_check_wf_well_formed(files, capsys):
    rc = main(["check-wf", "--formula",
               "let g1 = box(/.*/) g2; let g2 = dia(/.*/) true && box(/.*/) g1; in g1"])
    assert rc == 0
    assert "WELL-FORMED" in capsys.readouterr().out


def test_automaton_accept_reject(files, capsys):
    doc = files("doc.json", PERSON_DOC)
    assert main(["automaton", doc, "--formula", 'obj && dia("age") int']) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"
    assert main(["automaton", doc, "--formula", "str"]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_missing_file_exit_2(capsys):
    assert main(["query", "/nonexistent/file.json", "--formula", "true"]) == 2


@pytest.mark.parametrize("command", ["validate", "query"])
@pytest.mark.parametrize("bad", ["not_utf8", "directory"])
def test_unreadable_document_exit_2(files, tmp_path, capsys, command, bad):
    if bad == "directory":
        doc = str(tmp_path)
    else:
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
        doc = str(tmp_path / "bad.json")
    if command == "validate":
        argv = ["validate", doc, files("s.json", "{}")]
    else:
        argv = ["query", doc, "--formula", "true"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert doc in captured.err
    assert "internal" not in captured.err


def test_usage_error_exit_2(capsys):
    assert main(["compile", "x", "--from", "schema"]) == 2
    for bad in (["--max-depth", "-1"], ["--max-width", "-1"], ["--max-atoms", "0"],
                ["--budget", "-5"]):
        assert main(["sat", "--formula", "obj"] + bad) == 2, bad
        err = capsys.readouterr().err
        assert "internal" not in err and bad[0][2:].replace("-", "_") in err, err


def _reference_lines(tree, fmt, formula):
    """Paths rendered the obvious way: navigated from the root, each step
    read off its parent's keys, or a 1-based position in an array."""
    def segments(path):
        out, n = [], 0
        for step in path:
            keys = tree.keys_of(n)
            out.append(keys[step] if keys else step + 1)
            n = tree.children(n)[step]
        return out

    paths = sorted(jnl.eval_unary(tree, jnl.parse_jnl(formula)))
    if fmt == "json":
        return json.dumps([segments(p) for p in paths]) + "\n"
    return "".join(("/".join(map(str, segments(p))) or "(root)") + "\n" for p in paths)


# One document, every axis and both equality forms; the expected stdout and
# exit code of each row were recorded before the evaluator was compiled.
PINNED_DOC = ('{"a": {"k1": [1, 2, {"k1": "x"}], "k2": "x", "b": {"k1": "x"}},'
              ' "c": [[1, 2], [1, 2], 3], "k10": {"k1": {"k12": 0}}}')
PINNED_QUERIES = [
    ('[@"a"]', (), '(root)\n', 0),
    ('[@/k1.*/]', (), '(root)\na\na/b\na/k1/3\nk10\nk10/k1\n', 0),
    ('[#2]', (), 'a/k1\nc\nc/1\nc/2\n', 0),
    ('[#2:3]', (), 'a/k1\nc\nc/1\nc/2\n', 0),
    ('[#2:*]', ('--format', 'json'), '[["a", "k1"], ["c"], ["c", 1], ["c", 2]]\n', 0),
    ('eq(eps, "x")', (), 'a/b/k1\na/k1/3/k1\na/k2\n', 0),
    ('[@"a" / test([@"b"])]', (), '(root)\n', 0),
    ('[@"a" / @"k1" / #3]', ('--format', 'json'), '[[]]\n', 0),
    ('[(@/k.*/)* / @"k12"]', (), '(root)\nk10\nk10/k1\n', 0),
    ('eq(@"k2", @"b" / @"k1")', (), 'a\n', 0),
    ('eq(#1:*, #2:*)', (), 'a/k1\nc\nc/1\nc/2\n', 0),
    ('eq((@/k.*/ / #1:*)*, @"b")', ('--format', 'json'), '[["a"]]\n', 0),
    ('eq(@"c" / #1, [1, 2])', (), '(root)\n', 0),
    ('[@"zz"]', (), '', 0),
    ('[(@/k1.*/)* / test(eq(eps, 0))]', ('--node', 'k10'), 'true\n', 0),
    ('eq(#1, #2)', ('--node', 'c'), 'true\n', 0),
    ('eq(#1, #2)', ('--node', 'c/3', '--format', 'json'), '{"member": 0}\n', 1),
]


@pytest.mark.parametrize("formula, extra, stdout, code", PINNED_QUERIES)
def test_query_pinned_outputs(files, capsys, formula, extra, stdout, code):
    doc = files("pinned.json", PINNED_DOC)
    assert main(["query", doc, "--formula", formula, *extra]) == code
    assert capsys.readouterr().out == stdout


def test_query_closure_in_a_closure(files, capsys):
    # the inner closure's table reads the outer one's at the same node
    doc = files("b.json", '{"b": {"b": 1}}')
    assert main(["query", doc, "--formula", 'eq(((@"b")*)*, @"b")']) == 0
    assert capsys.readouterr().out == "(root)\nb\n"


def test_query_rendering_matches_reference(files, capsys):
    rng = random.Random(53)
    formulas = ["true", "[#1]", '[@"a"] || [@/b|c/]', "!eq(eps, 0)"]
    for i in range(25):
        doc = random_tree(rng, 4, 3)
        path = files(f"r{i}.json", serialize(doc))
        for formula in formulas:
            for fmt in ("text", "json"):
                assert main(["query", path, "--formula", formula, "--format", fmt]) == 0
                assert capsys.readouterr().out == _reference_lines(doc, fmt, formula)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string limit on this interpreter")
def test_query_number_past_int_string_limit_exit_2(files, capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 700)
    doc = files("big.json", '{"n":' + digits + "}")
    assert main(["query", doc, "--formula", "true"]) == 2
    assert "limit" in capsys.readouterr().err
    small = files("small.json", "[1]")
    for node, reason in ((digits, "limit"), ("0", "1-based")):
        assert main(["query", small, "--formula", "true", "--node", node]) == 2
        err = capsys.readouterr().err
        assert reason in err and "internal" not in err


def test_negative_schema_number_exit_2(files, capsys):
    doc, schema = files("five.json", "5"), files("s.json", '{"type":"number","minimum":-1}')
    assert main(["validate", doc, schema]) == 2
    err = capsys.readouterr().err
    assert "minimum expects a natural number, got -1" in err and "internal" not in err


def test_query_lone_surrogate_key_prints_escape(files, monkeypatch):
    doc = files("s.json", '{"\\ud800":1,"b\\ud800c":{"\\udc01":2}}')
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["query", doc, "--formula", "true"]) == 0
    out.flush()
    assert raw.getvalue().decode("utf-8").splitlines() == [
        "(root)", "b\\ud800c", "b\\ud800c/\\udc01", "\\ud800"]


def test_query_deep_document_node(files, capsys):
    n = 5000
    doc = files("deep.json", '{"a":' * n + "0" + "}" * n)
    assert main(["query", doc, "--formula", "eq(eps, 0)", "--node", "/".join(["a"] * n)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["query", doc, "--formula", "eq(eps, 0)", "--node", "/".join(["a"] * 10)]) == 1


def test_internal_error_exit_2(files, capsys, monkeypatch):
    doc = files("e.json", "{}")
    formula = files("f.jsl", "obj")

    def fault(tree, phi):
        raise RuntimeError("fault")
    monkeypatch.setattr(jsl, "validate", fault)
    assert main(["validate", doc, formula, "--logic", "jsl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: RuntimeError: ")


@pytest.mark.parametrize("text", ["!" * 3000 + "true", "(" * 3000 + "obj" + ")" * 3000],
                         ids=["not", "parentheses"])
def test_deep_formula_validates(files, capsys, text):
    doc = files("e.json", "{}")
    formula = files("f.jsl", text)
    rjsl = files("f.rjsl", f"let g = {text}; in g")
    for argv, expected in [(["validate", doc, formula, "--logic", "jsl"], ("VALID\n", "")),
                           (["validate", doc, rjsl, "--logic", "rjsl"], ("VALID\n", "")),
                           (["automaton", doc, "--formula-file", formula],
                            ("ACCEPT\n", "states: 1\n")),
                           (["automaton", doc, "--formula-file", rjsl, "--logic", "rjsl"],
                            ("ACCEPT\n", "states: 3\n")),
                           (["sat", "--formula-file", formula], ("SAT\n{}\n", "")),
                           (["sat", "--formula-file", rjsl, "--logic", "rjsl"], ("SAT\n{}\n", ""))]:
        assert main(argv) == 0, argv
        assert capsys.readouterr() == expected, argv


DEPTH = 3000
DIA = 'dia("a") ' * DEPTH + "true"
PLUS = "(" * DEPTH + "a" + ")+" * DEPTH
DEEP_INPUTS = {
    "e.json": "{}",
    "a.json": '{"a": "a"}',
    "deep.json": '{"a":' * DEPTH + "{}" + "}" * DEPTH,
    "not.jsl": "!" * DEPTH + "true",
    "dia.jsl": DIA,
    "box.jsl": "box(/a/) " * DEPTH + "true",
    "not-and.jsl": "!(obj && " * DEPTH + "true" + ")" * DEPTH,
    "or.jsl": "(obj || " * DEPTH + "true" + ")" * DEPTH,
    "dia.rjsl": f"let g = {DIA}; in g",
    "not.schema.json": '{"not":' * DEPTH + "{}" + "}" * DEPTH,
    "all-of.schema.json": '{"allOf":[' * DEPTH + "{}" + "]}" * DEPTH,
    "properties.schema.json": '{"type":"object","properties":{"a":' * DEPTH + "{}" + "}}" * DEPTH,
    "not.jnl": "!" * DEPTH + "true",
    "test.jnl": "[test(" * DEPTH + "true" + ")]" * DEPTH,
    "key-test.jnl": '[@"a" / test(' * DEPTH + "true" + ")]" * DEPTH,
    "parentheses.jnl": "[" + "(" * DEPTH + '@"a"' + ")" * DEPTH + "]",
    "plus.jsl": f"dia(/{PLUS}/) pattern(/{PLUS}/)",
    "star-b.jsl": 'dia("a") pattern(/' + "(" * DEPTH + "a" + ")*b" * DEPTH + "/)",
    "plus.jnl": f"[@/{PLUS}/]",
    "eq.jnl": "eq(test(" * DEPTH + "true" + "), eps)" * DEPTH,
}
NESTING = "error: the schema nests lists and objects past the JSON printer's recursion limit"
# The probe of deep inputs through the CLI, one row per path: each prints
# its verdict or exits 2 with a named error, never an internal one.  Three
# rows run a 3,000-deep formula down a 3,000-deep document, one per
# evaluator (closures, automaton run, JNL); those take seconds each, since
# the cut formula's 30 definitions are filled at every node.
DEEP_PROBE = [
    ("validate", "e.json", "not.jsl", "--logic", "jsl", 0, "VALID"),
    ("validate", "deep.json", "dia.jsl", "--logic", "jsl", 0, "VALID"),
    ("validate", "e.json", "box.jsl", "--logic", "jsl", 0, "VALID"),
    ("validate", "e.json", "not-and.jsl", "--logic", "jsl", 0, "VALID"),
    ("validate", "e.json", "or.jsl", "--logic", "jsl", 0, "VALID"),
    ("validate", "e.json", "dia.rjsl", "--logic", "rjsl", 1, "INVALID"),
    ("validate", "a.json", "plus.jsl", "--logic", "jsl", 0, "VALID"),
    ("validate", "a.json", "star-b.jsl", "--logic", "jsl", 1, "INVALID"),
    ("validate", "e.json", "not.schema.json", 0, "VALID"),
    ("validate", "e.json", "all-of.schema.json", 0, "VALID"),
    ("validate", "e.json", "properties.schema.json", 0, "VALID"),
    ("compile", "not.schema.json", "--from", "schema", "--to", "jsl", 0, "!!"),
    ("compile", "properties.schema.json", "--from", "schema", "--to", "jsl", 0, 'obj && box("a")'),
    ("compile", "properties.schema.json", "--from", "schema", "--to", "jnl", 2,
     "error: obj is outside the admissible fragment"),
    ("query", "e.json", "--formula-file", "not.jnl", 0, "(root)"),
    ("query", "e.json", "--formula-file", "test.jnl", 0, "(root)"),
    ("query", "deep.json", "--formula-file", "key-test.jnl", 0, "(root)"),
    ("query", "deep.json", "--formula-file", "parentheses.jnl", 0, "(root)\na\na/a\n"),
    ("query", "a.json", "--formula-file", "plus.jnl", 0, "(root)"),
    ("query", "e.json", "--formula-file", "eq.jnl", 0, "(root)"),
    ("sat", "--logic", "jnl", "--formula-file", "not.jnl", 0, "SAT"),
    ("sat", "--logic", "jnl", "--formula-file", "test.jnl", 0, "SAT"),
    ("compile", "not.jnl", "--from", "jnl", "--to", "jsl", 0, "!!"),
    ("compile", "test.jnl", "--from", "jnl", "--to", "jsl", 0, "true && true"),
    ("compile", "not.jsl", "--from", "jsl", "--to", "jnl", 0, "!!"),
    ("compile", "dia.jsl", "--from", "jsl", "--to", "jnl", 0, '[@"a" / test([@"a"'),
    ("compile", "not.jsl", "--from", "jsl", "--to", "schema", 2, NESTING),
    ("compile", "dia.jsl", "--from", "jsl", "--to", "schema", 2, NESTING),
    ("automaton", "deep.json", "--formula-file", "dia.jsl", 0, "ACCEPT"),
    ("automaton", "e.json", "--formula-file", "not-and.jsl", 0, "ACCEPT"),
    ("automaton", "e.json", "--formula-file", "dia.rjsl", "--logic", "rjsl", 1, "REJECT"),
    ("automaton", "a.json", "--formula-file", "plus.jsl", 0, "ACCEPT"),
    ("sat", "--formula-file", "dia.jsl", 1, "UNSAT"),
    ("sat", "--formula-file", "dia.rjsl", "--logic", "rjsl", 1, "UNSAT"),
    ("sat", "--formula-file", "plus.jsl", 0, "SAT"),
    ("check-wf", "--formula-file", "dia.rjsl", 0, "symbols: g"),
]


@pytest.mark.parametrize("row", DEEP_PROBE,
                         ids=["-".join(arg for arg in row[:-2] if not arg.startswith("-"))
                              for row in DEEP_PROBE])
def test_deep_input_probe(tmp_path, capsys, row):
    *argv, code, expected = row
    for i, arg in enumerate(argv):
        if arg in DEEP_INPUTS:
            argv[i] = str(tmp_path / arg)
            (tmp_path / arg).write_text(DEEP_INPUTS[arg], encoding="utf-8")
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "internal" not in err
    assert (out if code < 2 else err).startswith(expected)


@pytest.mark.parametrize("text", ['dia("a") ' * 150 + "true", "!" * 900 + "true"],
                         ids=["dia", "not"])
def test_deep_schema_still_prints(files, capsys, text):
    # 150 dia print about 900 nested lists and objects, within the printer's
    # own recursion: the named limit is raised only where printing fails
    assert main(["compile", files("f.jsl", text), "--from", "jsl", "--to", "schema"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith('{\n  "not": {') and err == ""


@pytest.mark.parametrize("step", ["eps", "@/a|b/"], ids=["functional", "regex"])
def test_nested_equalities_answer(files, capsys, step):
    # each eq(alpha, beta) sits in a test of the next one's path; their
    # tables are filled innermost first, not one call inside another
    n = DEPTH
    text = "eq(test(" * n + "true" + f") / {step}, eps)" * n
    assert main(["query", files("e.json", '{"a": {}}'), "--formula-file",
                 files("f.jnl", text)]) in (0, 1)
    assert "internal" not in capsys.readouterr().err


SUBCOMMAND_HELP = {
    "query": "evaluate a navigational formula over a document",
    "validate": "validate a document against a schema or formula",
    "compile": "compile between schema, jsl and jnl",
    "sat": "bounded satisfiability search",
    "check-wf": "precedence graph and well-formedness",
    "automaton": "compile a formula and run it over a document",
}
SUBCOMMAND_OPTIONS = {
    "query": ["document", "--formula", "--formula-file", "--node", "--format"],
    "validate": ["document", "schema", "--logic", "--via", "--format"],
    "compile": ["input", "--from", "--to"],
    "sat": ["--formula", "--formula-file", "--logic", "--max-depth", "--max-width",
            "--max-atoms", "--budget", "--format"],
    "check-wf": ["--formula", "--formula-file"],
    "automaton": ["document", "--formula", "--formula-file", "--logic"],
}


def test_top_level_help_lists_every_subcommand(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: jlogic ")
    for name, line in SUBCOMMAND_HELP.items():
        assert f"    {name} " in out and line in out, name


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_help_lists_its_options(capsys, command):
    assert main([command, "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: jlogic {command} ") and err == ""
    for option in SUBCOMMAND_OPTIONS[command]:
        assert f" {option}" in out, option


# stable substrings of argparse's messages: the wording around them differs
# between Python versions
@pytest.mark.parametrize("argv, usage, message", [
    (["query", "--formula", "true"], "usage: jlogic query ",
     "the following arguments are required: document"),
    (["sat", "--formula", "obj", "--formula-file", "f.jsl"], "usage: jlogic sat ",
     "argument --formula-file: not allowed with argument --formula"),
    (["sat", "--formula", "obj", "--format", "xml"], "usage: jlogic sat ",
     "argument --format: invalid choice: 'xml'"),
    (["sat", "--formula", "obj", "--max-depth", "two"], "usage: jlogic sat ",
     "argument --max-depth: invalid int value: 'two'"),
    (["bogus"], "usage: jlogic [-h] ", "invalid choice: 'bogus'"),
    (["sat", "--formula", "obj", "extra"], "usage: jlogic [-h] ",
     "jlogic: error: unrecognized arguments: extra"),
], ids=["missing-positional", "exclusive-formula", "bad-format", "non-integer-depth",
        "unknown-subcommand", "leftover-argument"])
def test_usage_errors_print_argparse_message(capsys, argv, usage, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(usage) and message in err and "internal" not in err, err


def test_a_leading_double_dash_is_read_by_the_whole_parser(capsys):
    # argparse in 3.12.1 and 3.13.0 hands a leading '--' to the subcommand
    # choice; later releases (3.13.13 among them) drop it and run the
    # subcommand.  The reply must be the whole parser's either way.
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_subparsers(dest="command").add_parser("x")
    try:
        drops = probe.parse_args(["--", "x"]).command == "x"
    except argparse.ArgumentError:
        drops = False
    rc = main(["--", "sat", "--formula", "obj"])
    out, err = capsys.readouterr()
    if drops:
        assert (rc, out, err) == (0, "SAT\n{}\n", "")
    else:
        assert rc == 2 and out == "", out
        assert err.startswith("usage: jlogic [-h] ") and "invalid choice: '--'" in err, err


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["jlogic", "sat", "--formula", "obj"])
    assert main() == 0
    assert capsys.readouterr().out == "SAT\n{}\n"


def _initialised(monkeypatch):
    """The parsers that ``ArgumentParser.__init__`` runs on from now on."""
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return parsers


def test_a_subcommand_parser_holds_only_its_arguments(monkeypatch, capsys):
    cli._subcommand_parser.cache_clear()
    parsers = _initialised(monkeypatch)
    for _ in range(2):  # the second call reuses the first one's parser
        assert main(["sat", "--formula", "obj"]) == 0
        assert capsys.readouterr().out == "SAT\n{}\n"
    sat, = parsers
    assert sat is cli._subcommand_parser("sat")
    assert {action.dest for action in sat._actions} == {
        "help", "formula", "formula_file", "logic", "max_depth", "max_width", "max_atoms",
        "budget", "format"}
    assert [sat.get_default(dest) for dest in (
        "max_depth", "max_width", "max_atoms", "budget", "format", "formula_file")] == [
        3, 3, 6, 200_000, "text", None]


# level 2: argv names a subcommand, whose parser alone reads it, built by
# the first such call of the process; level 1: it names none, and the whole
# parser, built afresh by every call, reads it
@pytest.mark.parametrize("argv, level", [
    (["-h"], 1), (["bogus"], 1), ([], 1),
    *(([command, "-h"], 2) for command in sorted(SUBCOMMAND_OPTIONS)),
    (["validate"], 2), (["sat", "--formula", "obj"], 2), (["check-wf", "--formula", "obj"], 2),
    (["compile", "-", "--from", "jsl"], 2),
], ids=lambda value: " ".join(value) or "no-arguments" if isinstance(value, list) else None)
def test_a_call_initialises_only_the_chosen_parser(monkeypatch, capsys, argv, level):
    cli._subcommand_parser.cache_clear()
    parsers = _initialised(monkeypatch)
    replies = []
    for _ in range(2):
        parsers.clear()
        replies.append((main(argv), *capsys.readouterr()))
        progs = [parser.prog for parser in parsers]
        if level == 2:
            assert progs == ([f"jlogic {argv[0]}"] if len(replies) == 1 else []), progs
        else:
            assert progs == ["jlogic", *(f"jlogic {name}" for name in SUBCOMMAND_HELP)], progs
    assert replies[0] == replies[1]


EDGE_ARGVS = [
    ["-h"], [], ["bogus"], ["--", "sat", "--formula", "obj"],
    *([name, "-h"] for name in SUBCOMMAND_HELP),
    ["sat", "--formula", "obj", "extra"], ["validate"],
    ["sat", "--formula", "obj", "--format", "xml"],
    ["sat", "--formula", "obj", "--max-depth", "two"],
    ["sat", "--formula", "obj", "--formula-file", "f.jsl"],
]


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_edge_argvs_reply_alike_twice_and_fresh(monkeypatch, capsys, argv):
    # a kept subcommand parser carries nothing from one call to the next:
    # two calls in one process reply as a fresh interpreter does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
    replies = []
    for _ in range(2):
        replies.append((main(argv), *capsys.readouterr()))
    assert replies[0] == replies[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "jlogic.cli", *argv], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src})
    assert replies[0] == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_main_calls_share_no_parsed_state(files, capsys):
    assert main(["sat", "--formula", "obj", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sat"] == 1
    assert main(["sat", "--formula", "obj"]) == 0
    assert capsys.readouterr().out == "SAT\n{}\n"

    formula = files("f.rjsl", "let g = obj; in g")
    for first, second in ((["--formula-file", formula], ["--formula", "obj"]),
                          (["--formula", "obj"], ["--formula-file", formula])):
        assert main(["check-wf"] + first) == 0
        assert main(["check-wf"] + second) == 0
        assert "not allowed" not in capsys.readouterr().err

    tight = ["--max-depth", "1", "--max-width", "1", "--max-atoms", "1", "--budget", "0"]
    assert main(["sat", "--formula", "obj && !obj"] + tight) == 2
    assert "budget (0)" in capsys.readouterr().err
    assert main(["sat", "--formula", "obj && !obj"]) == 1
    assert capsys.readouterr().out == "UNSAT up to (3,3,6)\n"
    defaults = build_parser().parse_args(["sat", "--formula", "obj"])
    assert (defaults.max_depth, defaults.max_width, defaults.max_atoms, defaults.budget,
            defaults.format, defaults.formula_file) == (3, 3, 6, 200_000, "text", None)
