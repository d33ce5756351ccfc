"""The concrete syntax of JNL, JSL, recursive JSL and regexes (``jlogic.syntax``
and each logic's ``SYNTAX`` table): inputs nested thousands of levels deep,
a seeded mutation fuzz over the four parsers and through every subcommand,
and parse/print round trips.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.regex as rx
from jlogic.cli import main
from jlogic.errors import JLogicError, MalformedFormula, MalformedRegex
from jlogic.syntax import GROUP
from helpers import random_jnl_unary, random_jsl, random_regex, random_schema, random_well_formed

N = 3000
LOGICS = {
    "jnl": (jnl.parse_jnl, jnl.unary_to_text),
    "jsl": (jsl.parse_jsl, jsl.to_text),
    "rjsl": (rec.parse_recursive, rec.to_text),
    "regex": (rx.parse_regex, rx.to_text),
}
DEEP = [
    ("jnl", "!" * N + "true"),
    ("jnl", "[" + "(" * N + '@"a"' + ")" * N + "]"),
    ("jnl", "[test(" * N + "true" + ")]" * N),
    ("jsl", "!" * N + "obj"),
    ("jsl", 'dia("a") ' * N + "obj"),
    ("jsl", "(" * N + "obj" + ")" * N),
    ("regex", "(" * N + "a" + ")" * N),
    ("regex", "(a|" * N + "b" + ")*" * N),
    ("rjsl", "let g = " + "box(/a/) " * N + "g; in g"),
]


@pytest.mark.parametrize("logic,text", DEEP, ids=[f"{logic}-{text[:12]}" for logic, text in DEEP])
def test_deep_syntax_parses_prints_and_reparses(logic, text):
    parse, to_text = LOGICS[logic]
    node = parse(text)
    assert parse(to_text(node)) is node
    repr(node)


BAD = [
    ("jnl", "(true", MalformedFormula, "expected ')' (at offset 5)"),
    ("jnl", '[@"a"', MalformedFormula, "expected ']' (at offset 5)"),
    ("jnl", 'eq(@"a" @"b")', MalformedFormula, "expected ',' (at offset 8)"),
    ("jnl", "[#0]", MalformedFormula, "array positions are 1-based (at offset 3)"),
    ("jnl", "[#3:1]", MalformedFormula, "empty position range 3:1 (at offset 5)"),
    ("jnl", '[@ "a"]', MalformedFormula,
     "expected a key string or /regex/ after '@' (at offset 2)"),
    ("jnl", "[@/a\\", MalformedFormula, "unterminated regex literal (at offset 6)"),
    ("jnl", "true)", MalformedFormula, "trailing input at offset 4"),
    ("jnl", "! ", MalformedFormula, "unexpected end of formula (at offset 2)"),
    ("jnl", "[]", MalformedFormula, "unexpected ']' in path formula (at offset 1)"),
    ("jnl", "[@/(/]", MalformedFormula, "missing ')'"),
    ("jnl", "eq(#1, )", MalformedFormula, "Expecting value (at offset 7)"),
    ("jsl", "g", MalformedFormula, "symbol 'g' is only allowed inside a recursive expression"),
    ("jsl", "in", MalformedFormula, "unexpected 'i' (at offset 0)"),
    ("jsl", "box(x) obj", MalformedFormula, "expected a number (at offset 4)"),
    ("jsl", "min(" + "1" * 5000 + ")", MalformedFormula,
     "number of 5000 digits is over the interpreter's int-string limit (at offset 5004)"),
    ("jsl", "same(1", MalformedFormula, "expected ')' (at offset 6)"),
    ("rjsl", "let 1 = obj; in g", MalformedFormula,
     "expected a definition name after 'let' (at offset 4)"),
    ("rjsl", "let g = obj; g", MalformedFormula,
     "expected 'in' before the base expression (at offset 13)"),
    ("rjsl", "let g = obj in g", MalformedFormula, "expected ';' (at offset 12)"),
    ("rjsl", "let g = pattern(/(/); in g", MalformedRegex, "missing ')'"),
    ("regex", "a\\", MalformedRegex, "dangling backslash"),
    ("regex", "*a", MalformedRegex, "unexpected '*' at 0"),
    ("regex", "a)", MalformedRegex, "unexpected ')' at 1"),
    ("regex", "(a", MalformedRegex, "missing ')'"),
    ("regex", "[b-a]", MalformedRegex, "inverted range b-a"),
    ("regex", "[a", MalformedRegex, "unterminated character class"),
]


@pytest.mark.parametrize("logic,text,error,message", BAD, ids=[f"{b[0]}-{b[1][:12]}" for b in BAD])
def test_malformed_text_names_its_error_and_offset(logic, text, error, message):
    with pytest.raises(error) as caught:
        LOGICS[logic][0](text)
    assert str(caught.value) == message


def _tokens(syntax):
    """Every token and literal of a syntax table, plus sample arguments."""
    out = {" ", "x", "0", "1", "2:*", "2:1", '"a"', "/a|b/", "{}", "é"}
    for table in syntax.values():
        for tok, entry in table.items():
            if isinstance(tok, str):
                out.add(tok)
            if entry is not None and entry[0] == GROUP:
                out.update(part for part in entry[2] if isinstance(part, str))
    return sorted(out - {""})


TOKENS = {"jnl": _tokens(jnl.SYNTAX), "jsl": _tokens(jsl.SYNTAX),
          "rjsl": _tokens(jsl.SYNTAX) + ["let", "in", "=", ";", "g"],
          "regex": _tokens(rx.SYNTAX) + ["]", "^", "-", "a", "\\n"]}


def _draw(rng, logic, count, depth):
    """Seeded random formulas of one logic."""
    if logic == "rjsl":
        return random_well_formed(rng, count)
    make = {"jnl": random_jnl_unary, "jsl": random_jsl, "regex": random_regex}[logic]
    return [make(rng, depth) for _ in range(count)]


def _mutant(rng, text, tokens):
    for _ in range(rng.randint(1, 2)):
        at, roll = rng.randint(0, len(text)), rng.random()
        if roll < 0.4:
            text = text[:at] + rng.choice(tokens) + text[at:]
        elif roll < 0.7:
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            text = text[:at] + rng.choice(tokens) + text[at + rng.randint(1, 3):]
    return text


@pytest.mark.parametrize("logic", sorted(LOGICS))
def test_fuzzed_text_parses_or_raises_a_jlogic_error(logic):
    rng = random.Random(f"syntax:{logic}")
    parse, to_text = LOGICS[logic]
    seeds, parsed = [to_text(f) for f in _draw(rng, logic, 40, 3)], 0
    for _ in range(3000):
        text = _mutant(rng, rng.choice(seeds), TOKENS[logic])
        try:
            node = parse(text)
        except JLogicError:
            continue
        parsed += 1
        printed = to_text(node)
        assert to_text(parse(printed)) == printed, text
    assert parsed > 100  # the well-formed mutants are printed and reparsed too


SMALL_SEARCH = ["--max-depth", "2", "--max-width", "2", "--max-atoms", "3", "--budget", "3000"]
# the subcommands each kind of text goes through; F is the text's file, D a document
COMMANDS = {
    "jnl": [["query", "D", "--formula-file", "F"],
            ["sat", "--logic", "jnl", "--formula-file", "F", *SMALL_SEARCH]]
    + [["compile", "F", "--from", "jnl", "--to", to] for to in ("jnl", "jsl", "schema")],
    "jsl": [["validate", "D", "F", "--logic", "jsl"], ["automaton", "D", "--formula-file", "F"],
            ["sat", "--formula-file", "F", *SMALL_SEARCH]]
    + [["compile", "F", "--from", "jsl", "--to", to] for to in ("jsl", "jnl", "schema")],
    "rjsl": [["validate", "D", "F", "--logic", "rjsl"], ["check-wf", "--formula-file", "F"],
             ["automaton", "D", "--formula-file", "F", "--logic", "rjsl"],
             ["sat", "--logic", "rjsl", "--formula-file", "F", *SMALL_SEARCH]],
    "schema": [["validate", "D", "F"]]
    + [["compile", "F", "--from", "schema", "--to", to] for to in ("schema", "jsl", "jnl")],
}
COMMANDS["regex"] = COMMANDS["jsl"]  # as pattern(/e/) || dia(/e/) true
SCHEMA_TOKENS = sorted({'"type"', '"object"', '"array"', '"string"', '"number"', '"not"',
                        '"allOf"', '"anyOf"', '"enum"', '"items"', '"properties"', '"required"',
                        '"$ref"', '"#/definitions/d0"', "{", "}", "[", "]", ",", ":", "1", '"a"'})


@pytest.mark.parametrize("logic", sorted(COMMANDS))
def test_fuzzed_text_through_every_subcommand(logic, tmp_path):
    # Each seed and mutant runs through every subcommand that reads its kind
    # of text: a verdict (exit 0 or 1), or exit 2 with a named error.
    rng = random.Random(f"cli:{logic}")
    if logic == "schema":
        seeds, tokens = [json.dumps(random_schema(rng)) for _ in range(10)], SCHEMA_TOKENS
    else:
        seeds, tokens = [LOGICS[logic][1](f) for f in _draw(rng, logic, 10, 3)], TOKENS[logic]
    doc, text = tmp_path / "d.json", tmp_path / "f.txt"
    doc.write_text('{"a": [1, "x"], "b": {"a": {}}}', encoding="utf-8")
    verdicts = 0
    for mutant in seeds + [_mutant(rng, rng.choice(seeds), tokens) for _ in range(40)]:
        if logic == "regex":
            mutant = f"pattern(/{mutant}/) || dia(/{mutant}/) true"
        text.write_text(mutant, encoding="utf-8")
        for command in COMMANDS[logic]:
            argv = [str(doc) if a == "D" else str(text) if a == "F" else a for a in command]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1) or code == 2 and "internal" not in err.getvalue(), \
                (argv[0], mutant, err.getvalue())
            verdicts += code < 2
    assert verdicts > 20


@pytest.mark.parametrize("logic", sorted(LOGICS))
def test_printed_formulas_reparse_to_the_same_node(logic):
    # The printers write a right-nested chain of one connective (&&, ||, /)
    # without parentheses, as the left-nested chain it parses back to: the
    # drawn formula and its parse print alike, and the parse round-trips.
    rng = random.Random(f"round-trip:{logic}")
    parse, to_text = LOGICS[logic]
    for phi in _draw(rng, logic, 300, 4):
        text = to_text(phi)
        psi = parse(text)
        assert to_text(psi) == text
        assert parse(to_text(psi)) is psi
        if logic == "regex":
            assert psi is phi
