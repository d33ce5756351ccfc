import json
import random
import re

import pytest

import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.schema as sch
import jlogic.tree as jt
from jlogic.errors import (
    DuplicateKey,
    IllFormedRecursion,
    MalformedSyntax,
    TypeMismatch,
    UnknownKeyword,
    UnresolvableRef,
)
from jlogic.cli import main
from jlogic.tree import parse_document
from helpers import (
    SCHEMA_KEYWORDS,
    check_well_formed,
    oracle_jsl,
    oracle_schema,
    random_schema,
    random_tree,
    random_value,
    schema_keywords,
    schema_refs,
)

# one schema per row, covering every supported keyword at least once
CORPUS = [
    '{}',
    '{"type":"string"}',
    '{"type":"string","pattern":"(01)+"}',
    '{"type":"number"}',
    '{"type":"number","minimum":2}',
    '{"type":"number","maximum":12,"multipleOf":4}',
    '{"type":"number","minimum":1,"maximum":7}',
    '{"type":"object"}',
    '{"type":"object","minProperties":1,"maxProperties":2}',
    '{"type":"object","required":["name","age"]}',
    '{"type":"object","properties":{"name":{"type":"string"},"age":{"type":"number"}}}',
    '{"type":"object","patternProperties":{"a(b|c)a":{"type":"number","multipleOf":2}}}',
    ('{"type":"object","properties":{"name":{"type":"string"}},'
     '"patternProperties":{"a(b|c)a":{"type":"number","multipleOf":2}},'
     '"additionalProperties":{"type":"number","minimum":1,"maximum":1}}'),
    '{"type":"array"}',
    '{"type":"array","uniqueItems":true}',
    '{"type":"array","items":[{"type":"string"},{"type":"number"}]}',
    ('{"type":"array","items":[{"type":"string"},{"type":"string"}],'
     '"additionalItems":{"type":"number"},"uniqueItems":true}'),
    '{"type":"array","additionalItems":{"type":"number"}}',
    '{"allOf":[{"type":"number","minimum":1},{"type":"number","maximum":5}]}',
    '{"anyOf":[{"type":"string"},{"type":"number","multipleOf":3}]}',
    '{"not":{"type":"number","multipleOf":2}}',
    '{"enum":[1,"a",{"k":0},[1,2]]}',
    '{"type":"object","additionalProperties":{"type":"string"}}',
]

KEYWORDS = ["type", "pattern", "minimum", "maximum", "multipleOf", "minProperties",
            "maxProperties", "required", "properties", "patternProperties",
            "additionalProperties", "items", "uniqueItems", "additionalItems",
            "allOf", "anyOf", "not", "enum"]


def targeted_documents(rng, count=200):
    """Random documents biased towards the corpus shapes."""
    docs = []
    pool = ['"01"', '"0101"', '"a"', "0", "1", "4", "8", "12", "13",
            "{}", "[]", '["a","b",3]', '["a","b"]', '["a"]', '["a","a"]',
            '["a","b",3,3]', '["a","b",3,4]', '[1,1]', '[1,2]',
            '{"name":"x","aba":4,"other":1}', '{"name":"x"}', '{"name":1}',
            '{"aba":3}', '{"aca":2}', '{"zzz":1}', '{"zzz":2}',
            '{"name":"x","age":3}', '{"k":0}', '[1,2]', '[[1],[1]]']
    for text in pool:
        docs.append(parse_document(text))
    while len(docs) < count:
        docs.append(jt.from_python(random_value(rng, 3, 3)))
    return docs


def test_corpus_covers_every_keyword():
    joined = "\n".join(CORPUS)
    for keyword in KEYWORDS:
        assert f'"{keyword}"' in joined, keyword


def test_parse_object_schema_example():
    doc = sch.parse_schema(CORPUS[12])
    assert isinstance(doc.root, sch.ObjectSchema)
    assert doc.root.properties[0][0] == "name"
    assert len(doc.root.pattern_properties) == 1
    assert doc.root.additional_properties is not None


def test_parse_empty_schema():
    assert sch.parse_schema("{}").root == sch.EmptySchema()


def test_parse_recursive_email_schema():
    text = ('{"definitions": {"email": {"type": "string", "pattern": "[A-z]*@x"}},'
            ' "not": {"$ref": "#/definitions/email"}}')
    doc = sch.parse_schema(text)
    assert [name for name, _ in doc.definitions] == ["email"]
    assert doc.root == sch.NotSchema(sch.Ref("email"))


@pytest.mark.parametrize("text,exc", [
    ('{"type":"boolean"}', TypeMismatch),
    ('{"frobnicate": 1}', UnknownKeyword),
    ('{"type":"string","minimum":1}', UnknownKeyword),
    ('{"allOf":[{}],"anyOf":[{}]}', UnknownKeyword),
    ('{"type":"number","minimum":-1}', TypeMismatch),
    ('{"type":"number","minimum":1.5}', TypeMismatch),
    ('{"type":"array","uniqueItems":1}', TypeMismatch),
    ('{"$ref":"#/definitions/missing"}', UnresolvableRef),
    ('{"$ref":"http://example.com/x"}', UnresolvableRef),
    ('{"enum":[true]}', TypeMismatch),
    ('{"items":[{}]}', UnknownKeyword),
    ('{"uniqueItems":true}', UnknownKeyword),
    ('{"pattern":"a"}', UnknownKeyword),
    ('{"type":"object","properties":{"a":{"definitions":{}, "not":{}}}}', UnknownKeyword),
])
def test_parse_rejections(text, exc):
    with pytest.raises(exc):
        sch.parse_schema(text)


def test_unique_items_false_is_noop():
    doc = sch.parse_schema('{"type":"array","uniqueItems":false}')
    assert sch.validate_schema(parse_document("[1,1]"), doc)


def test_validate_array_example():
    doc = sch.parse_schema(CORPUS[16])
    assert sch.validate_schema(parse_document('["a","b",3]'), doc)
    assert sch.validate_schema(parse_document('["a","b"]'), doc)
    assert not sch.validate_schema(parse_document('["a"]'), doc)
    assert not sch.validate_schema(parse_document('["a","b","c"]'), doc)
    assert not sch.validate_schema(parse_document('["a","b",3,3]'), doc)


def test_items_alone_forbid_extras():
    doc = sch.parse_schema('{"type":"array","items":[{}]}')
    assert sch.validate_schema(parse_document("[0]"), doc)
    assert not sch.validate_schema(parse_document("[0,0]"), doc)
    assert not sch.validate_schema(parse_document("[]"), doc)


def test_empty_schema_validates_everything():
    rng = random.Random(1)
    doc = sch.parse_schema("{}")
    for _ in range(30):
        assert sch.validate_schema(jt.from_python(random_value(rng)), doc)


def test_number_schema_accepts_exactly_multiples():
    doc = sch.parse_schema('{"type":"number","maximum":12,"multipleOf":4}')
    accepted = [v for v in range(0, 21) if sch.validate_schema(parse_document(str(v)), doc)]
    assert accepted == [0, 4, 8, 12]


def test_schema_to_jsl_string_example():
    compiled = sch.schema_to_jsl(sch.parse_schema('{"type":"string","pattern":"(01)+"}'))
    assert jsl.to_text(compiled) == "str && pattern(/(01)+/)"


def test_schema_to_jsl_number_example():
    compiled = sch.schema_to_jsl(sch.parse_schema(
        '{"type":"number","minimum":2,"maximum":12,"multipleOf":4}'))
    assert jsl.to_text(compiled) == "int && min(2) && max(12) && multOf(4)"


def test_schema_to_jsl_array_template():
    compiled = sch.schema_to_jsl(sch.parse_schema(CORPUS[16]))
    assert jsl.to_text(compiled) == (
        "arr && unique && dia(1) str && dia(2) str && box(3:*) int")


def test_jsl_to_schema_kind_and_top():
    assert sch.jsl_to_schema(jsl.parse_jsl("int")).root == sch.NumberSchema()
    assert sch.jsl_to_schema(jsl.TOP).root == sch.EmptySchema()


def test_differential_corpus():
    rng = random.Random(2)
    docs = targeted_documents(rng)
    for text in CORPUS:
        schema = sch.parse_schema(text)
        compiled = sch.schema_to_jsl(schema)
        back = sch.jsl_to_schema(compiled)
        for doc in docs:
            direct = sch.validate_schema(doc, schema)
            via_logic = jsl.validate(doc, compiled)
            round_trip = sch.validate_schema(doc, back)
            oracle = oracle_schema(doc, schema)
            assert direct == via_logic == round_trip == oracle, (text, jt.serialize(doc))


def test_recursive_schema_matches_recursive_logic():
    text = ('{"definitions": {"email": {"type": "string", "pattern": "[A-z]*@x"}},'
            ' "not": {"$ref": "#/definitions/email"}}')
    doc = sch.parse_schema(text)
    compiled = sch.schema_to_jsl(doc)
    assert isinstance(compiled, rec.RecursiveJslExpr)
    for value, expected in [('"a@x"', False), ('"Z@x"', False), ('"nope"', True),
                            ("5", True), ("{}", True)]:
        t = parse_document(value)
        assert sch.validate_schema(t, doc) == expected
        assert rec.eval_recursive(compiled, t) == expected


def test_recursive_schema_nested_lists():
    text = ('{"definitions": {"tree": {"anyOf": ['
            '{"type":"number"},'
            '{"type":"array","additionalItems":{"$ref":"#/definitions/tree"}}]}},'
            ' "$ref": "#/definitions/tree"}')
    doc = sch.parse_schema(text)
    compiled = sch.schema_to_jsl(doc)
    for value, expected in [("1", True), ("[]", True), ("[1,[2,[]]]", True),
                            ('"x"', False), ('[1,"x"]', False), ("{}", False)]:
        t = parse_document(value)
        assert sch.validate_schema(t, doc) == expected
        assert rec.eval_recursive(compiled, t) == expected


def test_ill_formed_recursion_rejected():
    text = ('{"definitions": {"a": {"not": {"$ref": "#/definitions/a"}}},'
            ' "$ref": "#/definitions/a"}')
    doc = sch.parse_schema(text)
    with pytest.raises(IllFormedRecursion):
        sch.validate_schema(parse_document("{}"), doc)


def test_shielded_recursion_is_fine():
    text = ('{"definitions": {"a": {"type":"object",'
            '"additionalProperties": {"$ref": "#/definitions/a"}}},'
            ' "$ref": "#/definitions/a"}')
    doc = sch.parse_schema(text)
    assert sch.validate_schema(parse_document('{"x":{"y":{}}}'), doc)
    assert not sch.validate_schema(parse_document('{"x":1}'), doc)


def test_schema_text_round_trip():
    for text in CORPUS:
        doc = sch.parse_schema(text)
        again = sch.parse_schema(sch.schema_to_text(doc))
        assert again == doc


def test_min_max_child_expansions():
    rng = random.Random(3)
    docs = targeted_documents(rng, 80)
    for phi_text in ["minCh(0)", "minCh(2)", "maxCh(0)", "maxCh(2)",
                     "minCh(1) && maxCh(2)"]:
        phi = jsl.parse_jsl(phi_text)
        back = sch.jsl_to_schema(phi)
        for doc in docs:
            assert oracle_jsl(doc, 0, phi) == sch.validate_schema(doc, back), (
                phi_text, jt.serialize(doc))


def test_box_dia_schema_expansions():
    rng = random.Random(4)
    docs = targeted_documents(rng, 80)
    for phi_text in ['box(/a|b/) int', 'dia("name") str', 'box(2:*) int',
                     'dia(1:2) str', 'box(1:3) (int && min(1))', 'dia(2) true',
                     'box("name") (str || int)']:
        phi = jsl.parse_jsl(phi_text)
        back = sch.jsl_to_schema(phi)
        for doc in docs:
            assert oracle_jsl(doc, 0, phi) == sch.validate_schema(doc, back), (
                phi_text, jt.serialize(doc))


def test_blowup_cap():
    phi = jsl.parse_jsl("maxCh(500) || box(1:400) int")
    with pytest.raises(sch.BlowupLimitExceeded):
        sch.jsl_to_schema(phi, size_cap=100)


def _logic_verdict(tree, doc):
    """The root verdict of the schema's formula: ``oracle_jsl`` on it, or on
    its unfolding to the document's height when the schema is recursive."""
    compiled = sch.schema_to_jsl(doc)
    if isinstance(compiled, rec.RecursiveJslExpr):
        compiled = rec.unfold(compiled, jt.height(tree))
    return oracle_jsl(tree, 0, compiled)


def test_random_schemas_match_both_oracles():
    rng = random.Random(61)
    keywords, features, verdicts = set(), set(), set()
    for _ in range(200):
        raw = random_schema(rng)
        keywords |= schema_keywords(raw)
        doc = sch.parse_schema(json.dumps(raw))
        for name, ast in doc.definitions:
            refs, unshielded = schema_refs(ast)
            if name in refs - unshielded:
                features.add("shielded self-reference")
            if unshielded:
                features.add("unshielded reference between definitions")
        for _ in range(12):
            tree = random_tree(rng, 3, 3)
            got = sch.validate_schema(tree, doc)
            assert got == oracle_schema(tree, doc) == _logic_verdict(tree, doc), (
                json.dumps(raw), jt.serialize(tree))
            verdicts.add(got)
    assert keywords == SCHEMA_KEYWORDS
    assert features == {"shielded self-reference", "unshielded reference between definitions"}
    assert verdicts == {True, False}


# the recursive schema that used to recurse once per document level
DEEP_SCHEMA = ('{"definitions": {"g": {"anyOf": [{"type": "number"},'
               ' {"type": "object", "additionalProperties": {"$ref": "#/definitions/g"}}]}},'
               ' "$ref": "#/definitions/g"}')


@pytest.mark.parametrize("depth", [5000, 5001])
@pytest.mark.parametrize("leaf,valid", [("0", True), ('"x"', False)])
def test_deep_document_recursive_schema(tmp_path, capsys, depth, leaf, valid):
    text = '{"a":' * depth + leaf + "}" * depth
    assert sch.validate_schema(parse_document(text), sch.parse_schema(DEEP_SCHEMA)) is valid
    doc, schema = tmp_path / "deep.json", tmp_path / "g.schema.json"
    doc.write_text(text, encoding="utf-8")
    schema.write_text(DEEP_SCHEMA, encoding="utf-8")
    assert main(["validate", str(doc), str(schema)]) == (0 if valid else 1)
    assert capsys.readouterr().out == ("VALID\n" if valid else "INVALID\n")


def chain_schema(count, last):
    """``count`` definitions, each but the last reached outside every
    keyword that descends: d_i is ``anyOf [d_{i+1}, number]``."""
    defs = {f"d{i}": {"anyOf": [{"$ref": f"#/definitions/d{i + 1}"}, {"type": "number"}]}
            for i in range(count - 1)}
    defs[f"d{count - 1}"] = last
    return json.dumps({"definitions": defs, "$ref": "#/definitions/d0"})


def test_long_definition_chain(tmp_path, capsys):
    text = chain_schema(3000, {"type": "number"})
    doc = sch.parse_schema(text)
    assert check_well_formed(doc) == [f"d{i}" for i in range(2999, -1, -1)]
    assert sch.validate_schema(parse_document("5"), doc)
    assert not sch.validate_schema(parse_document('"x"'), doc)
    five, schema = tmp_path / "five.json", tmp_path / "chain.schema.json"
    five.write_text("5")
    schema.write_text(text)
    for via in ([], ["--via", "jsl"]):
        assert main(["validate", str(five), str(schema)] + via) == 0
        assert capsys.readouterr() == ("VALID\n", "")
    cyclic = sch.parse_schema(chain_schema(3000, {"not": {"$ref": "#/definitions/d0"}}))
    cycle = repr([f"d{i}" for i in range(3000)] + ["d0"])
    with pytest.raises(IllFormedRecursion, match=re.escape(cycle)):
        check_well_formed(cyclic)


def test_one_reference_walk_per_definition(monkeypatch):
    calls = []
    walk = sch._refs
    monkeypatch.setattr(sch, "_refs", lambda ast: calls.append(ast) or walk(ast))
    doc = sch.parse_schema(chain_schema(3000, {"type": "number"}))
    assert sch.validate_schema(parse_document("5"), doc)
    assert len(calls) == 3001  # each definition once, and the root, parsing included


@pytest.mark.parametrize("text,exc", [
    ('{"type": "number", "minimum": ' + "1" * 5000 + "}", MalformedSyntax),
    ('{"type": "number", "minimum": 1e3}', TypeMismatch),
    ('{"type": "number", "minimum": NaN}', TypeMismatch),
    ('{"type": "string", "type": "number"}', DuplicateKey),
    ('{"type": "number"', MalformedSyntax),
], ids=["5000 digits", "exponent", "NaN", "duplicate key", "truncated"])
def test_schema_text_errors(text, exc, tmp_path, capsys):
    with pytest.raises(exc):
        sch.parse_schema(text)
    five, schema = tmp_path / "five.json", tmp_path / "bad.schema.json"
    five.write_text("5")
    schema.write_text(text)
    assert main(["validate", str(five), str(schema)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


def test_hundred_properties_with_additional():
    types = [({"type": "number", "maximum": 5}, [0, 3]),
             ({"type": "string", "pattern": "[a-z]+"}, ["x", "abc"]),
             ({"type": "object"}, [{}]), ({"enum": [1, "x"]}, [1, "x"])]
    raw = {"type": "object",
           "properties": {f"p{i}": types[i % len(types)][0] for i in range(100)},
           "patternProperties": {"q[0-9]": {"type": "number"}},
           "additionalProperties": {"type": "array"}}
    doc = sch.parse_schema(json.dumps(raw))
    fits = {f"p{i}": types[i % len(types)][1] for i in range(100)}
    fits.update({"q1": [0, 9], "q23": [[]], "r": [[], [1]], "p100": [[1]]})
    rng = random.Random(67)
    verdicts = set()
    for _ in range(300):
        # mostly values that fit the key, so that one misfit decides
        value = {k: rng.choice(fits[k] if rng.random() < 0.9 else [9, "X", [], {}, 1])
                 for k in rng.sample(sorted(fits), rng.randint(0, 12))}
        tree = jt.from_python(value)
        got = sch.validate_schema(tree, doc)
        assert got == oracle_schema(tree, doc), json.dumps(value)
        verdicts.add(got)
    assert verdicts == {True, False}
