"""The JSON Schema core fragment and its compilers to and from the logic.

Supported keywords: the four ``type`` forms with their shaping keywords
(``pattern``; ``minimum``/``maximum``/``multipleOf``; ``minProperties``/
``maxProperties``/``required``/``properties``/``patternProperties``/
``additionalProperties``; ``items``/``uniqueItems``/``additionalItems``),
the combinators ``allOf``/``anyOf``/``not``/``enum``, plus a root-level
``definitions`` section referenced through ``{"$ref": "#/definitions/x"}``.
Anything else is rejected.  ``validate_schema`` runs the schema's
translation into the logic (``schema_to_jsl``) on the logic's evaluators;
there is no second semantics of the keywords in the program.  The tests
hold it to the keyword interpreter kept as an oracle in
``tests/helpers.py``.

Semantics notes that matter: ``items`` entries are required positions (an
array must be at least that long), and without ``additionalItems`` no
further elements are allowed; numeric bounds are inclusive; an absent
keyword never constrains.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from typing import Optional

from . import jsl
from . import recursive as rec
from . import regex as rx
from . import tree as jt
from ._node import Node, each, walk
from .errors import (
    BlowupLimitExceeded,
    DocumentError,
    FragmentViolation,
    NestingTooDeep,
    NonNaturalNumber,
    TypeMismatch,
    UnknownKeyword,
    UnresolvableRef,
)
from .jnl import operands
from .tree import JsonTree, NodeKind

DEFAULT_SCHEMA_CAP = 100_000


class SchemaAst(Node):
    __slots__ = ()


class EmptySchema(SchemaAst):
    """{} validates against any document."""
    __slots__ = ()


class StringSchema(SchemaAst):
    __slots__ = ("pattern",)
    _defaults = {"pattern": None}


class NumberSchema(SchemaAst):
    __slots__ = ("minimum", "maximum", "multiple_of")
    _defaults = {"minimum": None, "maximum": None, "multiple_of": None}


class ObjectSchema(SchemaAst):
    # properties: ((key, SchemaAst), ...); pattern_properties: ((Regex, SchemaAst), ...)
    __slots__ = ("min_properties", "max_properties", "required", "properties",
                 "pattern_properties", "additional_properties")
    _defaults = {"min_properties": None, "max_properties": None, "required": (), "properties": (),
                 "pattern_properties": (), "additional_properties": None}


class ArraySchema(SchemaAst):
    __slots__ = ("items", "unique_items", "additional_items")
    _defaults = {"items": None, "unique_items": False, "additional_items": None}


class AllOf(SchemaAst):
    __slots__ = ("parts",)


class AnyOf(SchemaAst):
    __slots__ = ("parts",)


class NotSchema(SchemaAst):
    __slots__ = ("body",)


class Enum(SchemaAst):
    # values: JsonTree constants
    __slots__ = ("values",)


class Ref(SchemaAst):
    __slots__ = ("name",)


class SchemaDocument(Node):
    """A parsed schema: its root and its ``((name, SchemaAst), ...)``
    definitions.  The instance dict holds its cached translation."""
    __slots__ = ("root", "definitions", "__dict__")
    _defaults = {"definitions": ()}

    def definition_map(self) -> dict:
        return dict(self.definitions)

    @cached_property
    def formula(self):
        """``schema_to_jsl`` of this document, translated once."""
        return schema_to_jsl(self)


UNSATISFIABLE = NotSchema(EmptySchema())


# -- parsing -------------------------------------------------------------------


_TYPE_KEYWORDS = {
    "string": {"pattern"},
    "number": {"minimum", "maximum", "multipleOf"},
    "object": {"minProperties", "maxProperties", "required", "properties",
               "patternProperties", "additionalProperties"},
    "array": {"items", "uniqueItems", "additionalItems"},
}
_COMBINATORS = ("allOf", "anyOf", "not", "enum", "$ref")


def parse_schema(text: str) -> SchemaDocument:
    try:
        raw = jt.decode(text)
    except NonNaturalNumber as exc:
        raise TypeMismatch(str(exc)) from None
    if not isinstance(raw, dict):
        raise TypeMismatch("a schema must be a JSON object")
    raw = dict(raw)
    defs = []
    if "definitions" in raw:
        section = raw.pop("definitions")
        if not isinstance(section, dict):
            raise TypeMismatch("definitions must be an object")
        defs = [(name, _ast(sub)) for name, sub in section.items()]
    root = _ast(raw)
    missing = _refs(root).union(*(_refs(ast) for _, ast in defs)) - {n for n, _ in defs}
    if missing:
        raise UnresolvableRef(f"unresolved references: {sorted(missing)}")
    return SchemaDocument(root, tuple(defs))


def _ast(raw) -> SchemaAst:
    return walk(_schema, raw, memo=False)


def _schema(raw):
    """Walker: a raw schema value to its node."""
    if not isinstance(raw, dict):
        raise TypeMismatch("a schema must be a JSON object")
    if not raw:
        return EmptySchema()
    if "definitions" in raw:
        raise UnknownKeyword("definitions is only allowed at the document root")
    present = set(raw)
    for comb in _COMBINATORS:
        if comb in raw:
            if len(raw) != 1:
                extra = sorted(present - {comb})
                raise UnknownKeyword(f"{comb} cannot be combined with {extra}")
            return (yield from _combinator(comb, raw[comb]))
    if "type" not in raw:
        raise UnknownKeyword(f"keyword {sorted(present)[0]!r} requires a type keyword")
    typ = raw["type"]
    if typ not in _TYPE_KEYWORDS:
        raise TypeMismatch(f"unsupported type {typ!r}")
    allowed = _TYPE_KEYWORDS[typ] | {"type"}
    unknown = present - allowed
    if unknown:
        raise UnknownKeyword(f"keyword {sorted(unknown)[0]!r} not allowed with type {typ}")
    if typ == "string":
        return StringSchema(pattern=_opt_regex(raw, "pattern"))
    if typ == "number":
        return NumberSchema(minimum=_opt_nat(raw, "minimum"),
                            maximum=_opt_nat(raw, "maximum"),
                            multiple_of=_opt_nat(raw, "multipleOf"))
    if typ == "object":
        return (yield from _object_schema(raw))
    return (yield from _array_schema(raw))


def _combinator(name: str, value):
    if name == "$ref":
        if not isinstance(value, str) or not value.startswith("#/definitions/"):
            raise UnresolvableRef(f"only #/definitions/<name> references are supported: {value!r}")
        target = value[len("#/definitions/"):]
        if not target or "/" in target:
            raise UnresolvableRef(f"bad reference path {value!r}")
        return Ref(target)
    if name == "not":
        return NotSchema((yield value))
    if name == "enum":
        if not isinstance(value, list):
            raise TypeMismatch("enum expects an array of documents")
        try:
            return Enum(tuple(jt.from_python(v) for v in value))
        except DocumentError as exc:
            raise TypeMismatch(f"enum value outside the document model: {exc}") from exc
    if not isinstance(value, list):
        raise TypeMismatch(f"{name} expects an array of schemas")
    return (AllOf if name == "allOf" else AnyOf)(tuple((yield from each(value))))


def _object_schema(raw):
    required = raw.get("required", [])
    if not isinstance(required, list) or not all(isinstance(k, str) for k in required):
        raise TypeMismatch("required expects an array of key strings")
    props = raw.get("properties", {})
    if not isinstance(props, dict):
        raise TypeMismatch("properties expects an object")
    patterns = raw.get("patternProperties", {})
    if not isinstance(patterns, dict):
        raise TypeMismatch("patternProperties expects an object")
    additional = raw.get("additionalProperties")
    if additional is not None and not isinstance(additional, dict):
        raise TypeMismatch("additionalProperties expects a schema object")
    bounds = _opt_nat(raw, "minProperties"), _opt_nat(raw, "maxProperties")
    properties, pattern_properties = tuple(zip(props, (yield from each(props.values())))), []
    for p, v in patterns.items():
        pattern_properties.append((rx.parse_regex(p), (yield v)))
    return ObjectSchema(*bounds, tuple(dict.fromkeys(required)), properties,
                        tuple(pattern_properties),
                        (yield additional) if additional is not None else None)


def _array_schema(raw):
    items = raw.get("items")
    if items is not None and not isinstance(items, list):
        raise TypeMismatch("items expects an array of schemas")
    unique = raw.get("uniqueItems", False)
    if not isinstance(unique, bool):
        raise TypeMismatch("uniqueItems expects true or false")
    additional = raw.get("additionalItems")
    if additional is not None and not isinstance(additional, dict):
        raise TypeMismatch("additionalItems expects a schema object")
    return ArraySchema(
        items=tuple((yield from each(items))) if items is not None else None,
        unique_items=unique,
        additional_items=(yield additional) if additional is not None else None,
    )


def _opt_nat(raw, key) -> Optional[int]:
    if key not in raw:
        return None
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise TypeMismatch(f"{key} expects a natural number, got {v!r}")
    return v


def _opt_regex(raw, key) -> Optional[rx.Regex]:
    if key not in raw:
        return None
    v = raw[key]
    if not isinstance(v, str):
        raise TypeMismatch(f"{key} expects a pattern string")
    return rx.parse_regex(v)


def _sub_schemas(ast: SchemaAst):
    """Direct children in schema positions (None for an absent optional one)."""
    if isinstance(ast, ObjectSchema):
        yield from (sub for _, sub in ast.properties)
        yield from (sub for _, sub in ast.pattern_properties)
        yield ast.additional_properties
    elif isinstance(ast, ArraySchema):
        yield from ast.items or ()
        yield ast.additional_items
    elif isinstance(ast, (AllOf, AnyOf)):
        yield from ast.parts
    elif isinstance(ast, NotSchema):
        yield ast.body


def _refs(ast: SchemaAst) -> set:
    """The names ``ast`` references."""
    out, stack = set(), [ast]
    while stack:
        a = stack.pop()
        if isinstance(a, Ref):
            out.add(a.name)
        elif a is not None:
            stack.extend(_sub_schemas(a))
    return out


# -- validation ----------------------------------------------------------------------


def validate_schema(tree: JsonTree, doc: SchemaDocument) -> bool:
    """Whether the document satisfies the schema: its translation
    (``SchemaDocument.formula``) run by ``recursive.eval_recursive``, where
    a ``$ref`` reads its definition's table, filled bottom-up."""
    formula = doc.formula
    if isinstance(formula, rec.RecursiveJslExpr):
        return rec.eval_recursive(formula, tree)
    return jsl.validate(tree, formula)


# -- schema to logic ----------------------------------------------------------------


def schema_to_jsl(doc: SchemaDocument):
    """Equivalent formula; recursive documents yield a recursive expression."""
    memo = {}
    if doc.definitions:
        defs = [(name, walk(_to_jsl, ast, memo)) for name, ast in doc.definitions]
        return rec.make_recursive(defs, walk(_to_jsl, doc.root, memo))
    return walk(_to_jsl, doc.root, memo)


def _to_jsl(ast: SchemaAst):
    if isinstance(ast, EmptySchema):
        return jsl.TOP
    if isinstance(ast, Ref):
        return jsl.SymbolRef(ast.name)
    if isinstance(ast, StringSchema):
        parts = [jsl.Atom(jsl.KindTest(NodeKind.STR))]
        if ast.pattern is not None:
            parts.append(jsl.Atom(jsl.PatternTest(ast.pattern)))
        return jsl.and_all(parts)
    if isinstance(ast, NumberSchema):
        parts = [jsl.Atom(jsl.KindTest(NodeKind.INT))]
        if ast.minimum is not None:
            parts.append(jsl.Atom(jsl.MinTest(ast.minimum)))
        if ast.maximum is not None:
            parts.append(jsl.Atom(jsl.MaxTest(ast.maximum)))
        if ast.multiple_of is not None:
            parts.append(jsl.Atom(jsl.MultOfTest(ast.multiple_of)))
        return jsl.and_all(parts)
    if isinstance(ast, ObjectSchema):
        parts = [jsl.Atom(jsl.KindTest(NodeKind.OBJ))]
        if ast.min_properties is not None:
            parts.append(jsl.Atom(jsl.MinChTest(ast.min_properties)))
        if ast.max_properties is not None:
            parts.append(jsl.Atom(jsl.MaxChTest(ast.max_properties)))
        for req in ast.required:
            parts.append(jsl.DiaKey(rx.word_regex(req), jsl.TOP))
        named = [(rx.word_regex(key), sub) for key, sub in ast.properties]
        named += ast.pattern_properties
        for pattern, sub in named:
            parts.append(jsl.BoxKey(pattern, (yield sub)))
        if ast.additional_properties is not None:
            klass = rx.compl(rx.alt(p for p, _ in named)) if named else rx.SIGMA_STAR
            parts.append(jsl.BoxKey(klass, (yield ast.additional_properties)))
        return jsl.and_all(parts)
    if isinstance(ast, ArraySchema):
        parts = [jsl.Atom(jsl.KindTest(NodeKind.ARR))]
        if ast.unique_items:
            parts.append(jsl.Atom(jsl.UniqueTest()))
        n_items = len(ast.items) if ast.items is not None else 0
        for i, sub in enumerate(ast.items or (), start=1):
            parts.append(jsl.DiaIdx(i, i, (yield sub)))
        if ast.additional_items is not None:
            parts.append(jsl.BoxIdx(n_items + 1, None, (yield ast.additional_items)))
        elif ast.items is not None:
            parts.append(jsl.BoxIdx(n_items + 1, None, jsl.BOTTOM))
        return jsl.and_all(parts)
    if isinstance(ast, AllOf):
        return jsl.and_all((yield from each(ast.parts)))
    if isinstance(ast, AnyOf):
        return jsl.or_all((yield from each(ast.parts)))
    if isinstance(ast, NotSchema):
        return jsl.Not((yield ast.body))
    if isinstance(ast, Enum):
        return jsl.or_all(jsl.Atom(jsl.SameAsTest(v)) for v in ast.values)
    raise TypeError(f"not a schema: {ast!r}")


# -- logic to schema ----------------------------------------------------------------


def jsl_to_schema(phi: jsl.JslFormula, size_cap: int = DEFAULT_SCHEMA_CAP) -> SchemaDocument:
    """Schema agreeing with the formula on every document.

    Child-count tests expand into unions over object and array cases (plus
    the leaf kinds, which always have zero children); universal index
    modalities expand per array length.  ``size_cap`` bounds the output
    per occurrence (no memo).
    """
    budget = [size_cap]

    def visit(phi):
        _spend(budget)
        if isinstance(phi, jsl.Top):
            return EmptySchema()
        if isinstance(phi, jsl.Not):
            return NotSchema((yield phi.body))
        if isinstance(phi, (jsl.And, jsl.Or)):
            parts = tuple((yield from each(operands(phi))))
            return (AllOf if isinstance(phi, jsl.And) else AnyOf)(parts)
        if isinstance(phi, jsl.Atom):
            return _test_to_schema(phi.test, budget)
        if isinstance(phi, jsl.BoxKey):
            body = yield phi.body
            return AnyOf((NotSchema(ObjectSchema()),
                          ObjectSchema(pattern_properties=((phi.pattern, body),))))
        if isinstance(phi, jsl.DiaKey):
            return NotSchema((yield jsl.BoxKey(phi.pattern, jsl.Not(phi.body))))
        if isinstance(phi, jsl.BoxIdx):
            return (yield from _box_idx_schema(phi, budget))
        if isinstance(phi, jsl.DiaIdx):
            box = jsl.BoxIdx(phi.lo, phi.hi, jsl.Not(phi.body))
            return NotSchema((yield from _box_idx_schema(box, budget)))
        if isinstance(phi, jsl.SymbolRef):
            raise FragmentViolation(phi.name, "definition symbols have no schema counterpart here")
        raise TypeError(f"not a formula: {phi!r}")
    return SchemaDocument(walk(visit, phi, memo=False))


def _spend(budget, amount=1):
    budget[0] -= amount
    if budget[0] < 0:
        raise BlowupLimitExceeded("schema output exceeded the size cap")


def _exact_length(n: int) -> ArraySchema:
    """Arrays of exactly n elements."""
    return ArraySchema(items=tuple(EmptySchema() for _ in range(n)), additional_items=None)


def _box_idx_schema(phi: jsl.BoxIdx, budget):
    body = yield phi.body
    lo, hi = phi.lo, phi.hi
    parts = [NotSchema(ArraySchema())]
    blanks = tuple(EmptySchema() for _ in range(lo - 1))
    for length in range(0, lo):
        _spend(budget, length + 1)
        parts.append(_exact_length(length))
    if hi is None:
        _spend(budget, lo)
        parts.append(ArraySchema(items=blanks, additional_items=body))
    else:
        for length in range(lo, hi):
            _spend(budget, length + 1)
            constrained = blanks + tuple(body for _ in range(length - lo + 1))
            parts.append(ArraySchema(items=constrained, additional_items=None))
        _spend(budget, hi + 1)
        full = blanks + tuple(body for _ in range(hi - lo + 1))
        parts.append(ArraySchema(items=full, additional_items=EmptySchema()))
    return AnyOf(tuple(parts))


def _test_to_schema(test: jsl.NodeTest, budget) -> SchemaAst:
    if isinstance(test, jsl.KindTest):
        return {NodeKind.OBJ: ObjectSchema(), NodeKind.ARR: ArraySchema(),
                NodeKind.STR: StringSchema(), NodeKind.INT: NumberSchema()}[test.kind]
    if isinstance(test, jsl.UniqueTest):
        return ArraySchema(unique_items=True)
    if isinstance(test, jsl.PatternTest):
        return StringSchema(pattern=test.pattern)
    if isinstance(test, jsl.MinTest):
        return NumberSchema(minimum=test.bound)
    if isinstance(test, jsl.MaxTest):
        return NumberSchema(maximum=test.bound)
    if isinstance(test, jsl.MultOfTest):
        return NumberSchema(multiple_of=test.divisor)
    if isinstance(test, jsl.SameAsTest):
        return Enum((test.const,))
    if isinstance(test, jsl.MinChTest):
        if test.count == 0:
            return EmptySchema()
        _spend(budget, test.count + 2)
        return AnyOf((
            ObjectSchema(min_properties=test.count),
            ArraySchema(items=tuple(EmptySchema() for _ in range(test.count)),
                        additional_items=EmptySchema()),
        ))
    if isinstance(test, jsl.MaxChTest):
        # leaf kinds always pass (zero children); arrays enumerate per length
        _spend(budget, test.count + 4)
        parts = [ObjectSchema(max_properties=test.count), StringSchema(), NumberSchema()]
        for length in range(0, test.count + 1):
            _spend(budget, length + 1)
            parts.append(_exact_length(length))
        return AnyOf(tuple(parts))
    raise TypeError(f"not a node test: {test!r}")


# -- text form ------------------------------------------------------------------


def _python(ast: SchemaAst):
    """Walker: a schema node's JSON value."""
    if isinstance(ast, EmptySchema):
        return {}
    if isinstance(ast, Ref):
        return {"$ref": f"#/definitions/{ast.name}"}
    if isinstance(ast, StringSchema):
        out = {"type": "string"}
        if ast.pattern is not None:
            out["pattern"] = rx.to_text(ast.pattern)
        return out
    if isinstance(ast, NumberSchema):
        out = {"type": "number"}
        if ast.minimum is not None:
            out["minimum"] = ast.minimum
        if ast.maximum is not None:
            out["maximum"] = ast.maximum
        if ast.multiple_of is not None:
            out["multipleOf"] = ast.multiple_of
        return out
    if isinstance(ast, ObjectSchema):
        out = {"type": "object"}
        if ast.min_properties is not None:
            out["minProperties"] = ast.min_properties
        if ast.max_properties is not None:
            out["maxProperties"] = ast.max_properties
        if ast.required:
            out["required"] = list(ast.required)
        if ast.properties:
            values = yield from each(v for _, v in ast.properties)
            out["properties"] = dict(zip((k for k, _ in ast.properties), values))
        if ast.pattern_properties:
            values = yield from each(v for _, v in ast.pattern_properties)
            out["patternProperties"] = dict(zip((rx.to_text(p) for p, _ in ast.pattern_properties),
                                                values))
        if ast.additional_properties is not None:
            out["additionalProperties"] = yield ast.additional_properties
        return out
    if isinstance(ast, ArraySchema):
        out = {"type": "array"}
        if ast.items is not None:
            out["items"] = yield from each(ast.items)
        if ast.unique_items:
            out["uniqueItems"] = True
        if ast.additional_items is not None:
            out["additionalItems"] = yield ast.additional_items
        return out
    if isinstance(ast, AllOf):
        return {"allOf": (yield from each(ast.parts))}
    if isinstance(ast, AnyOf):
        return {"anyOf": (yield from each(ast.parts))}
    if isinstance(ast, NotSchema):
        return {"not": (yield ast.body)}
    if isinstance(ast, Enum):
        return {"enum": [jt.to_python(v) for v in ast.values]}
    raise TypeError(f"not a schema: {ast!r}")


def schema_to_text(doc: SchemaDocument, indent: Optional[int] = None) -> str:
    """The schema as JSON text; ``json.dumps`` recurses once per nested
    list or object, and nested past Python's recursion limit it raises
    ``NestingTooDeep``."""
    memo = {}
    out = walk(_python, doc.root, memo)
    if doc.definitions:
        out = {"definitions": {name: walk(_python, ast, memo) for name, ast in doc.definitions},
               **out}
    try:
        return json.dumps(out, ensure_ascii=False, indent=indent)
    except RecursionError:
        raise NestingTooDeep("the schema nests lists and objects past the JSON printer's "
                             f"recursion limit ({sys.getrecursionlimit()})") from None
