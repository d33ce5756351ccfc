"""Seeded input generator for the jlogic benchmark.

    python3 perfbench/gen.py --workload validate --seed 1 --out DIR [--tiny]

Writes the workload's documents, schemas and formulas into DIR plus
DIR/manifest.json, the fixed request sequence: for each request its argv
for `jlogic.cli.main` (file arguments relative to DIR), its request class,
its input size and the check its output must pass.  The same seed writes
byte-identical files.

Expected answers come from the construction and from `expect` (plain
Python); the only part of jlogic used here is `jlogic.decision.encode`
and the formula printers, to turn 3CNF and QBF instances into formula
text.  This runs in its own process, so the serving process's peak
memory belongs to the program alone.

Sizes and depths are fixed grids (stratified log-uniform or uniform),
and the seed draws the contents, parameters, violation positions and
request order.  That keeps each run's size mix, and so its timing, the
same from seed to seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expect  # noqa: E402

WORKLOADS = ("validate", "query", "reason")

LEAVES = ["x", "abc", "hello", 3, 17, 42, 0]
KEYS = [f"k{i}" for i in range(31)]

G_RJSL = ("let g = (obj && box(/k[0-9]+/) g) || (arr && box(1:*) g) || "
          "(str && pattern(/[a-z]+/)) || (int && max(100)); in box(/items/) g")
G_REF = {"$ref": "#/definitions/g"}
G_SCHEMA = {
    "type": "object",
    "properties": {"items": G_REF},
    "definitions": {"g": {"anyOf": [
        {"type": "object", "patternProperties": {"k[0-9]+": G_REF}},
        {"type": "array", "additionalItems": G_REF},
        {"type": "string", "pattern": "[a-z]+"},
        {"type": "number", "maximum": 100},
    ]}},
}


def log_grid(lo, hi, n):
    """n stratum midpoints of a log-uniform distribution over [lo, hi]."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / n)) for i in range(n)]


def lin_grid(lo, hi, n):
    return [round(lo + (hi - lo) * (i + 0.5) / n) for i in range(n)]


def dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


class Writer:
    """Collects the files and requests of one workload."""

    def __init__(self, out):
        self.out = out
        self.requests = []
        os.makedirs(out, exist_ok=True)

    def file(self, name, text):
        with open(os.path.join(self.out, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return name

    def request(self, cls, argv, size, check):
        self.requests.append({"cls": cls, "argv": argv, "size": size, "check": check})

    def finish(self, workload, seed, rng):
        """Keep the first request (the set-up probe) first, shuffle the rest."""
        first, rest = self.requests[0], self.requests[1:]
        rng.shuffle(rest)
        manifest = {"workload": workload, "seed": seed, "requests": [first] + rest}
        for i, req in enumerate(manifest["requests"]):
            req["id"] = i
        self.file("manifest.json", json.dumps(manifest, indent=1, sort_keys=True))


# -- documents ---------------------------------------------------------------------


def w1_value(rng, depth, pool=None, share=0.0):
    """The ROADMAP W1 generator v(d), optionally reusing pooled subtrees."""
    if pool and depth <= 2 and rng.random() < share:
        return json.loads(dumps(rng.choice(pool)))
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(LEAVES)
    if rng.random() < 0.5:
        return {k: w1_value(rng, depth - 1, pool, share)
                for k in rng.sample(KEYS, rng.randint(1, 6))}
    return [w1_value(rng, depth - 1, pool, share) for _ in range(rng.randint(1, 6))]


def wide_doc(rng, nodes, pool=None, share=0.0):
    """{"items": [v(5), ...]} with exactly `nodes` nodes: an item that would
    overshoot is drawn again from a shallower v(d), down to single leaves.
    Exact sizes keep each request's cost the same from seed to seed."""
    items, count = [], 2
    while count < nodes:
        depth = 5
        while True:
            item = w1_value(rng, depth, pool, share)
            size = expect.count_nodes(item)
            if count + size <= nodes:
                break
            depth = max(0, depth - 1)
        items.append(item)
        count += size
    return {"items": items}


def chain(rng, depth, keys):
    """A narrow value nested `depth` levels, built inside out."""
    value = rng.choice(LEAVES)
    for _ in range(depth):
        if rng.random() < 0.7:
            key = rng.choice(keys)
            node = {key: value}
            if rng.random() < 0.3:
                node[rng.choice([k for k in KEYS if k != key])] = rng.choice(LEAVES)
            value = node
        else:
            value = [value] if rng.random() < 0.6 else [rng.choice(LEAVES), value]
    return value


def inject_violation(rng, doc):
    """Replace one leaf, at a seeded depth, by an int above 100 or a string
    outside [a-z]+.

    The leaf lies in the last item that is not a leaf, so a validator that
    stops at the first violation still reads nearly the whole document, and
    a request's cost does not hinge on where the violation happened to
    fall."""
    last = max(i for i, item in enumerate(doc["items"], 1) if isinstance(item, (dict, list)))
    leaves = [((last,) + p, n) for p, n in expect.walk(doc["items"][last - 1])
              if not isinstance(n, (dict, list))]
    depth = rng.choice(sorted({len(p) for p, _ in leaves}))
    path = rng.choice([p for p, _ in leaves if len(p) == depth])
    parent = doc["items"]
    for seg in path[:-1]:
        parent = parent[seg - 1] if isinstance(parent, list) else parent[seg]
    bad = rng.choice([101, 250, 999, "Hello", "a1", "x-y"])
    if isinstance(parent, list):
        parent[path[-1] - 1] = bad
    else:
        parent[path[-1]] = bad


# -- validate ----------------------------------------------------------------------

VALIDATE_VARIANTS = (
    # (request class, argv after the document, verdict words, subcommand)
    (1, ["g.schema.json"], ("VALID", "INVALID"), "validate"),
    (2, ["g.schema.json", "--via", "jsl"], ("VALID", "INVALID"), "validate"),
    (2, ["g.rjsl", "--logic", "rjsl"], ("VALID", "INVALID"), "validate"),
    (3, ["--formula-file", "g.rjsl", "--logic", "rjsl"], ("ACCEPT", "REJECT"), "automaton"),
)


def gen_validate(w, rng, tiny):
    w.file("g.rjsl", G_RJSL)
    w.file("g.schema.json", dumps(G_SCHEMA))
    sizes = log_grid(100, 1000 if tiny else 10000, 3 if tiny else 22)
    depths = lin_grid(100, 400, 1 if tiny else 3)
    for v, (cls, tail, words, command) in enumerate(VALIDATE_VARIANTS):
        docs = []
        for i, size in enumerate(sizes):
            doc = wide_doc(rng, size)
            if i % 3 == 1:
                inject_violation(rng, doc)
            docs.append(doc)
        for depth in depths:
            docs.append({"items": [chain(rng, depth, KEYS)]})
        for i, doc in enumerate(docs):
            ok = expect.g_valid(doc)
            if (i % 3 == 1 and i < len(sizes)) == ok:
                raise AssertionError("violation injection and the g walk disagree")
            name = w.file(f"v{v}_{i}.json", dumps(doc))
            w.request(cls, [command, name] + tail, expect.count_nodes(doc),
                      {"kind": "exact", "exit": 0 if ok else 1,
                       "stdout": (words[0] if ok else words[1]) + "\n"})


# -- query ---------------------------------------------------------------------------

LIST_FAMILIES = ("true", "keyre", "eqpp", "key", "eqc", "idx", "closure")
CHAIN_FAMILIES = ("true", "closure")
MEMBER_FAMILIES = ("key", "eqpp", "keyre", "eqc", "idx", "closure")
CHAIN_KEYS = ["k1", "k12", "k15", "k2", "k3"]


def query_spec(rng, family, pool):
    if family == "key":
        return {"f": "key", "k": rng.choice(KEYS)}
    if family == "keyre":
        return {"f": "keyre", "re": rng.choice(["k1.*", "k2.*"])}
    if family == "idx":
        return {"f": "idx", "i": 2}
    if family == "eqc":
        # a pooled subtree, so hits are subtree matches that must confirm
        return {"f": "eqc", "k": rng.choice(KEYS), "c": rng.choice(pool)}
    if family == "eqpp":
        a, b = rng.sample(KEYS, 2)
        return {"f": "eqpp", "a": a, "b": b}
    if family == "closure":
        return {"f": "closure", "re": "k1.*", "k": rng.choice(KEYS)}
    return {"f": "true"}


def gen_query(w, rng, tiny):
    pool = [w1_value(rng, 2) for _ in range(12)]
    pool = [p for p in pool if isinstance(p, (dict, list))] or [{"k1": "x"}]
    top = 1000 if tiny else 10000
    # (class, format, wide docs, chains): class 1 text listing, 2 membership,
    # 3 listing with --format json
    plan = ((1, "text", 3 if tiny else 42, 1 if tiny else 8),
            (2, "text", 2 if tiny else 21, 1 if tiny else 4),
            (3, "json", 2 if tiny else 21, 1 if tiny else 4))
    count = 0
    for cls, fmt, n_wide, n_chain in plan:
        docs = [(wide_doc(rng, s, pool, 0.25), i) for i, s in enumerate(log_grid(100, top, n_wide))]
        docs += [({"items": [chain(rng, d, CHAIN_KEYS)]}, i)
                 for i, d in enumerate(lin_grid(50, 400, n_chain))]
        for j, (doc, i) in enumerate(docs):
            is_chain = j >= n_wide
            name = w.file(f"q{count}.json", dumps(doc))
            count += 1
            size = expect.count_nodes(doc)
            if cls == 2:
                spec = query_spec(rng, MEMBER_FAMILIES[i % len(MEMBER_FAMILIES)], pool)
                members = expect.query_members(doc, spec)
                if members and rng.random() < 0.5:
                    path = rng.choice(sorted(members, key=expect.render))
                else:
                    path = rng.choice(expect.walk(doc))[0]
                member = path in members
                w.request(cls, ["query", name, "--formula", expect.jnl_text(spec),
                                "--node", expect.render(path)], size,
                          {"kind": "exact", "exit": 0 if member else 1,
                           "stdout": ("true" if member else "false") + "\n"})
                continue
            families = CHAIN_FAMILIES if is_chain else LIST_FAMILIES
            spec = query_spec(rng, families[i % len(families)], pool)
            members = sorted(expect.render(p) for p in expect.query_members(doc, spec))
            expected = w.file(f"q{count - 1}.expect.json", dumps(members))
            argv = ["query", name, "--formula", expect.jnl_text(spec)]
            if fmt == "json":
                argv += ["--format", "json"]
            w.request(cls, argv, size, {"kind": "paths", "format": fmt, "expect": expected})


# -- reason ----------------------------------------------------------------------------

ATOMS = ["int", "str", "obj", "arr", "min(2)", "max(9)", "pattern(/[a-z]+/)"]
PATTERNS = ["[a-z]+", "a(b|c)*", "x.*", "[0-9]+", "(ab)+", "h.*o"]
SMALL_LEAVES = [0, 1, 2, 3, 5, 8, 12, "a", "ab", "abc", "x1", "hello", "xyz", "12"]
SPEC_KEYS = ["a", "b", "c", "k1"]


def schema_spec(rng, depth):
    kinds = ["int", "str", "enum"] if depth == 0 else \
        ["int", "str", "enum", "obj", "arr", "anyOf", "allOf", "not"]
    kind = rng.choice(kinds)
    if kind == "int":
        lo = rng.choice([None, 0, 2, 5])
        hi = rng.choice([None, 8, 12, 100])
        return ["int", lo, hi, rng.choice([None, None, 2, 3])]
    if kind == "str":
        return ["str", rng.choice(PATTERNS + [None])]
    if kind == "enum":
        return ["enum", rng.sample(SMALL_LEAVES, rng.randint(1, 3))]
    if kind == "obj":
        keys = rng.sample(SPEC_KEYS, rng.randint(1, 2))
        required = [k for k in keys if rng.random() < 0.4]
        return ["obj", [[k, schema_spec(rng, depth - 1)] for k in keys], required, None]
    if kind == "arr":
        return ["arr", schema_spec(rng, depth - 1) if rng.random() < 0.8 else None]
    if kind == "not":
        return ["not", schema_spec(rng, depth - 1)]
    return [kind, [schema_spec(rng, depth - 1) for _ in range(2)]]


def same_spec(rng, depth):
    kind = "same" if depth == 0 else rng.choice(
        ["same", "dia_key", "box_key", "dia_idx", "box_idx", "and", "or", "neg"])
    if kind == "same":
        return ["same", rng.choice(SMALL_LEAVES + [{"a": 1}, [1, "a"]])]
    if kind == "dia_key":
        return ["dia_key", rng.choice(SPEC_KEYS), same_spec(rng, depth - 1)]
    if kind == "box_key":
        return ["box_key", rng.choice(["a|b", "k.*", "c"]), same_spec(rng, depth - 1)]
    if kind == "dia_idx":
        return ["dia_idx", rng.randint(1, 2), same_spec(rng, depth - 1)]
    if kind == "box_idx":
        return ["box_idx", same_spec(rng, depth - 1)]
    if kind == "neg":
        return ["neg", same_spec(rng, depth - 1)]
    return [kind, same_spec(rng, depth - 1), same_spec(rng, depth - 1)]


def spec_schema(spec):
    """JSON Schema for a spec of the schema fragment."""
    tag = spec[0]
    if tag == "int":
        out = {"type": "number"}
        for key, val in zip(("minimum", "maximum", "multipleOf"), spec[1:]):
            if val:
                out[key] = val
        return out
    if tag == "str":
        return {"type": "string", **({"pattern": spec[1]} if spec[1] else {})}
    if tag == "enum":
        return {"enum": spec[1]}
    if tag == "obj":
        out = {"type": "object", "properties": {k: spec_schema(s) for k, s in spec[1]}}
        if spec[2]:
            out["required"] = spec[2]
        return out
    if tag == "arr":
        return {"type": "array", **({"additionalItems": spec_schema(spec[1])} if spec[1] else {})}
    if tag == "not":
        return {"not": spec_schema(spec[1])}
    return {tag: [spec_schema(s) for s in spec[1]]}


def spec_jsl(spec) -> str:
    """Schema-logic text for a spec."""
    tag = spec[0]
    if tag == "int":
        parts = ["int"] + [f"{op}({val})" for op, val in zip(("min", "max", "multOf"), spec[1:])
                           if val]
        return "(" + " && ".join(parts) + ")"
    if tag == "str":
        return f"(str && pattern(/{spec[1]}/))" if spec[1] else "str"
    if tag in ("enum",):
        return "(" + " || ".join(f"same({dumps(c)})" for c in spec[1]) + ")"
    if tag == "obj":
        parts = ["obj"] + [f"box(/{k}/) {spec_jsl(s)}" for k, s in spec[1]]
        parts += [f'dia("{k}") true' for k in spec[2]]
        return "(" + " && ".join(parts) + ")"
    if tag == "arr":
        return f"(arr && box(1:*) {spec_jsl(spec[1])})" if spec[1] else "arr"
    if tag in ("not", "neg"):
        return f"!{spec_jsl(spec[1])}"
    if tag in ("anyOf", "allOf"):
        op = " || " if tag == "anyOf" else " && "
        return "(" + op.join(spec_jsl(s) for s in spec[1]) + ")"
    if tag == "same":
        return f"same({dumps(spec[1])})"
    if tag == "dia_key":
        return f'(dia("{spec[1]}") {spec_jsl(spec[2])})'
    if tag == "box_key":
        return f"(box(/{spec[1]}/) {spec_jsl(spec[2])})"
    if tag == "dia_idx":
        return f"(dia({spec[1]}) {spec_jsl(spec[2])})"
    if tag == "box_idx":
        return f"(box(1:*) {spec_jsl(spec[1])})"
    op = " && " if tag == "and" else " || "
    return f"({spec_jsl(spec[1])}{op}{spec_jsl(spec[2])})"


def small_value(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.4:
        return rng.choice(SMALL_LEAVES)
    if r < 0.7:
        return {k: small_value(rng, depth - 1)
                for k in rng.sample(SPEC_KEYS + ["k9"], rng.randint(0, 3))}
    return [small_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]


def wf_case(rng, ill_formed):
    """A recursive definition whose unshielded references form a DAG, plus
    one back reference when it must be ill-formed."""
    m = rng.randint(2, 4)
    names = [f"g{i + 1}" for i in range(m)]
    order = names[:]
    rng.shuffle(order)
    rank = {s: i for i, s in enumerate(order)}
    bodies = {s: [rng.choice(ATOMS)] for s in names}
    edges = set()
    for s in names:
        for t in rng.sample(names, rng.randint(0, 2)):
            mod = rng.choice(["box(/k.*/)", "dia(1)", 'dia("a")', "box(1:*)"])
            bodies[s].append(f"{mod} {t}")
        later = [t for t in names if rank[t] > rank[s]]
        if later and rng.random() < 0.6:
            t = rng.choice(later)
            bodies[s].append(rng.choice([t, f"!{t}"]))
            edges.add((s, t))
    if ill_formed:
        s = rng.choice(names)
        t = rng.choice([u for u in names if rank[u] <= rank[s]])
        bodies[s].append(t)
        edges.add((s, t))
    defs = []
    for s in names:
        parts = bodies[s][:]
        rng.shuffle(parts)
        op = rng.choice([" && ", " || "])
        defs.append(f"let {s} = " + op.join(f"({p})" for p in parts) + ";")
    text = " ".join(defs) + f" in {rng.choice(names)} && {rng.choice(ATOMS)}"
    return text, names, sorted(edges)


def random_qbf(rng, quantifiers, n_clauses):
    """A QBF with the given prefix ('e'/'f' per variable) and seeded clauses."""
    from jlogic.decision.encode import Qbf
    n = len(quantifiers)
    names = [f"x{i + 1}" for i in range(n)]
    prefix = tuple(("exists" if q == "e" else "forall", v) for q, v in zip(quantifiers, names))
    clauses = tuple(tuple((v, rng.random() < 0.5) for v in rng.sample(names, min(3, n)))
                    for _ in range(n_clauses))
    return Qbf(prefix, clauses)


def gen_reason(w, rng, tiny):
    from jlogic import jnl, jsl
    from jlogic.decision.encode import encode_3sat, encode_qbf

    def sat(formula, logic, bounds, check, size, budget=None):
        argv = ["sat", "--formula", formula, "--logic", logic, "--max-depth", str(bounds[0]),
                "--max-width", str(bounds[1]), "--max-atoms", str(bounds[2])]
        if budget:
            argv += ["--budget", str(budget)]
        w.request(1, argv, size, {**check, "kind": "sat", "bounds": list(bounds)})

    variables = ["x1", "x2", "x3", "x4", "x5"]
    for _ in range(4 if tiny else 32):
        clauses = [[[v, rng.random() < 0.5] for v in rng.sample(variables, 3)] for _ in range(8)]
        text = jnl.unary_to_text(encode_3sat([[tuple(l) for l in c] for c in clauses]))
        sat(text, "jnl", (2, 5, 8), {"sat": expect.cnf_sat(clauses), "prop": "cnf",
                                     "clauses": clauses}, len(text))
    # QBF: the prefixes are fixed and the clauses seeded.  A QBF's cost
    # swings by 10x with its verdict, so drawn prefixes and clause counts
    # would decide every run's total; with 3 variables, instances with more
    # clauses take up to 13 s.
    qbfs = [random_qbf(rng, prefix, rng.randint(1, 4)) for prefix in ("e", "f", "e", "f")]
    qbfs += [random_qbf(rng, prefix, 1) for prefix in ("ee", "ef", "fe", "ff")]
    qbfs += [random_qbf(rng, prefix, 1) for prefix in ("efe", "fee", "eef")[:1 if tiny else 3]]
    for q in qbfs:
        n = len(q.prefix)
        text = jsl.to_text(encode_qbf(q))
        sat(text, "jsl", (2 * n, 2, 5),
            {"sat": expect.qbf_true(q.prefix, q.clauses), "prop": "qbf",
             "prefix": [list(p) for p in q.prefix],
             "clauses": [[list(l) for l in c] for c in q.clauses]}, len(text), budget=500_000)
    # cases whose verdict is known by construction; obj && minCh(2) is a
    # baseline failure (see README.md) and stays in every run
    lo, hi = rng.randint(0, 20), rng.randint(0, 20)
    key = rng.choice(SPEC_KEYS)
    k = rng.randint(1, 3)
    cmax = rng.randint(0, 50)
    word = rng.choice(["ab+", "x(y|z)*", "h.*o"])
    cases = [
        ("obj && minCh(2)", {"sat": True, "prop": "min_keys", "k": 2}),
        ("obj && minCh(1)", {"sat": True, "prop": "min_keys", "k": 1}),
        (f"arr && minCh({k}) && maxCh({k})", {"sat": True, "prop": "arr_len", "k": k}),
        (f"int && min({lo}) && max({hi})",
         {"sat": lo <= hi, "prop": "int_range", "lo": lo, "hi": hi}),
        (f"str && pattern(/{word}/)", {"sat": True, "prop": "str_re", "re": word}),
        (f'obj && dia("{key}") (int && max({cmax}))',
         {"sat": True, "prop": "key_int_max", "k": key, "max": cmax}),
        (f'obj && dia("{key}") int && box(/{key}/) str', {"sat": False}),
    ]
    for text, check in cases:
        sat(text, "jsl", (3, 3, 6), check, len(text))
    # compile: schema -> jsl, jsl -> schema, jsl -> jnl
    for i in range(2 if tiny else 10):
        for source, target in (("schema", "jsl"), ("jsl", "schema"), ("jsl", "jnl")):
            spec = same_spec(rng, 2) if target == "jnl" else schema_spec(rng, 2)
            text = dumps(spec_schema(spec)) if source == "schema" else spec_jsl(spec)
            name = w.file(f"c{i}_{source}_{target}.in", text)
            docs = [small_value(rng, 2) for _ in range(5)]
            w.request(2, ["compile", name, "--from", source, "--to", target], len(text),
                      {"kind": "compile", "target": target, "docs": [dumps(d) for d in docs],
                       "verdicts": [expect.spec_holds(spec, d) for d in docs]})
    for i in range(4 if tiny else 20):
        text, names, edges = wf_case(rng, ill_formed=i % 2 == 1)
        w.request(3, ["check-wf", "--formula", text], len(text),
                  {"kind": "wf", "symbols": names, "edges": edges,
                   "well_formed": expect.find_cycle(names, edges) is None})


def generate(workload, seed, out, tiny=False):
    # one stream per workload, so the seed alone fixes the inputs
    rng = random.Random(f"{workload}:{seed}")
    w = Writer(out)
    {"validate": gen_validate, "query": gen_query, "reason": gen_reason}[workload](w, rng, tiny)
    w.finish(workload, seed, rng)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for smoke tests")
    parser.add_argument("--src", default="src", help="directory holding the jlogic package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    generate(args.workload, args.seed, args.out, args.tiny)


if __name__ == "__main__":
    main()
