"""Bounded-model satisfiability search.

Candidate trees are assembled from an atom inventory read off the
formula (its keys and strings plus one fresh one of each, and fresh keys
up to the width bound when the formula counts children; its integer
constants, their neighbours and zero) within explicit depth and width
bounds.  A found witness is certain: it is re-checked by the ordinary
evaluator before being returned.  A negative answer only says no tree
within the explored bounds satisfies the formula, and the verdict
reports those bounds verbatim.

Desk-scale exhaustiveness comes from collapsing interchangeable
subtrees, staged by distance from the root: a parent at distance p reads
a child only through the truth of the formula bits a modality actually
consults at distance p+1 and through equality against the formula's
constants, so the search keeps one minimal representative per such class
and per level (several when array uniqueness makes distinct equal-class
siblings matter).  Levels fill bottom-up in increasing node count, which
keeps returned witnesses node-count minimal.  Navigational formulas
translate into the schema logic first; those outside the translatable
fragment (two-path equality, closure) fall back to enumerating every
distinct tree, where only the candidate budget keeps things finite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .. import jnl
from .. import jsl
from .. import recursive as rec
from .. import regex as rx
from .. import translate
from .. import tree as jt
from ..errors import BoundsTooLarge, IllFormedRecursion
from ..tree import JsonTree, NodeKind

DEFAULT_BUDGET = 200_000

_KIND_RANK = {"obj": 0, "arr": 1, "str": 2, "int": 3}


@dataclass(frozen=True)
class Bounds:
    max_depth: int
    max_width: int
    max_atoms: int

    def __post_init__(self):
        if self.max_depth < 0 or self.max_width < 0 or self.max_atoms < 1:
            raise ValueError(f"bad bounds {self}")

    def __str__(self):
        return f"({self.max_depth},{self.max_width},{self.max_atoms})"


@dataclass(frozen=True)
class SatVerdict:
    satisfiable: bool
    witness: Optional[JsonTree]
    bounds: Bounds

    def describe(self) -> str:
        if self.satisfiable:
            return f"SAT {jt.serialize(self.witness)}"
        return f"UNSAT up to {self.bounds}"


# -- candidates -------------------------------------------------------------------


class _Cand:
    """A candidate tree kept in cheap parts: python value, canonical text,
    subtree class id, and the truth mask of the compiled formula bits."""

    __slots__ = ("kind", "value", "children", "py", "serial", "cid",
                 "size", "mask")

    def __init__(self, kind, value, children, py, serial, cid, size):
        self.kind = kind
        self.value = value
        self.children = children  # ((key or None, _Cand), ...)
        self.py = py
        self.serial = serial
        self.cid = cid
        self.size = size
        self.mask = 0

    def order_key(self):
        return (_KIND_RANK[self.kind], self.serial)


def _leaf(kind, value, table) -> _Cand:
    if kind == "int":
        return _Cand("int", value, (), value, str(value), jt.intern_class(table, value), 1)
    if kind == "str":
        text = json.dumps(value, ensure_ascii=False)
        return _Cand("str", value, (), value, text, jt.intern_class(table, value), 1)
    if kind == "obj":
        return _Cand("obj", None, (), {}, "{}", jt.intern_class(table, keys=()), 1)
    return _Cand("arr", None, (), [], "[]", jt.intern_class(table), 1)


def _key_texts(keys) -> dict:
    """Each key's canonical ``"key":`` prefix, rendered once per search."""
    return {k: json.dumps(k, ensure_ascii=False) + ":" for k in keys}


def _make_obj(keys, reps, table, key_text) -> _Cand:
    children = tuple(zip(keys, reps))
    py = {k: r.py for k, r in children}
    serial = "{" + ",".join(key_text[k] + r.serial for k, r in children) + "}"
    ordered = sorted((k, r.cid) for k, r in children)
    cid = jt.intern_class(table, keys=tuple(k for k, _ in ordered),
                          child_ids=tuple(c for _, c in ordered))
    size = 1 + sum(r.size for r in reps)
    return _Cand("obj", None, children, py, serial, cid, size)


def _make_arr(reps, table) -> _Cand:
    children = tuple((None, r) for r in reps)
    py = [r.py for r in reps]
    serial = "[" + ",".join(r.serial for r in reps) + "]"
    cid = jt.intern_class(table, child_ids=tuple(r.cid for r in reps))
    size = 1 + sum(r.size for r in reps)
    return _Cand("arr", None, children, py, serial, cid, size)


# -- the compiled formula program ----------------------------------------------------


class _Program:
    """Formula closure flattened into bit instructions over candidates.

    Each distinct subformula owns one bit; a candidate's bit is computed
    from its own shape plus the already-final bit masks of its children,
    so interchangeability classes are read straight off the mask.  The
    instruction list is the same-node dependency graph; ``compile_steps``
    turns it into closures once per search.
    """

    def __init__(self, table):
        self.table = table  # subtree intern table shared with the candidates
        self.instrs = []
        self.bit_of = {}
        self.eq_bits = {}
        self.phi_bit = None
        self.has_counts = False
        self.has_unique = False
        self.has_equality = False
        self._filters = {}  # pattern -> rx.word_filter, for this search
        self._eval_order = None

    # compilation

    def compile_recursive(self, expr: rec.RecursiveJslExpr):
        # a shielded self- or forward-reference gets a placeholder copy slot
        # patched once the body's bit is known; evaluation order then follows
        # same-node dependencies rather than slot numbers
        bodies = dict(expr.definitions)
        for name in rec._topo_order(expr):
            bit = self._bit(bodies[name])
            ref = jsl.SymbolRef(name)
            placeholder = self.bit_of.get(ref)
            if placeholder is not None:
                self.instrs[placeholder] = ("copy", bit)
            else:
                self.bit_of[ref] = bit
        self.phi_bit = self._bit(expr.base)
        return self

    def compile_formula(self, phi: jsl.JslFormula):
        self.phi_bit = self._bit(phi)
        return self

    def _eval_sequence(self):
        if self._eval_order is not None:
            return self._eval_order
        deps = []
        for ins in self.instrs:
            op = ins[0]
            if op in ("not", "copy"):
                deps.append((ins[1],))
            elif op in ("and", "or"):
                deps.append((ins[1], ins[2]))
            else:
                deps.append(())
        order, done = [], [False] * len(self.instrs)
        for start in range(len(self.instrs)):
            if done[start]:
                continue
            stack = [(start, iter(deps[start]))]
            on_stack = {start}
            while stack:
                node, it = stack[-1]
                advanced = False
                for d in it:
                    if done[d]:
                        continue
                    if d in on_stack:
                        raise IllFormedRecursion("cyclic same-node bit dependencies")
                    stack.append((d, iter(deps[d])))
                    on_stack.add(d)
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    on_stack.discard(node)
                    done[node] = True
                    order.append(node)
        self._eval_order = order
        return order

    def _emit(self, phi, ins) -> int:
        idx = len(self.instrs)
        self.instrs.append(ins)
        self.bit_of[phi] = idx
        return idx

    def _eq_bit(self, cid) -> int:
        bit = self.eq_bits.get(cid)
        if bit is None:
            bit = len(self.instrs)
            self.instrs.append(("eqid", cid))
            self.eq_bits[cid] = bit
        return bit

    def _register_const(self, const: JsonTree) -> int:
        """Equality bits for every subtree of the constant; its root's id."""
        self.has_equality = True
        ids = jt.label_subtrees(const, self.table)
        for cid in ids:
            self._eq_bit(cid)
        return ids[0]

    def _bit(self, phi: jsl.JslFormula) -> int:
        hit = self.bit_of.get(phi)
        if hit is not None:
            return hit
        if isinstance(phi, jsl.Top):
            return self._emit(phi, ("true",))
        if isinstance(phi, jsl.Not):
            return self._emit(phi, ("not", self._bit(phi.body)))
        if isinstance(phi, jsl.And):
            return self._emit(phi, ("and", self._bit(phi.lhs), self._bit(phi.rhs)))
        if isinstance(phi, jsl.Or):
            return self._emit(phi, ("or", self._bit(phi.lhs), self._bit(phi.rhs)))
        if isinstance(phi, jsl.Atom):
            return self._emit(phi, self._test_ins(phi.test))
        if isinstance(phi, (jsl.BoxKey, jsl.DiaKey)):
            body = self._bit(phi.body)
            op = "boxkey" if isinstance(phi, jsl.BoxKey) else "diakey"
            return self._emit(phi, (op, phi.pattern, body))
        if isinstance(phi, (jsl.BoxIdx, jsl.DiaIdx)):
            body = self._bit(phi.body)
            op = "boxidx" if isinstance(phi, jsl.BoxIdx) else "diaidx"
            return self._emit(phi, (op, phi.lo, phi.hi, body))
        if isinstance(phi, jsl.SymbolRef):
            return self._emit(phi, ("copy", None))  # patched after the body
        raise TypeError(f"not a formula: {phi!r}")

    def _test_ins(self, test: jsl.NodeTest):
        if isinstance(test, jsl.KindTest):
            return ("kind", test.kind.value)
        if isinstance(test, jsl.PatternTest):
            return ("patt", test.pattern)
        if isinstance(test, jsl.MinTest):
            return ("min", test.bound)
        if isinstance(test, jsl.MaxTest):
            return ("max", test.bound)
        if isinstance(test, jsl.MultOfTest):
            return ("mult", test.divisor)
        if isinstance(test, jsl.MinChTest):
            self.has_counts = True
            return ("minch", test.count)
        if isinstance(test, jsl.MaxChTest):
            self.has_counts = True
            return ("maxch", test.count)
        if isinstance(test, jsl.UniqueTest):
            self.has_unique = True
            return ("uniq",)
        if isinstance(test, jsl.SameAsTest):
            return ("eqid", self._register_const(test.const))
        raise TypeError(f"not a node test: {test!r}")

    # evaluation

    def _filter(self, pattern):
        accept = self._filters.get(pattern)
        if accept is None:
            accept = self._filters[pattern] = rx.word_filter(pattern)
        return accept

    def compile_steps(self) -> list:
        """One closure ``step(cand, bits)`` per instruction, giving the
        instruction's truth on the candidate (0/1 or a bool).  ``bits`` holds
        the candidate's same-node bits computed so far; children are read
        through their finished masks."""
        return [self._compile_step(ins) for ins in self.instrs]

    def _compile_step(self, ins):
        op = ins[0]
        if op == "true":
            return lambda cand, bits: 1
        if op == "not":
            m = 1 << ins[1]
            return lambda cand, bits: not bits & m
        if op == "copy":
            m = 1 << ins[1]
            return lambda cand, bits: bits & m != 0
        if op == "and":
            m = (1 << ins[1]) | (1 << ins[2])
            return lambda cand, bits: bits & m == m
        if op == "or":
            m = (1 << ins[1]) | (1 << ins[2])
            return lambda cand, bits: bits & m != 0
        if op in ("diakey", "boxkey"):
            accept, body = self._filter(ins[1]), 1 << ins[2]
            if op == "diakey":
                def step(cand, bits):
                    if cand.kind != "obj":
                        return 0
                    for k, r in cand.children:
                        if r.mask & body and accept(k):
                            return 1
                    return 0
            else:
                def step(cand, bits):
                    if cand.kind != "obj":
                        return 1
                    for k, r in cand.children:
                        if not r.mask & body and accept(k):
                            return 0
                    return 1
            return step
        if op in ("diaidx", "boxidx"):
            lo, hi, body = ins[1] - 1, ins[2], 1 << ins[3]
            if op == "diaidx":
                def step(cand, bits):
                    if cand.kind != "arr":
                        return 0
                    for _, r in cand.children[lo:hi]:
                        if r.mask & body:
                            return 1
                    return 0
            else:
                def step(cand, bits):
                    if cand.kind != "arr":
                        return 1
                    for _, r in cand.children[lo:hi]:
                        if not r.mask & body:
                            return 0
                    return 1
            return step
        if op == "kind":
            kind = ins[1]
            return lambda cand, bits: cand.kind == kind
        if op == "patt":
            accept = self._filter(ins[1])
            return lambda cand, bits: cand.kind == "str" and accept(cand.value)
        if op == "min":
            bound = ins[1]
            return lambda cand, bits: cand.kind == "int" and cand.value >= bound
        if op == "max":
            bound = ins[1]
            return lambda cand, bits: cand.kind == "int" and cand.value <= bound
        if op == "mult":
            d = ins[1]
            if d == 0:
                return lambda cand, bits: cand.kind == "int" and cand.value == 0
            return lambda cand, bits: cand.kind == "int" and cand.value % d == 0
        if op == "minch":
            count = ins[1]
            return lambda cand, bits: len(cand.children) >= count
        if op == "maxch":
            count = ins[1]
            return lambda cand, bits: len(cand.children) <= count
        if op == "uniq":
            return lambda cand, bits: cand.kind == "arr" and \
                len({r.cid for _, r in cand.children}) == len(cand.children)
        if op == "eqid":
            cid = ins[1]
            return lambda cand, bits: cand.cid == cid
        raise AssertionError(op)

    def allow_key_pruning(self) -> bool:
        return not (self.has_counts or self.has_unique or self.has_equality)

    def _same_node_closure(self, bits) -> set:
        out = set()
        work = list(bits)
        while work:
            b = work.pop()
            if b in out:
                continue
            out.add(b)
            ins = self.instrs[b]
            op = ins[0]
            if op in ("not", "copy"):
                work.append(ins[1])
            elif op in ("and", "or"):
                work.extend((ins[1], ins[2]))
        return out

    def depth_profiles(self, max_depth: int):
        """Per depth p from the root: (mask of the bits a parent reads off
        a node at p, formulas evaluated at p, key regexes active at p).

        The read mask is what makes two subtrees interchangeable at that
        depth; equality bits always stay observable once constants occur.
        """
        eq_bits = set(self.eq_bits.values())
        read = {self.phi_bit}
        out = []
        for _ in range(max_depth + 1):
            closure = self._same_node_closure(read)
            mask = 0
            for b in read:
                mask |= 1 << b
            regs = [self.instrs[b][1] for b in closure
                    if self.instrs[b][0] in ("boxkey", "diakey")]
            out.append((mask, closure, regs))
            nxt = set()
            for b in closure:
                ins = self.instrs[b]
                if ins[0] in ("boxkey", "diakey"):
                    nxt.add(ins[2])
                elif ins[0] in ("boxidx", "diaidx"):
                    nxt.add(ins[3])
            if self.has_equality:
                nxt |= eq_bits
            read = nxt
        return out

    def visible_keys(self, regs, keys):
        if not self.allow_key_pruning():
            return tuple(keys)
        filters = [self._filter(r) for r in regs]
        return tuple(k for k in keys if any(accept(k) for accept in filters))


# -- atom inventory ----------------------------------------------------------------


@dataclass(frozen=True)
class Inventory:
    keys: tuple
    strings: tuple
    ints: tuple


def _fresh(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _const_atoms(const: JsonTree, keys, strings, ints):
    for n in const.nodes():
        kind = const.kind(n)
        if kind is NodeKind.OBJ:
            keys.update(const.keys_of(n))
        elif kind is NodeKind.STR:
            strings.add(const.value(n))
        elif kind is NodeKind.INT:
            ints.add(const.value(n))


def _is_universal(pattern) -> bool:
    return rx.is_empty(rx.complement_intersection([pattern]))


def _pattern_words(pattern, extras, max_atoms):
    """Words witnessing the pattern; universal patterns need none (any
    fresh atom matches them already)."""
    word = rx.literal_word(pattern)
    if word is not None:
        return [word]
    if _is_universal(pattern):
        return []
    extras.update(rx.enumerate_words(pattern, max_atoms, max_atoms))
    return []


def _collect_jsl(formulas, max_atoms, max_width) -> Inventory:
    keys, strings, ints = set(), set(), set()
    key_extras, str_extras = set(), set()
    min_keys = 1
    for phi in formulas:
        for f in jsl.subformulas(phi):
            if isinstance(f, (jsl.BoxKey, jsl.DiaKey)):
                keys.update(_pattern_words(f.pattern, key_extras, max_atoms))
            elif isinstance(f, jsl.Atom):
                t = f.test
                if isinstance(t, jsl.PatternTest):
                    strings.update(_pattern_words(t.pattern, str_extras, max_atoms))
                elif isinstance(t, (jsl.MinTest, jsl.MaxTest)):
                    ints.add(t.bound)
                elif isinstance(t, jsl.MultOfTest):
                    ints.add(t.divisor)
                elif isinstance(t, jsl.SameAsTest):
                    _const_atoms(t.const, keys, strings, ints)
                elif isinstance(t, (jsl.MinChTest, jsl.MaxChTest)):
                    # child counts can ask for more keys than the formula names
                    min_keys = max(min_keys, min(max_width, max_atoms))
    return _finalize_inventory(keys, key_extras, strings, str_extras, ints, max_atoms,
                               min_keys)


def _collect_jnl(phi, max_atoms) -> Inventory:
    keys, strings, ints = set(), set(), set()
    key_extras = set()
    for f in jnl._walk(phi):
        if isinstance(f, jnl.KeyAxis):
            keys.add(f.key)
        elif isinstance(f, jnl.KeyRegexAxis):
            keys.update(_pattern_words(f.pattern, key_extras, max_atoms))
        elif isinstance(f, jnl.EqConst):
            _const_atoms(f.const, keys, strings, ints)
    return _finalize_inventory(keys, key_extras, strings, set(), ints, max_atoms)


def _finalize_inventory(keys, key_extras, strings, str_extras, ints, max_atoms,
                        min_keys=1) -> Inventory:
    """Formula atoms first, then pattern-enumerated words, then one fresh
    (fresh keys up to ``min_keys`` keys in all)."""
    fresh_str = _fresh("s", strings | str_extras)
    key_list = (sorted(keys) + sorted(key_extras - keys))[:max_atoms - 1]
    taken = keys | key_extras
    for _ in range(max(1, min_keys - len(key_list))):
        key_list.append(_fresh("k", taken))
        taken.add(key_list[-1])
    str_list = (sorted(strings) + sorted(str_extras - strings))[:max_atoms - 1] + [fresh_str]
    int_set = {0}
    for c in ints:
        int_set.update(v for v in (c - 1, c, c + 1) if v >= 0)
    int_list = sorted(int_set)[:max_atoms]
    return Inventory(tuple(key_list), tuple(str_list), tuple(int_list))


# -- the search --------------------------------------------------------------------


def sat_bounded(formula, bounds: Bounds, budget: int = DEFAULT_BUDGET) -> SatVerdict:
    """Search for a document satisfying the formula within the bounds.

    Accepts a unary navigational formula, a schema-logic formula, or a
    well-formed recursive expression.  Witnesses are minimal by node
    count (objects before arrays before leaves on ties) and re-validated
    before being returned; exceeding ``budget`` candidates raises
    BoundsTooLarge.
    """
    table = {}  # one subtree intern table for the constants and every candidate
    if isinstance(formula, rec.RecursiveJslExpr):
        if not rec.is_well_formed(formula):
            raise IllFormedRecursion(f"cyclic definitions: {rec.find_cycle(formula)}")
        program = _Program(table).compile_recursive(formula)
        inventory = _collect_jsl([body for _, body in formula.definitions] + [formula.base],
                                 bounds.max_atoms, bounds.max_width)
        revalidate = lambda tree: rec.eval_recursive(formula, tree)
        return _class_search(program, inventory, bounds, budget, revalidate)
    if isinstance(formula, jsl.JslFormula):
        program = _Program(table).compile_formula(formula)
        inventory = _collect_jsl([formula], bounds.max_atoms, bounds.max_width)
        revalidate = lambda tree: jsl.validate(tree, formula)
        return _class_search(program, inventory, bounds, budget, revalidate)
    if isinstance(formula, jnl.JnlUnary):
        if jnl.uses_eqpaths(formula) or jnl.uses_star(formula):
            return _exhaustive_search(formula, bounds, budget, table)
        translated = translate.jnl_to_jsl(formula)
        program = _Program(table).compile_formula(translated)
        inventory = _collect_jsl([translated], bounds.max_atoms, bounds.max_width)
        revalidate = lambda tree: jnl.eval_membership(tree, formula, ())
        return _class_search(program, inventory, bounds, budget, revalidate)
    raise TypeError(f"not a supported formula: {formula!r}")


def _full_tree_size(depth, width) -> int:
    if width == 0:
        return 1
    if width == 1:
        return depth + 1
    return (width ** (depth + 1) - 1) // (width - 1)


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.spent = 0

    def charge(self):
        self.spent += 1
        if self.spent > self.limit:
            raise BoundsTooLarge(
                f"search exceeded the candidate budget ({self.limit})")


class _Level:
    """Stored representatives for one distance from the root."""

    def __init__(self):
        self.by_size = {}
        self.classes = {}
        self.max_size = 0

    def store(self, cand, key, multiplicity) -> bool:
        stored = self.classes.get(key)
        if stored is None:
            self.classes[key] = [cand.cid]
        elif len(stored) < multiplicity and cand.cid not in stored:
            stored.append(cand.cid)
        else:
            return False
        self.by_size.setdefault(cand.size, []).append(cand)
        if cand.size > self.max_size:
            self.max_size = cand.size
        return True


def _leaf_batch(inventory, budget, table) -> list:
    out = [_leaf("obj", None, table), _leaf("arr", None, table)]
    out.extend(_leaf("str", s, table) for s in inventory.strings)
    out.extend(_leaf("int", v, table) for v in inventory.ints)
    for _ in out:
        budget.charge()
    return sorted(out, key=_Cand.order_key)


def _parent_batch(n, child_level, obj_keys, arrays, width, budget, table, key_text) -> list:
    """All candidates with exactly n nodes over the stored child reps."""
    out = []
    sizes = sorted(child_level.by_size)

    def assignments(slots, total):
        def go(remaining_slots, remaining_total, acc):
            if remaining_slots == 0:
                if remaining_total == 0:
                    yield tuple(acc)
                return
            for size in sizes:
                if size > remaining_total - (remaining_slots - 1):
                    break
                for rep in child_level.by_size[size]:
                    acc.append(rep)
                    yield from go(remaining_slots - 1, remaining_total - size, acc)
                    acc.pop()
        yield from go(slots, total, [])

    for k in range(1, min(width, n - 1) + 1):
        keysets = list(combinations(obj_keys, k)) if k <= len(obj_keys) else []
        if not keysets and not arrays:
            continue
        for reps in assignments(k, n - 1):
            if arrays:
                budget.charge()
                out.append(_make_arr(reps, table))
            for keyset in keysets:
                budget.charge()
                out.append(_make_obj(keyset, reps, table, key_text))
    return sorted(out, key=_Cand.order_key)


def _staged_search(inventory, bounds, budget_limit, evaluate, is_witness, class_key,
                   multiplicity, keys_at, table) -> Optional[JsonTree]:
    """Bottom-up over distances from the root: the level at distance p is
    populated from the one at p+1, keeping one representative per
    interchangeability class (more under array uniqueness).  Returns a
    witness tree or None after exhausting the bounded space.

    ``evaluate`` fills a candidate's bit mask; ``is_witness`` is only
    consulted at distance 0; ``class_key(cand, p)`` defines the collapse.
    """
    budget = _Budget(budget_limit)
    depth, width = bounds.max_depth, bounds.max_width
    key_text = _key_texts(inventory.keys)
    below = None
    for p in range(depth, -1, -1):
        level = _Level()
        for cand in _leaf_batch(inventory, budget, table):
            evaluate(cand, p)
            if p == 0 and is_witness(cand):
                return cand
            level.store(cand, class_key(cand, p), multiplicity)
        if below is not None and width > 0 and below.by_size:
            obj_keys, arrays = keys_at(p)
            ceiling = _full_tree_size(depth - p, width)
            n = 2
            while n <= ceiling and n <= 1 + width * below.max_size:
                for cand in _parent_batch(n, below, obj_keys, arrays, width, budget, table,
                                          key_text):
                    evaluate(cand, p)
                    if p == 0 and is_witness(cand):
                        return cand
                    level.store(cand, class_key(cand, p), multiplicity)
                n += 1
        below = level
    return None


def _class_search(program, inventory, bounds, budget, revalidate) -> SatVerdict:
    profiles = program.depth_profiles(bounds.max_depth)
    phi_bit = program.phi_bit
    multiplicity = max(1, bounds.max_width) if program.has_unique else 1
    prune = program.allow_key_pruning()
    steps = program.compile_steps()
    order = program._eval_sequence()
    keys_by_depth, plans = [], []
    for mask, closure, regs in profiles:
        obj_keys = program.visible_keys(regs, inventory.keys)
        arrays = (not prune) or any(program.instrs[b][0] in ("boxidx", "diaidx")
                                    for b in closure)
        keys_by_depth.append((obj_keys, arrays))
        # a node at distance p only needs the bits its parent, its class key
        # and (at the root) the witness test read, plus their same-node closure
        plans.append(tuple((1 << i, steps[i]) for i in order if i in closure))

    def evaluate(cand, p):
        bits = 0
        for bit, step in plans[p]:
            if step(cand, bits):
                bits |= bit
        cand.mask = bits

    def is_witness(cand):
        return (cand.mask >> phi_bit) & 1

    def class_key(cand, p):
        return cand.mask & profiles[p][0]

    found = _staged_search(inventory, bounds, budget, evaluate, is_witness,
                           class_key, multiplicity, lambda p: keys_by_depth[p], program.table)
    if found is None:
        return SatVerdict(False, None, bounds)
    tree = jt.from_python(found.py)
    if not revalidate(tree):
        raise RuntimeError(f"search/evaluator disagreement on {found.serial}")
    return SatVerdict(True, tree, bounds)


def _exhaustive_search(formula, bounds, budget, table) -> SatVerdict:
    """Every distinct tree, no collapsing; for the untranslatable fragment."""
    inventory = _collect_jnl(formula, bounds.max_atoms)

    def evaluate(cand, p):
        pass

    def is_witness(cand):
        tree = jt.from_python(cand.py)
        return jnl.eval_membership(tree, formula, ())

    def class_key(cand, p):
        return cand.cid

    found = _staged_search(inventory, bounds, budget, evaluate, is_witness,
                           class_key, 1, lambda p: (inventory.keys, True), table)
    if found is None:
        return SatVerdict(False, None, bounds)
    return SatVerdict(True, jt.from_python(found.py), bounds)
