"""Bounded-model satisfiability search.

Candidate trees are assembled from an atom inventory read off the
formula (its keys and strings plus one fresh one of each, and fresh keys
up to the width bound when the formula counts children; its integer
constants, their neighbours and zero) within explicit depth and width
bounds.  A found witness is certain: it is re-checked by the ordinary
evaluator before being returned.  A negative answer only says no tree
within the explored bounds satisfies the formula, and the verdict
reports those bounds verbatim.

Formulas are interned, so the search compiles the formula itself: each
distinct subformula node owns one bit of a candidate's mask.  Its plain
node tests are ``jsl.compile_test``'s, run once per search over one
batch tree of the one-node candidates and the (kind, child count) shapes.

Desk-scale exhaustiveness comes from collapsing interchangeable
subtrees, staged by distance from the root: a parent at distance p reads
a child only through the truth of the formula bits a modality actually
consults at distance p+1 and through equality against the formula's
constants, so the search keeps one minimal representative per such class
and per level (several when array uniqueness makes distinct equal-class
siblings matter).  Levels fill bottom-up in increasing node count, which
keeps returned witnesses node-count minimal.  The root skips the sizes
below a bound read off the formula (``_least_size``), which no model can
have, though ``budget`` still counts their candidates.  A schema-logic
formula searches as the recursive expression without definitions, a
navigational one as its recursive translation (``translate._jnl_to_recursive``,
a closure becoming a definition); the inventory is read off the definitions
and the base, so a closure formula's is its translation's.  Only two-path
equality ``eq(alpha, beta)`` falls back to enumerating every distinct tree,
over the navigational formula's own inventory, where only the candidate
budget keeps things finite.

Candidates are judged in batches, one per size composition of their
children (every tuple of stored children of those sizes, for arrays and
for every key set), by their bit masks alone: modal bits are ORs of
entry lists per (key or position, child size) taken over the product of
the children, node tests are one bit set per (kind, child count), and
each distinct mask is decided once.  Only a kept candidate becomes an
object, and only stored representatives and root witnesses get an
identity (canonical text and subtree class id, and python values for the
returned witness).
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import combinations, product
from typing import Optional

from .. import jnl
from .. import jsl
from .. import recursive as rec
from .. import regex as rx
from .. import translate
from .. import tree as jt
from .._node import Node, each, walk
from ..errors import BadBounds, BoundsTooLarge, FragmentViolation, IllFormedRecursion
from ..tree import JsonTree, NodeKind

DEFAULT_BUDGET = 200_000

_KIND_RANK = {"obj": 0, "arr": 1, "str": 2, "int": 3}


class Bounds(Node):
    __slots__ = ("max_depth", "max_width", "max_atoms")

    def __post_init__(self):
        for name, least in (("max_depth", 0), ("max_width", 0), ("max_atoms", 1)):
            if getattr(self, name) < least:
                raise BadBounds(f"bad search bound {name} = {getattr(self, name)}: "
                                f"it must be at least {least}")

    def __str__(self):
        return f"({self.max_depth},{self.max_width},{self.max_atoms})"


class SatVerdict(Node):
    __slots__ = ("satisfiable", "witness", "bounds")

    def describe(self) -> str:
        if self.satisfiable:
            return f"SAT {jt.serialize(self.witness)}"
        return f"UNSAT up to {self.bounds}"


# -- candidates -------------------------------------------------------------------


class _Cand:
    """A kept candidate tree: its shape and the truth mask of the compiled
    formula bits (at the root, where only the formula's bit is read, its
    base mask).  Its canonical text is filled in once it is kept, its
    subtree class id once it is stored."""

    __slots__ = ("kind", "value", "children", "size", "mask", "serial", "cid")

    def __init__(self, kind, value, children, size, serial=None, mask=0, cid=None):
        self.kind = kind
        self.value = value
        self.children = children  # ((key or 0-based position, _Cand), ...)
        self.size = size
        self.serial = serial
        self.mask = mask
        self.cid = cid

    def order_key(self):
        return (_KIND_RANK[self.kind], self.serial)


def _serial(cand, key_text) -> str:
    """Canonical text of a composite; its children are stored representatives,
    whose texts are known."""
    if cand.kind == "obj":
        return "{" + ",".join(key_text[k] + r.serial for k, r in cand.children) + "}"
    return "[" + ",".join(r.serial for _, r in cand.children) + "]"


def _class_id(table, kind, value, children) -> int:
    """Subtree class id of a node, interned on first use; its children,
    being stored representatives, already have theirs."""
    if kind == "obj":
        ordered = sorted((k, r.cid) for k, r in children)
        return jt.intern_class(table, keys=tuple(k for k, _ in ordered),
                               child_ids=tuple(c for _, c in ordered))
    if kind == "arr":
        return jt.intern_class(table, child_ids=tuple(r.cid for _, r in children))
    return jt.intern_class(table, value)


# -- the compiled formula program ----------------------------------------------------

_CONNECTIVES = (jsl.Top, jsl.Not, jsl.And, jsl.Or, jsl.SymbolRef)
_KEY_MODALS, _IDX_MODALS = (jsl.BoxKey, jsl.DiaKey), (jsl.BoxIdx, jsl.DiaIdx)
_MODALS = _KEY_MODALS + _IDX_MODALS


def _connective_step(phi, deps):
    """Closure ``step(bits)`` giving a connective's truth from the same-node
    bits ``deps`` computed before it."""
    if isinstance(phi, jsl.Top):
        return lambda bits: True
    m = 1 << deps[0]
    if isinstance(phi, jsl.Not):
        return lambda bits: not bits & m
    if isinstance(phi, jsl.SymbolRef):  # a placeholder copies its definition's bit
        return lambda bits: bits & m != 0
    m |= 1 << deps[1]
    if isinstance(phi, jsl.And):
        return lambda bits: bits & m == m
    return lambda bits: bits & m != 0


class _Program:
    """The interned formula as bits over candidates.

    Each distinct subformula node owns one bit: ``instrs[b]`` is the node,
    and ``bit_of`` finds the bit again in O(1), equal subformulas being one
    object.  A ``same(c)`` atom has the bit of its constant's class id; each
    subtree of a constant owns one (``instrs[b]`` is then the class id).
    ``deps[b]`` holds the bits a connective, or a definition's placeholder,
    reads at the same node; a modality reads its body's bit off the
    children.  A candidate's bits follow from its shape and its children's
    final masks, so interchangeability classes are read straight off the
    mask.  The plain node tests are jsl's compiled tests (``compile_atoms``);
    ``_LevelTables`` turns the rest into tables and closures once per search.
    """

    def __init__(self, table):
        self.table = table  # subtree intern table shared with the candidates
        self.instrs = []  # bit -> subformula, or class id of a constant's subtree
        self.deps = []  # bit -> the same-node bits it reads
        self.bit_of = {}  # subformula (or SymbolRef placeholder) -> bit
        self.eq_bits = {}  # class id of a constant's subtree -> its bit
        self.phi_bit = None
        self.has_counts = self.has_unique = self.has_equality = False
        self.shape_bits = self.key_filters = None  # see compile_atoms
        self._eval_order = None

    # compilation

    def compile_recursive(self, expr: rec.RecursiveJslExpr):
        # a shielded self- or forward-reference gets a placeholder bit whose
        # dependency is patched once the body's bit is known; evaluation
        # order then follows same-node dependencies rather than bit numbers
        bodies = dict(expr.definitions)
        for name in rec._topo_order(expr):
            bit = self._bit(bodies[name])
            ref = jsl.SymbolRef(name)
            placeholder = self.bit_of.get(ref)
            if placeholder is not None:
                self.deps[placeholder] = (bit,)
            else:
                self.bit_of[ref] = bit
        self.phi_bit = self._bit(expr.base)
        return self

    def _eval_sequence(self):
        if self._eval_order is None:
            order, cycle = rec.dependency_order(dict(enumerate(self.deps)))
            if cycle:
                raise IllFormedRecursion("cyclic same-node bit dependencies")
            self._eval_order = order
        return self._eval_order

    def _emit(self, instr, deps) -> int:
        self.instrs.append(instr)
        self.deps.append(deps)
        return len(self.instrs) - 1

    def _register_const(self, const: JsonTree) -> int:
        """Equality bits for every subtree of the constant; its root's bit."""
        self.has_equality = True
        ids = jt.label_subtrees(const, self.table)
        for cid in ids:
            if cid not in self.eq_bits:
                self.eq_bits[cid] = self._emit(cid, ())
        return self.eq_bits[ids[0]]

    def _bit(self, phi: jsl.JslFormula) -> int:
        """The subformula's bit.  Its subformulas are numbered in
        ``jsl.subformulas``' post-order, each after its parts, so deep
        formulas need no recursion; an unknown SymbolRef gets a
        placeholder."""
        bit_of = self.bit_of
        for f in jsl.subformulas(phi):
            if f in bit_of:
                continue
            deps = ()
            if isinstance(f, (jsl.And, jsl.Or)):
                deps = bit_of[f.lhs], bit_of[f.rhs]
            elif isinstance(f, jsl.Not):
                deps = (bit_of[f.body],)
            elif isinstance(f, jsl.Atom):
                test = f.test
                if isinstance(test, jsl.SameAsTest):
                    bit_of[f] = self._register_const(test.const)
                    continue
                self.has_counts |= isinstance(test, (jsl.MinChTest, jsl.MaxChTest))
                self.has_unique |= isinstance(test, jsl.UniqueTest)
            elif not isinstance(f, jsl.JslFormula):
                raise TypeError(f"not a formula: {f!r}")
            bit_of[f] = self._emit(f, deps)
        return bit_of[phi]

    def compile_atoms(self, inventory, width) -> list:
        """Compile the plain node tests once, over one batch tree of the
        one-node candidates and one (object | array, child count 1..width)
        shape each, and give each key pattern one word filter
        (``key_filters``).  Returns ``(kind, value, text, test bits, class
        id)`` per one-node candidate; ``shape_bits(shape)`` runs the tests on
        a shape when a level first asks for it."""
        strings, ints = inventory.strings, inventory.ints
        leaves = [("obj", None, "{}"), ("arr", None, "[]")]
        leaves += [("str", s, json.dumps(s, ensure_ascii=False)) for s in strings]
        leaves += [("int", v, str(v)) for v in ints]
        shapes = [(kind, k) for k in range(1, width + 1) for kind in ("obj", "arr")]
        obj_arr = [NodeKind.OBJ, NodeKind.ARR]
        kinds = obj_arr + [NodeKind.STR] * len(strings) + [NodeKind.INT] * len(ints) + obj_arr * width
        # the plain tests read kinds, values and child counts only: the
        # shapes' child ids are placeholders and no node has keys
        batch = JsonTree(kinds, [None, None, *strings, *ints] + [None] * len(shapes),
                         [()] * len(leaves) + [(0,) * k for _, k in shapes], [None] * len(kinds))
        tests = [(1 << b, jsl.compile_test(batch, f.test)) for b, f in enumerate(self.instrs)
                 if isinstance(f, jsl.Atom) and not isinstance(f.test, jsl.UniqueTest)]
        bits = [0] * len(leaves)
        for bit, test in tests:
            for n in filter(test, range(len(leaves))):
                bits[n] |= bit
        ids = dict(zip(shapes, range(len(leaves), len(kinds))))
        self.shape_bits = lambda shape: sum(bit for bit, test in tests if test(ids[shape]))
        patterns = dict.fromkeys(f.pattern for f in self.instrs if isinstance(f, _KEY_MODALS))
        self.key_filters = {pattern: rx.word_filter(pattern) for pattern in patterns}
        return [(kind, value, text, bits[n], _class_id(self.table, kind, value, ()))
                for n, (kind, value, text) in enumerate(leaves)]

    # evaluation

    def allow_key_pruning(self) -> bool:
        return not (self.has_counts or self.has_unique or self.has_equality)

    def _same_node_closure(self, bits) -> set:
        """The bits ``bits`` read at the same node."""
        out = set()
        work = list(bits)
        while work:
            b = work.pop()
            if b in out:
                continue
            out.add(b)
            work.extend(self.deps[b])
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
            mask, regs, nxt = 0, [], set()
            for b in read:
                mask |= 1 << b
            for f in map(self.instrs.__getitem__, closure):
                if isinstance(f, _MODALS):
                    nxt.add(self.bit_of[f.body])
                    if isinstance(f, _KEY_MODALS):
                        regs.append(f.pattern)
            out.append((mask, closure, regs))
            read = nxt | eq_bits if self.has_equality else nxt
        return out

    def visible_keys(self, regs, keys):
        filters = [self.key_filters[r] for r in regs]
        return tuple(k for k in keys if any(accept(k) for accept in filters))


# -- atom inventory ----------------------------------------------------------------


class Inventory(Node):
    __slots__ = ("keys", "strings", "ints")


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


def _pattern_words(pattern, extras, max_atoms):
    """Words witnessing the pattern; universal patterns need none (any
    fresh atom matches them already)."""
    word = rx.literal_word(pattern)
    if word is not None:
        return [word]
    if rx.is_empty(rx.compl(pattern)):  # universal
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
    well-formed recursive expression; all but two-path equality search as a
    recursive expression (see the module docstring).  Witnesses are minimal
    by node count (objects before arrays before leaves on ties) and
    re-validated before being returned; exceeding ``budget`` candidates
    raises BoundsTooLarge.
    """
    table = {}  # one subtree intern table for the constants and every candidate
    if isinstance(formula, jnl.JnlUnary):
        try:
            expr = translate._jnl_to_recursive(formula, None)
        except FragmentViolation:  # eq(alpha, beta): enumerate every tree
            program = _Program(table).compile_recursive(rec.RecursiveJslExpr((), jsl.TOP))
            revalidate = lambda tree: jnl.eval_membership(tree, formula, ())
            return _class_search(program, _collect_jnl(formula, bounds.max_atoms), bounds,
                                 budget, revalidate, exhaustive=True)
    elif isinstance(formula, jsl.JslFormula):
        expr = rec.RecursiveJslExpr((), formula)
    elif isinstance(formula, rec.RecursiveJslExpr):
        expr = formula
    else:
        raise TypeError(f"not a supported formula: {formula!r}")
    program = _Program(table).compile_recursive(expr)
    inventory = _collect_jsl([body for _, body in expr.definitions] + [expr.base],
                             bounds.max_atoms, bounds.max_width)
    return _class_search(program, inventory, bounds, budget,
                         lambda tree: rec.eval_recursive(expr, tree))


def _least_size(phi) -> int:
    """A lower bound on the node count of every document satisfying the
    compiled root ``phi`` (1 for a constant's class id, a bare ``same(c)``).

    Each walk result also maps the literal keys a model must have to the
    least size of the child under each; children under distinct keys are
    distinct nodes.  A chain of one connective is folded in one step."""
    def visit(f):
        if isinstance(f, (jsl.And, jsl.Or)):
            parts = yield from each(jsl.operands(f))
            if isinstance(f, jsl.Or):
                common = set.intersection(*(set(keys) for _, keys in parts))
                return (min(least for least, _ in parts),
                        {k: min(keys[k] for _, keys in parts) for k in common})
            need = {}
            for _, keys in parts:
                for k, least in keys.items():
                    need[k] = max(least, need.get(k, 0))
            return max(1 + sum(need.values()), *(least for least, _ in parts)), need
        if isinstance(f, jsl.DiaKey):  # some child, under the key if it is literal
            least, word = (yield f.body)[0], rx.literal_word(f.pattern)
            return 1 + least, {} if word is None else {word: least}
        if isinstance(f, jsl.DiaIdx):  # an array of at least lo children
            return f.lo + (yield f.body)[0], {}
        if isinstance(f, jsl.Atom) and isinstance(f.test, jsl.MinChTest):
            return 1 + f.test.count, {}
        if isinstance(f, jsl.Atom) and isinstance(f.test, jsl.SameAsTest):
            return f.test.const.size, {}
        return 1, {}
    return walk(visit, phi)[0] if isinstance(phi, jsl.JslFormula) else 1


def _full_tree_size(depth, width) -> int:
    if width == 0:
        return 1
    if width == 1:
        return depth + 1
    return (width ** (depth + 1) - 1) // (width - 1)


class _Budget:
    def __init__(self, limit):
        if limit < 0:
            raise BadBounds(f"bad search budget {limit}: it must be at least 0")
        self.limit = limit
        self.spent = 0

    def charge(self, count):
        self.spent += count
        if self.spent > self.limit:
            raise BoundsTooLarge(
                f"search exceeded the candidate budget ({self.limit})")


def _interval(lo, hi):
    """Whether a 0-based position lies in the 1-based interval lo..hi."""
    return lambda pos: lo <= pos + 1 and (hi is None or pos < hi)


class _Memo(dict):
    """A dict filling a missing value from ``compute``; hits stay in C."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _LevelTables:
    """How a candidate at one distance from the root gets its bit mask.

    Its *base* mask holds its node tests and its modal bits, ``box_bits ^
    (OR of its children's entries)``; an entry is the dia bits one child
    sets under its label plus the box bits it violates.  Only ``unique``
    and ``same(c)`` read the children's class ids.  The connectives depend
    on the base alone: ``full`` memoizes the full mask per base below the
    root, and ``hits`` the formula's bit in it at the root.  Each memo is
    built on first use.
    """

    def __init__(self, program, read, closure, obj_keys, arrays, root):
        self.read = read  # the class key: the bits a parent reads
        self.obj_keys, self.arrays = obj_keys, arrays
        self.program, self.root = program, root
        self.table = program.table
        self.box_bits = self.uniq_bit = self.test_mask = 0
        self.eq_of = {}  # class id of a constant's subtree -> its equality bit
        self.modals = {"obj": [], "arr": []}  # per kind: the modalities over its labels
        self.steps = []
        for b in program._eval_sequence():
            if b not in closure:
                continue
            phi, bit = program.instrs[b], 1 << b
            if isinstance(phi, _KEY_MODALS):
                self.modals["obj"].append((bit, isinstance(phi, jsl.BoxKey),
                                           program.key_filters[phi.pattern],
                                           1 << program.bit_of[phi.body]))
            elif isinstance(phi, _IDX_MODALS):
                self.modals["arr"].append((bit, isinstance(phi, jsl.BoxIdx),
                                           _interval(phi.lo, phi.hi), 1 << program.bit_of[phi.body]))
            elif isinstance(phi, _CONNECTIVES):
                self.steps.append((bit, _connective_step(phi, program.deps[b])))
            elif isinstance(phi, int):  # a constant subtree's class id
                self.eq_of[phi] = bit
            elif isinstance(phi.test, jsl.UniqueTest):
                self.uniq_bit = bit
            else:
                self.test_mask |= bit
            if isinstance(phi, (jsl.BoxKey, jsl.BoxIdx)):
                self.box_bits |= bit
        # a shape's box bits and plain node tests
        self.shapes = _Memo(lambda shape: self.box_bits | program.shape_bits(shape) & self.test_mask)
        self.entries = {}  # (label, child size) -> entry per stored child of that size

    @cached_property
    def full(self) -> _Memo:
        """Below the root: base mask -> full mask."""
        return _Memo(lambda base: _run(self.steps, base))

    @cached_property
    def hits(self) -> _Memo:
        """At the root: base mask -> itself if it satisfies the formula, else None."""
        phi = 1 << self.program.phi_bit
        return _Memo(lambda base: base if _run(self.steps, base) & phi else None)

    def identity_bits(self, kind, value, children) -> int:
        """The ``unique`` and ``same(c)`` bits, read off the children's ids."""
        bits = 0
        if self.uniq_bit and kind == "arr" and \
                len({r.cid for _, r in children}) == len(children):
            bits = self.uniq_bit
        if self.eq_of:
            bits |= self.eq_of.get(_class_id(self.table, kind, value, children), 0)
        return bits

    def bases(self, kind, labels, sizes, groups) -> list:
        """The base mask of every candidate of this kind whose children, under
        ``labels``, are drawn from ``groups`` (the stored children of the
        given sizes), in the order of ``product(*groups)``."""
        lists = []
        for label, size, group in zip(labels, sizes, groups):
            listed = self.entries.get((label, size))
            if listed is None:  # dia bits set plus box bits violated; one bit per modality
                listed = self.entries[label, size] = [
                    sum(bit for bit, box, match, body in self.modals[kind]
                        if match(label) and (not r.mask & body) == box) for r in group]
            lists.append(listed)
        accs = lists[0]
        for listed in lists[1:]:
            accs = [a | e for a in accs for e in listed]
        bases = list(map(self.shapes[kind, len(labels)].__xor__, accs))
        if self.uniq_bit or self.eq_of:
            bases = [base | self.identity_bits(kind, None, tuple(zip(labels, reps)))
                     for base, reps in zip(bases, product(*groups))]
        return bases

    def verdicts(self, level) -> _Memo:
        """Per base mask, a kept candidate's mask or None.  At the root one
        is kept when it satisfies the formula (its mask is then its base);
        below it, while its class in ``level`` is not full as it stood
        before the batch, so each batch needs its own."""
        if self.root:
            return self.hits
        full, read = self.full, self.read

        def kept(base):
            mask = full[base]
            return None if level.is_full(mask & read) else mask
        return _Memo(kept)


def _run(steps, base) -> int:
    """The base mask with the given connectives' bits added, in order."""
    for bit, step in steps:
        if step(base):
            base |= bit
    return base


class _Level:
    """Stored representatives for one distance from the root: per class,
    up to ``multiplicity`` distinct subtrees."""

    def __init__(self, multiplicity, table):
        self.multiplicity = multiplicity
        self.table = table
        self.by_size = {}
        self.classes = {}  # class key -> class ids of the stored members
        self.max_size = 0

    def is_full(self, key) -> bool:
        stored = self.classes.get(key)
        return stored is not None and len(stored) >= self.multiplicity

    def store(self, cand, key) -> None:
        stored = self.classes.setdefault(key, set())
        cid = cand.cid
        if cid is None:  # a leaf comes with its class id
            cid = cand.cid = _class_id(self.table, cand.kind, cand.value, cand.children)
        if len(stored) >= self.multiplicity or cid in stored:
            return
        stored.add(cid)
        self.by_size.setdefault(cand.size, []).append(cand)
        if cand.size > self.max_size:
            self.max_size = cand.size


def _leaf_batch(leaves, tables, verdicts) -> list:
    identity = tables.uniq_bit or tables.eq_of
    out = []
    for kind, value, text, bits, cid in leaves:
        base = tables.box_bits | bits & tables.test_mask
        mask = verdicts[base | tables.identity_bits(kind, value, ()) if identity else base]
        if mask is not None:
            out.append(_Cand(kind, value, (), 1, text, mask, cid))
    return out


def _parent_batch(n, child_level, compositions, tables, width, budget, level,
                  judge=True) -> list:
    """The kept candidates with exactly n nodes over the stored child reps;
    each size composition is charged to the budget at once.  Without
    ``judge`` the compositions are only charged."""
    by_size = child_level.by_size
    kept, verdicts = [], None
    for k in range(1, min(width, n - 1) + 1):
        shapes = [("obj", keyset) for keyset in combinations(tables.obj_keys, k)]
        if tables.arrays:
            shapes.append(("arr", range(k)))
        if not shapes:
            continue
        for comp in compositions[k, n - 1]:
            groups = [by_size[size] for size in comp]
            budget.charge(math.prod(map(len, groups)) * len(shapes))
            if not judge:
                continue
            if verdicts is None:
                verdicts = tables.verdicts(level)
            for kind, labels in shapes:
                masks = list(map(verdicts.__getitem__, tables.bases(kind, labels, comp, groups)))
                if masks.count(None) == len(masks):
                    continue
                for reps, mask in zip(product(*groups), masks):
                    if mask is not None:
                        kept.append(_Cand(kind, None, tuple(zip(labels, reps)), n, mask=mask))
    return kept


def _compositions(sizes) -> _Memo:
    """Keyed by ``(slots, total)``: every tuple of ``slots`` entries of the
    sorted ``sizes`` (all at least 1) that sums to ``total``, in
    lexicographic order.  Each list is built once."""
    def compute(key):
        slots, total = key
        if slots == 1:
            return [(total,)] if total in sizes else []
        return [(size,) + rest for size in sizes if size <= total - slots + 1
                for rest in table[slots - 1, total - size]]

    table = _Memo(compute)
    return table


def _in_order(cands, key_text) -> list:
    """The candidates with their canonical texts, smallest first."""
    for cand in cands:
        if cand.serial is None:
            cand.serial = _serial(cand, key_text)
    return sorted(cands, key=_Cand.order_key)


def _staged_search(leaves, bounds, budget_limit, levels, multiplicity,
                   confirm, table, key_text, least=1) -> Optional[_Cand]:
    """Bottom-up over distances from the root: the level at distance p is
    populated from the one at p+1, in batches of one node count.  Below the
    root, ``levels[p]`` drops a candidate whose class is already full (up to
    ``multiplicity`` distinct subtrees per class, more than one under array
    uniqueness); the rest are stored smallest first, so each class keeps
    its smallest members.  At the root nothing is stored: of the candidates
    that satisfy the formula, the smallest by ``_Cand.order_key`` that
    ``confirm`` (when given) accepts is returned; None once the bounded
    space is exhausted.  No model has fewer than ``least`` nodes: root
    candidates of those sizes are charged to the budget but never built.
    """
    budget = _Budget(budget_limit)
    depth, width = bounds.max_depth, bounds.max_width
    below = None
    for p in range(depth, -1, -1):
        tables = levels[p]
        level = _Level(multiplicity, table)
        ceiling = 1
        if below is not None and width > 0 and below.by_size:
            ceiling = min(_full_tree_size(depth - p, width), 1 + width * below.max_size)
            compositions = _compositions(sorted(below.by_size))
        for n in range(1, ceiling + 1):
            judge = p or n >= least
            if n == 1:
                budget.charge(len(leaves))
                batch = _leaf_batch(leaves, tables, tables.verdicts(level)) if judge else []
            else:
                batch = _parent_batch(n, below, compositions, tables, width, budget,
                                      level, judge)
            for cand in _in_order(batch, key_text):
                if p:
                    level.store(cand, cand.mask & tables.read)
                elif confirm is None or confirm(cand):
                    return cand
        below = level
    return None


def _class_search(program, inventory, bounds, budget, revalidate,
                  exhaustive=False) -> SatVerdict:
    """The staged search, its witness re-checked by ``revalidate``.

    An exhaustive search, for two-path equality, collapses nothing: its
    program is just ``true``, so every candidate of a level falls in one
    class with no bound on its distinct members, and the root candidates
    go to ``revalidate`` in order until one is accepted."""
    if exhaustive:
        multiplicity, prune = math.inf, False
    else:
        multiplicity = max(1, bounds.max_width) if program.has_unique else 1
        prune = program.allow_key_pruning()
    leaves = program.compile_atoms(inventory, bounds.max_width)
    levels = []
    for read, closure, regs in program.depth_profiles(bounds.max_depth):
        arrays = (not prune) or any(isinstance(program.instrs[b], _IDX_MODALS) for b in closure)
        keys = program.visible_keys(regs, inventory.keys) if prune else inventory.keys
        levels.append(_LevelTables(program, read, closure, keys, arrays, root=not levels))
    confirm = (lambda cand: revalidate(jt.parse_document(cand.serial))) if exhaustive else None
    key_text = {k: json.dumps(k, ensure_ascii=False) + ":" for k in inventory.keys}
    found = _staged_search(leaves, bounds, budget, levels, multiplicity, confirm,
                           program.table, key_text, _least_size(program.instrs[program.phi_bit]))
    if found is None:
        return SatVerdict(False, None, bounds)
    tree = jt.parse_document(found.serial)
    if not revalidate(tree):
        raise RuntimeError(f"search/evaluator disagreement on {found.serial}")
    return SatVerdict(True, tree, bounds)
