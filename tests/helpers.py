"""Shared generators and independent oracles for the test suite.

Oracles here deliberately re-implement semantics the slow, obvious way
(full node-pair sets, Thompson NFA simulation, recursive comparisons) so
the engine's optimized paths are checked against something that shares no
code with them.
"""

from __future__ import annotations

import itertools

import jlogic.jnl as jnl
import jlogic.jsl as jsl
import jlogic.recursive as rec
import jlogic.regex as rx
import jlogic.schema as sch
import jlogic.tree as jt
from jlogic.decision import automata as am
from jlogic.errors import AutomatonError, IllFormedRecursion, MalformedFormula
from jlogic.tree import JsonTree, NodeKind

KEYS = ["a", "b", "c", "name", "w"]
STRINGS = ["x", "fish", ""]
INTS = [0, 1, 2, 7]


# -- small entry points over the engine's own ----------------------------------------


def eval_jsl(tree: JsonTree, node, phi) -> bool:
    """Satisfaction at a node given by path: at the root of its subtree."""
    return jsl.validate(jt.subtree(tree, node), phi)


def is_well_formed(expr) -> bool:
    return rec.find_cycle(expr) is None


def recursive_sat_sets(expr, tree: JsonTree) -> dict:
    """Satisfied internal node ids per definition symbol."""
    tables = rec._sat_tables(rec.cut(expr), tree)
    return {name: {n for n, hit in enumerate(tables[name]) if hit} for name, _ in expr.definitions}


# -- random documents -------------------------------------------------------------


def random_value(rng, depth=3, width=3):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(STRINGS) if rng.random() < 0.5 else rng.choice(INTS)
    if roll < 0.7:
        keys = rng.sample(KEYS, rng.randint(0, min(width, len(KEYS))))
        return {k: random_value(rng, depth - 1, width) for k in keys}
    return [random_value(rng, depth - 1, width) for _ in range(rng.randint(0, width))]


def random_tree(rng, depth=3, width=3) -> JsonTree:
    return jt.from_python(random_value(rng, depth, width))


def w1_value(rng, depth):
    """The benchmark document shape W1: a leaf at depth 0 or with odds 0.2,
    otherwise with equal odds an object with 1-6 keys from k0..k30 or an
    array of 1-6 elements."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["x", "abc", "hello", 3, 17, 42, 0])
    if rng.random() < 0.5:
        return {f"k{i}": w1_value(rng, depth - 1) for i in rng.sample(range(31), rng.randint(1, 6))}
    return [w1_value(rng, depth - 1) for _ in range(rng.randint(1, 6))]


def random_chain(rng, depth, keys=("a", "b")):
    """A value nested ``depth`` levels, mostly one child per level, built
    inside out so that no recursion follows the depth."""
    value = rng.choice([0, 1, "x"])
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.6:
            value = {rng.choice(keys): value}
        elif roll < 0.8:
            value = {keys[0]: value, keys[-1]: rng.choice([0, 1])}
        else:
            value = [value] if rng.random() < 0.5 else [rng.choice([0, "x"]), value]
    return value


def small_tree_pool(rng, count, depth=3, width=3):
    return [random_tree(rng, depth, width) for _ in range(count)]


# -- naive structural equality -----------------------------------------------------


def naive_equal(t1: JsonTree, n1: int, t2: JsonTree, n2: int) -> bool:
    k1, k2 = t1.kind(n1), t2.kind(n2)
    if k1 is not k2:
        return False
    if k1 in (NodeKind.STR, NodeKind.INT):
        return t1.value(n1) == t2.value(n2)
    c1, c2 = t1.children(n1), t2.children(n2)
    if len(c1) != len(c2):
        return False
    if k1 is NodeKind.OBJ:
        m1 = dict(zip(t1.keys_of(n1), c1))
        m2 = dict(zip(t2.keys_of(n2), c2))
        if set(m1) != set(m2):
            return False
        return all(naive_equal(t1, m1[k], t2, m2[k]) for k in m1)
    return all(naive_equal(t1, a, t2, b) for a, b in zip(c1, c2))


# -- Thompson NFA regex oracle --------------------------------------------------------


class NfaOracle:
    """Classic epsilon-NFA built structurally; subset simulation.  A
    top-level complement negates the verdict on its body."""

    def __init__(self, regex: rx.Regex):
        self.eps = {}
        self.moves = {}
        self.counter = 0
        self.negated = isinstance(regex, rx.Compl)
        self.start, self.end = self._build(regex.body if self.negated else regex)

    def _state(self):
        self.counter += 1
        return self.counter - 1

    def _eps(self, a, b):
        self.eps.setdefault(a, []).append(b)

    def _move(self, a, pred, b):
        self.moves.setdefault(a, []).append((pred, b))

    def _build(self, r):
        s, e = self._state(), self._state()
        if isinstance(r, rx.Empty):
            pass
        elif isinstance(r, rx.Epsilon):
            self._eps(s, e)
        elif isinstance(r, rx.Lit):
            self._move(s, lambda ch, c=r.char: ch == c, e)
        elif isinstance(r, rx.AnyChar):
            self._move(s, lambda ch: True, e)
        elif isinstance(r, rx.Cls):
            def pred(ch, ranges=r.ranges, neg=r.negated):
                inside = any(lo <= ord(ch) <= hi for lo, hi in ranges)
                return inside != neg
            self._move(s, pred, e)
        elif isinstance(r, rx.Concat):
            prev = s
            for part in r.parts:
                ps, pe = self._build(part)
                self._eps(prev, ps)
                prev = pe
            self._eps(prev, e)
        elif isinstance(r, rx.Union):
            for part in r.parts:
                ps, pe = self._build(part)
                self._eps(s, ps)
                self._eps(pe, e)
        elif isinstance(r, (rx.Star, rx.Plus)):
            ps, pe = self._build(r.body)
            self._eps(s, ps)
            self._eps(pe, ps)
            self._eps(pe, e)
            if isinstance(r, rx.Star):
                self._eps(s, e)
        else:
            raise TypeError(r)
        return s, e

    def _closure(self, states):
        out = set(states)
        work = list(states)
        while work:
            a = work.pop()
            for b in self.eps.get(a, ()):
                if b not in out:
                    out.add(b)
                    work.append(b)
        return out

    def matches(self, word: str) -> bool:
        current = self._closure({self.start})
        for ch in word:
            nxt = set()
            for a in current:
                for pred, b in self.moves.get(a, ()):
                    if pred(ch):
                        nxt.add(b)
            current = self._closure(nxt)
            if not current:
                return self.negated
        return (self.end in current) != self.negated


def oracle_matches(regex: rx.Regex, word: str) -> bool:
    return NfaOracle(regex).matches(word)


# -- random regexes ---------------------------------------------------------------


REGEX_CHARS = "ab01"


def random_regex(rng, depth=3) -> rx.Regex:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.6:
            return rx.Lit(rng.choice(REGEX_CHARS))
        if roll < 0.75:
            return rx.AnyChar()
        if roll < 0.9:
            lo = ord(rng.choice(REGEX_CHARS))
            hi = ord(rng.choice(REGEX_CHARS))
            lo, hi = min(lo, hi), max(lo, hi)
            return rx.Cls(((lo, hi),), negated=rng.random() < 0.3)
        return rx.EPSILON
    roll = rng.random()
    if roll < 0.35:
        return rx.cat([random_regex(rng, depth - 1) for _ in range(rng.randint(1, 3))])
    if roll < 0.7:
        return rx.alt([random_regex(rng, depth - 1) for _ in range(rng.randint(1, 3))])
    if roll < 0.85:
        return rx.star(random_regex(rng, depth - 1))
    return rx.Plus(random_regex(rng, depth - 1))


def random_word(rng, max_len=5) -> str:
    return "".join(rng.choice(REGEX_CHARS) for _ in range(rng.randint(0, max_len)))


# -- naive navigational semantics ----------------------------------------------------


def oracle_pairs(tree: JsonTree, alpha) -> set:
    """Clause-by-clause relation over all node pairs (internal ids)."""
    nodes = list(tree.nodes())
    if isinstance(alpha, jnl.Eps):
        return {(n, n) for n in nodes}
    if isinstance(alpha, jnl.Test):
        return {(n, n) for n in nodes if oracle_holds(tree, alpha.body, n)}
    if isinstance(alpha, jnl.KeyAxis):
        return {(n, c) for n in nodes if tree.kind(n) is NodeKind.OBJ
                for key, c in zip(tree.keys_of(n), tree.children(n))
                if key == alpha.key}
    if isinstance(alpha, jnl.KeyRegexAxis):
        nfa = NfaOracle(alpha.pattern)
        return {(n, c) for n in nodes if tree.kind(n) is NodeKind.OBJ
                for key, c in zip(tree.keys_of(n), tree.children(n))
                if nfa.matches(key)}
    if isinstance(alpha, jnl.IdxAxis):
        return {(n, c) for n in nodes if tree.kind(n) is NodeKind.ARR
                for i, c in enumerate(tree.children(n), start=1)
                if i == alpha.pos}
    if isinstance(alpha, jnl.IdxRangeAxis):
        return {(n, c) for n in nodes if tree.kind(n) is NodeKind.ARR
                for i, c in enumerate(tree.children(n), start=1)
                if alpha.lo <= i and (alpha.hi is None or i <= alpha.hi)}
    if isinstance(alpha, jnl.Compose):
        left = oracle_pairs(tree, alpha.lhs)
        right = oracle_pairs(tree, alpha.rhs)
        return {(n, m) for (n, k) in left for (k2, m) in right if k == k2}
    if isinstance(alpha, jnl.Star):
        step = oracle_pairs(tree, alpha.body)
        closure = {(n, n) for n in nodes}
        while True:
            grown = closure | {(n, m) for (n, k) in closure for (k2, m) in step if k == k2}
            if grown == closure:
                return closure
            closure = grown
    raise TypeError(alpha)


def oracle_holds(tree: JsonTree, phi, n) -> bool:
    if isinstance(phi, jnl.Top):
        return True
    if isinstance(phi, jnl.Not):
        return not oracle_holds(tree, phi.body, n)
    if isinstance(phi, jnl.And):
        return oracle_holds(tree, phi.lhs, n) and oracle_holds(tree, phi.rhs, n)
    if isinstance(phi, jnl.Or):
        return oracle_holds(tree, phi.lhs, n) or oracle_holds(tree, phi.rhs, n)
    if isinstance(phi, jnl.Exists):
        return any(src == n for src, _ in oracle_pairs(tree, phi.path))
    if isinstance(phi, jnl.EqConst):
        return any(src == n and naive_equal(tree, dst, phi.const, 0)
                   for src, dst in oracle_pairs(tree, phi.path))
    if isinstance(phi, jnl.EqPaths):
        left = [dst for src, dst in oracle_pairs(tree, phi.left) if src == n]
        right = [dst for src, dst in oracle_pairs(tree, phi.right) if src == n]
        return any(naive_equal(tree, d1, tree, d2) for d1 in left for d2 in right)
    raise TypeError(phi)


def oracle_sat(tree: JsonTree, phi) -> frozenset:
    return frozenset(tree.path_of(n) for n in tree.nodes() if oracle_holds(tree, phi, n))


class SetInterpreter:
    """Set-at-a-time interpreter over one tree: backward images for the
    unary operators, forward pair maps for eq(alpha, beta).  A second oracle
    that, unlike ``oracle_holds``, handles large and deep documents (the
    pair maps stay quadratic under closure)."""

    def __init__(self, tree: JsonTree):
        self.tree = tree
        self.all_nodes = frozenset(range(tree.size))
        # the edge into each non-root node: (parent, key or None, 1-based position)
        self.edge = {}
        for n in tree.nodes():
            keys = tree.keys_of(n)
            for i, c in enumerate(tree.children(n)):
                self.edge[c] = (n, keys[i] if keys else None, i + 1)
        self._sat = {}
        self._pairs = {}

    def sat(self, u) -> frozenset:
        """Node ids satisfying the unary formula ``u``."""
        hit = self._sat.get(id(u))
        if hit is not None:
            return hit
        tree = self.tree
        if isinstance(u, jnl.Top):
            out = self.all_nodes
        elif isinstance(u, jnl.Not):
            out = self.all_nodes - self.sat(u.body)
        elif isinstance(u, jnl.And):
            out = self.sat(u.lhs) & self.sat(u.rhs)
        elif isinstance(u, jnl.Or):
            out = self.sat(u.lhs) | self.sat(u.rhs)
        elif isinstance(u, jnl.Exists):
            out = frozenset(self.pre(u.path, self.all_nodes))
        elif isinstance(u, jnl.EqConst):
            cid = tree.const_id(u.const)
            targets = {n for n, c in enumerate(tree.subtree_ids()) if c == cid}
            out = frozenset(self.pre(u.path, targets))
        elif isinstance(u, jnl.EqPaths):
            ids = tree.subtree_ids()
            ma, mb = self.pairs(u.left), self.pairs(u.right)
            out = frozenset(n for n, ts in ma.items() if mb.get(n)
                            and not {ids[t] for t in ts}.isdisjoint(ids[s] for s in mb[n]))
        else:
            raise TypeError(u)
        self._sat[id(u)] = out
        return out

    def pre(self, b, targets) -> set:
        """Nodes with some b-successor inside ``targets``."""
        if isinstance(b, jnl.Eps):
            return set(targets)
        if isinstance(b, jnl.Test):
            return self.sat(b.body) & set(targets)
        if isinstance(b, jnl.Compose):
            return self.pre(b.lhs, self.pre(b.rhs, targets))
        if isinstance(b, jnl.Star):
            reached = set(targets)
            frontier = reached
            while frontier:
                frontier = self.pre(b.body, frontier) - reached
                reached |= frontier
            return reached
        return {self.edge[t][0] for t in targets if t != 0 and self._step(b, t)}

    def _step(self, b, t) -> bool:
        """Whether the edge into non-root ``t`` is a b-step."""
        parent, key, pos = self.edge[t]
        if isinstance(b, jnl.KeyAxis):
            return key == b.key
        if isinstance(b, jnl.KeyRegexAxis):
            return key is not None and rx.matches(b.pattern, key)
        in_array = self.tree.kind(parent) is NodeKind.ARR
        if isinstance(b, jnl.IdxAxis):
            return in_array and pos == b.pos
        if isinstance(b, jnl.IdxRangeAxis):
            return in_array and b.lo <= pos and (b.hi is None or pos <= b.hi)
        raise TypeError(b)

    def pairs(self, b) -> dict:
        """Every node's b-successors (full materialization)."""
        hit = self._pairs.get(id(b))
        if hit is not None:
            return hit
        if isinstance(b, jnl.Eps):
            out = {n: (n,) for n in self.all_nodes}
        elif isinstance(b, jnl.Test):
            out = {n: (n,) for n in self.sat(b.body)}
        elif isinstance(b, jnl.Compose):
            left, right = self.pairs(b.lhs), self.pairs(b.rhs)
            out = {}
            for n, mids in left.items():
                acc = set()
                for m in mids:
                    acc.update(right.get(m, ()))
                if acc:
                    out[n] = tuple(acc)
        elif isinstance(b, jnl.Star):
            step = self.pairs(b.body)
            out = {}
            for n in self.all_nodes:
                seen, frontier = {n}, [n]
                while frontier:
                    frontier = [t for m in frontier for t in step.get(m, ()) if t not in seen]
                    seen.update(frontier)
                out[n] = tuple(seen)
        else:
            out = {}
            for t in range(1, self.tree.size):
                if self._step(b, t):
                    out.setdefault(self.edge[t][0], []).append(t)
        self._pairs[id(b)] = out
        return out


def interpreter_sat(tree: JsonTree, phi) -> frozenset:
    """Node ids satisfying ``phi`` by the set-at-a-time interpreter."""
    return SetInterpreter(tree).sat(phi)


# -- random navigational formulas -----------------------------------------------------


def random_jnl_binary(rng, depth) -> jnl.JnlBinary:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.3:
            return jnl.KeyAxis(rng.choice(KEYS))
        if roll < 0.45:
            return jnl.KeyRegexAxis(random_regex(rng, 1))
        if roll < 0.65:
            return jnl.IdxAxis(rng.randint(1, 3))
        if roll < 0.8:
            lo = rng.randint(1, 3)
            return jnl.IdxRangeAxis(lo, None if rng.random() < 0.4 else lo + rng.randint(0, 2))
        return jnl.Eps()
    roll = rng.random()
    if roll < 0.4:
        return jnl.Compose(random_jnl_binary(rng, depth - 1),
                           random_jnl_binary(rng, depth - 1))
    if roll < 0.6:
        return jnl.Test(random_jnl_unary(rng, depth - 1))
    if roll < 0.8:
        return jnl.Star(random_jnl_binary(rng, depth - 1))
    return random_jnl_binary(rng, 0)


def random_jnl_unary(rng, depth) -> jnl.JnlUnary:
    if depth <= 0:
        return jnl.TOP if rng.random() < 0.5 else jnl.Exists(random_jnl_binary(rng, 0))
    roll = rng.random()
    if roll < 0.15:
        return jnl.Not(random_jnl_unary(rng, depth - 1))
    if roll < 0.3:
        return jnl.And(random_jnl_unary(rng, depth - 1), random_jnl_unary(rng, depth - 1))
    if roll < 0.45:
        return jnl.Or(random_jnl_unary(rng, depth - 1), random_jnl_unary(rng, depth - 1))
    if roll < 0.7:
        return jnl.Exists(random_jnl_binary(rng, depth - 1))
    if roll < 0.85:
        return jnl.EqConst(random_jnl_binary(rng, depth - 1),
                           jt.from_python(random_value(rng, 1, 2)))
    return jnl.EqPaths(random_jnl_binary(rng, depth - 1),
                       random_jnl_binary(rng, depth - 1))


# -- naive schema-logic semantics ------------------------------------------------------


def oracle_jsl(tree: JsonTree, n: int, phi) -> bool:
    kind = tree.kind(n)
    if isinstance(phi, jsl.Top):
        return True
    if isinstance(phi, jsl.Not):
        return not oracle_jsl(tree, n, phi.body)
    if isinstance(phi, jsl.And):
        return oracle_jsl(tree, n, phi.lhs) and oracle_jsl(tree, n, phi.rhs)
    if isinstance(phi, jsl.Or):
        return oracle_jsl(tree, n, phi.lhs) or oracle_jsl(tree, n, phi.rhs)
    if isinstance(phi, jsl.DiaKey):
        nfa = NfaOracle(phi.pattern)
        return kind is NodeKind.OBJ and any(
            nfa.matches(key) and oracle_jsl(tree, c, phi.body)
            for key, c in zip(tree.keys_of(n), tree.children(n)))
    if isinstance(phi, jsl.BoxKey):
        if kind is not NodeKind.OBJ:
            return True
        nfa = NfaOracle(phi.pattern)
        return all(not nfa.matches(key) or oracle_jsl(tree, c, phi.body)
                   for key, c in zip(tree.keys_of(n), tree.children(n)))
    if isinstance(phi, jsl.DiaIdx):
        return kind is NodeKind.ARR and any(
            phi.lo <= i and (phi.hi is None or i <= phi.hi) and oracle_jsl(tree, c, phi.body)
            for i, c in enumerate(tree.children(n), start=1))
    if isinstance(phi, jsl.BoxIdx):
        if kind is not NodeKind.ARR:
            return True
        return all(not (phi.lo <= i and (phi.hi is None or i <= phi.hi))
                   or oracle_jsl(tree, c, phi.body)
                   for i, c in enumerate(tree.children(n), start=1))
    if isinstance(phi, jsl.Atom):
        return oracle_node_test(tree, n, phi.test)
    raise TypeError(phi)


def oracle_node_test(tree: JsonTree, n: int, test) -> bool:
    kind = tree.kind(n)
    if isinstance(test, jsl.KindTest):
        return kind is test.kind
    if isinstance(test, jsl.PatternTest):
        return kind is NodeKind.STR and NfaOracle(test.pattern).matches(tree.value(n))
    if isinstance(test, jsl.MinTest):
        return kind is NodeKind.INT and tree.value(n) >= test.bound
    if isinstance(test, jsl.MaxTest):
        return kind is NodeKind.INT and tree.value(n) <= test.bound
    if isinstance(test, jsl.MultOfTest):
        if kind is not NodeKind.INT:
            return False
        return tree.value(n) == 0 if test.divisor == 0 else tree.value(n) % test.divisor == 0
    if isinstance(test, jsl.MinChTest):
        return tree.child_count(n) >= test.count
    if isinstance(test, jsl.MaxChTest):
        return tree.child_count(n) <= test.count
    if isinstance(test, jsl.UniqueTest):
        if kind is not NodeKind.ARR:
            return False
        ch = tree.children(n)
        return all(not naive_equal(tree, ch[i], tree, ch[j])
                   for i in range(len(ch)) for j in range(i + 1, len(ch)))
    if isinstance(test, jsl.SameAsTest):
        return naive_equal(tree, n, test.const, 0)
    raise TypeError(test)


# -- random schema-logic formulas -------------------------------------------------------


def random_node_test(rng) -> jsl.NodeTest:
    roll = rng.randint(0, 9)
    if roll == 0:
        return jsl.KindTest(rng.choice(list(NodeKind)))
    if roll == 1:
        return jsl.UniqueTest()
    if roll == 2:
        return jsl.PatternTest(random_regex(rng, 1))
    if roll == 3:
        return jsl.MinTest(rng.randint(0, 5))
    if roll == 4:
        return jsl.MaxTest(rng.randint(0, 5))
    if roll == 5:
        return jsl.MultOfTest(rng.randint(0, 4))
    if roll == 6:
        return jsl.MinChTest(rng.randint(0, 3))
    if roll == 7:
        return jsl.MaxChTest(rng.randint(0, 3))
    return jsl.SameAsTest(jt.from_python(random_value(rng, 1, 2)))


def random_jsl(rng, depth, symbols=()) -> jsl.JslFormula:
    if depth <= 0:
        if symbols and rng.random() < 0.4:
            return jsl.SymbolRef(rng.choice(symbols))
        return jsl.TOP if rng.random() < 0.3 else jsl.Atom(random_node_test(rng))
    roll = rng.random()
    if roll < 0.15:
        return jsl.Not(random_jsl(rng, depth - 1, symbols))
    if roll < 0.3:
        return jsl.And(random_jsl(rng, depth - 1, symbols),
                       random_jsl(rng, depth - 1, symbols))
    if roll < 0.4:
        return jsl.Or(random_jsl(rng, depth - 1, symbols),
                      random_jsl(rng, depth - 1, symbols))
    body = random_jsl(rng, depth - 1, symbols)
    kind = rng.randint(0, 3)
    if kind == 0:
        return jsl.BoxKey(random_key_pattern(rng), body)
    if kind == 1:
        return jsl.DiaKey(random_key_pattern(rng), body)
    lo = rng.randint(1, 3)
    hi = rng.choice([lo, lo + 1, None])
    return (jsl.BoxIdx if kind == 2 else jsl.DiaIdx)(lo, hi, body)


def formula_size(phi) -> int:
    """Nodes of a schema-logic formula, counted once per occurrence
    (``jsl.subformulas`` lists each distinct node once)."""
    size, stack = 0, [phi]
    while stack:
        f = stack.pop()
        size += 1
        stack.extend(getattr(f, name) for name in ("lhs", "rhs", "body") if hasattr(f, name))
    return size


def random_well_formed(rng, count) -> list:
    """Seeded well-formed recursive expressions over one to three symbols."""
    out = []
    while len(out) < count:
        names = [f"g{i}" for i in range(rng.randint(1, 3))]
        defs = [(n, random_jsl(rng, rng.randint(1, 3), symbols=tuple(names)))
                for n in names]
        base = random_jsl(rng, rng.randint(0, 2), symbols=tuple(names))
        try:
            e = rec.make_recursive(defs, base)
        except MalformedFormula:
            continue
        if is_well_formed(e):
            out.append(e)
    return out


def random_key_pattern(rng) -> rx.Regex:
    roll = rng.random()
    if roll < 0.5:
        return rx.word_regex(rng.choice(KEYS))
    if roll < 0.7:
        return rx.SIGMA_STAR
    return rx.alt([rx.word_regex(rng.choice(KEYS)), rx.word_regex(rng.choice(KEYS))])


JSL_FEATURES = frozenset({cls.__name__ for cls in jsl.NodeTest.__subclasses__()}
                         | {"negation", "key regex", "open interval"})


def jsl_features(phi) -> set:
    """Which of JSL_FEATURES occur in phi: node-test class names, negation,
    key modalities over a regex that is not a single word, and index
    modalities with no upper bound."""
    out = set()
    for f in jsl.subformulas(phi):
        if isinstance(f, jsl.Atom):
            out.add(type(f.test).__name__)
        elif isinstance(f, jsl.Not):
            out.add("negation")
        elif isinstance(f, (jsl.BoxKey, jsl.DiaKey)) and rx.literal_word(f.pattern) is None:
            out.add("key regex")
        elif isinstance(f, (jsl.BoxIdx, jsl.DiaIdx)) and f.hi is None:
            out.add("open interval")
    return out


# -- automaton runs --------------------------------------------------------------------


def oracle_automaton(auto: am.JAutomaton, tree: JsonTree) -> bool:
    """The state-bit run: every live state at every node, bottom-up.

    Each state is one bit and a node's derived states are one int.  Node
    ids are pre-order, so visiting them in reverse derives every child
    before its parent: tree states first from the children's sets, then
    node states in rule-dependency order.  Accepts when the root derives a
    final state.
    """
    order = am.node_rule_order(auto)
    live = am._live_states(auto)
    bits = {q: 1 << i for i, q in enumerate(sorted(live))}
    masks = [0] * tree.size
    node_rules = auto.node_rule_map()
    tree_steps = [(bits[q], _oracle_tree_rule(body, tree, bits, masks))
                  for q, body in auto.tree_rules if q in live]
    node_steps = [(bits[q], _oracle_node_rule(node_rules[q], tree, bits))
                  for q in order if q in live]
    for n in range(tree.size - 1, -1, -1):
        derived = 0
        for bit, rule in tree_steps:
            if rule(n):
                derived |= bit
        for bit, rule in node_steps:
            if rule(n, derived):
                derived |= bit
        masks[n] = derived
    return masks[0] & _oracle_mask(auto.final, bits) != 0


def _oracle_mask(states, bits) -> int:
    mask = 0
    for q in states:
        bit = bits.get(q)
        if bit is None:
            raise AutomatonError(f"a rule refers to state {q}, which has no rule")
        mask |= bit
    return mask


def _oracle_node_rule(expr, tree, bits):
    """Closure ``(n, derived) -> bool`` for a node-state rule body."""
    if isinstance(expr, (am.RAnd, am.ROr)):
        parts = [_oracle_node_rule(p, tree, bits) for p in expr.parts]
        if isinstance(expr, am.RAnd):
            return lambda n, derived: all(p(n, derived) for p in parts)
        return lambda n, derived: any(p(n, derived) for p in parts)
    if isinstance(expr, am.TrueAtom):
        return lambda n, derived: True
    if isinstance(expr, am.FalseAtom):
        return lambda n, derived: False
    if isinstance(expr, am.TestAtom):
        test = jsl.compile_test(tree, expr.test)
        if expr.negated:
            return lambda n, derived: not test(n)
        return lambda n, derived: test(n)
    if isinstance(expr, am.StateAtom):
        mask = _oracle_mask([expr.state], bits)
        return lambda n, derived: derived & mask != 0
    raise AutomatonError(f"not a node-rule atom: {expr!r}")


def _oracle_tree_rule(expr, tree, bits, masks):
    """Closure ``n -> bool`` for a tree-state rule body over the children's
    derived states in ``masks``."""
    if isinstance(expr, (am.RAnd, am.ROr)):
        parts = [_oracle_tree_rule(p, tree, bits, masks) for p in expr.parts]
        if isinstance(expr, am.RAnd):
            return lambda n: all(p(n) for p in parts)
        return lambda n: any(p(n) for p in parts)
    if isinstance(expr, am.QuantAtom):
        mask = _oracle_mask([expr.state], bits)
        label = expr.label
        label = label.pattern if isinstance(label, am.KeyLabel) else (label.lo, label.hi)
        return jsl.compile_modal(tree, label, expr.universal, lambda c: masks[c] & mask)
    raise AutomatonError(f"node atom in a tree rule: {expr!r}")


def random_automaton(rng, size=8) -> am.JAutomaton:
    """A hand-built automaton over states 0..size-1.

    A node rule reads only lower states, so node rules stay acyclic; a
    tree rule quantifies over any state, itself included.  Node rules mix
    (possibly negated) tests, constants and state atoms, and a third of
    them alias a lower state, so chains of aliases and states read twice
    are common.  A conjunction or disjunction may have no parts.  One to
    three states are final.
    """
    node_rules, tree_rules = [], []
    for q in range(size):
        roll = rng.random()
        if q and roll < 0.3:
            node_rules.append((q, am.StateAtom(rng.randrange(q))))
        elif roll < 0.6:
            tree_rules.append((q, _random_rule(rng, lambda: _random_quant(rng, size))))
        else:
            node_rules.append((q, _random_rule(rng, lambda: _random_node_atom(rng, q))))
    final = rng.sample(range(size), rng.randint(1, min(3, size)))
    return am.make_automaton(node_rules, tree_rules, final)


def _random_rule(rng, atom):
    parts = tuple(atom() for _ in range(rng.randint(0, 3)))
    if len(parts) == 1 and rng.random() < 0.5:
        return parts[0]
    return (am.RAnd if rng.random() < 0.5 else am.ROr)(parts)


def _random_quant(rng, size):
    if rng.random() < 0.5:
        label = am.KeyLabel(random_key_pattern(rng))
    else:
        lo = rng.randint(1, 3)
        label = am.IdxLabel(lo, rng.choice([lo, lo + 1, None]))
    return am.QuantAtom(rng.randrange(size), label, universal=rng.random() < 0.5)


def _random_node_atom(rng, q):
    roll = rng.random()
    if q and roll < 0.5:
        return am.StateAtom(rng.randrange(q))
    if roll < 0.9:
        return am.TestAtom(random_node_test(rng), negated=rng.random() < 0.5)
    return am.TrueAtom() if rng.random() < 0.5 else am.FalseAtom()


def automaton_features(auto: am.JAutomaton) -> set:
    """Which of AUTOMATON_FEATURES ``auto`` shows."""
    out = set()
    node_rules = auto.node_rule_map()
    aliases = {q: b.state for q, b in node_rules.items() if isinstance(b, am.StateAtom)}
    if any(t in aliases for t in aliases.values()):
        out.add("alias chain")
    reads = [a.state for _, body in auto.node_rules + auto.tree_rules
             for a in am._atoms(body) if isinstance(a, (am.StateAtom, am.QuantAtom))]
    if len(reads) > len(set(reads)):
        out.add("shared state")
    if len(auto.final) > 1:
        out.add("several finals")
    for q, body in auto.tree_rules:
        for a in am._atoms(body):
            out.add("key label" if isinstance(a.label, am.KeyLabel) else "index label")
            out.add("box" if a.universal else "dia")
            if a.state == q:
                out.add("self quantifier")
    for _, body in auto.node_rules:
        if any(isinstance(a, am.TestAtom) and a.negated for a in am._atoms(body)):
            out.add("negated test")
    return out


AUTOMATON_FEATURES = frozenset({"alias chain", "shared state", "several finals", "key label",
                                "index label", "box", "dia", "self quantifier",
                                "negated test"})


# -- JSON Schema keyword interpreter --------------------------------------------------


def _sub_schemas(ast):
    """Direct children in schema positions, flagged shielded when the
    keyword descends into the document (a modal step)."""
    if isinstance(ast, sch.ObjectSchema):
        for _, sub in ast.properties + ast.pattern_properties:
            yield sub, True
        if ast.additional_properties is not None:
            yield ast.additional_properties, True
    elif isinstance(ast, sch.ArraySchema):
        for sub in ast.items or ():
            yield sub, True
        if ast.additional_items is not None:
            yield ast.additional_items, True
    elif isinstance(ast, (sch.AllOf, sch.AnyOf)):
        for sub in ast.parts:
            yield sub, False
    elif isinstance(ast, sch.NotSchema):
        yield ast.body, False


def schema_refs(ast) -> tuple:
    """The names ``ast`` references, and those of them it reaches without a
    document descent (unshielded)."""
    out, unshielded = set(), set()
    stack = [(ast, False)]
    while stack:
        a, below = stack.pop()
        if isinstance(a, sch.Ref):
            out.add(a.name)
            if not below:
                unshielded.add(a.name)
            continue
        for sub, shielded in _sub_schemas(a):
            stack.append((sub, below or shielded))
    return out, unshielded


def check_well_formed(doc) -> list:
    """Reject definition cycles not broken by a document descent.

    Returns the definition names with every unshielded dependency before
    its user (``recursive.dependency_order`` over the sorted unshielded
    references).  The references a translated definition reaches outside
    every modality are the same, so this is also the order in which
    ``recursive.eval_recursive`` fills them."""
    order, cycle = rec.dependency_order(
        {name: sorted(schema_refs(ast)[1]) for name, ast in doc.definitions})
    if cycle:
        raise IllFormedRecursion(f"cyclic definitions: {cycle}")
    return order


def oracle_schema(tree: JsonTree, doc) -> bool:
    """Interpret the keywords directly, top-down, with one memo entry per
    (schema node, document node).  It recurses once per document level, so
    it only suits documents a few hundred levels deep."""
    if doc.definitions:
        check_well_formed(doc)
    defs = doc.definition_map()
    memo = {}
    return _vs(tree, 0, doc.root, defs, memo)


def _vs(tree, n, ast, defs, memo) -> bool:
    key = (id(ast), n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = out = _vs_raw(tree, n, ast, defs, memo)
    return out


def _vs_raw(tree, n, ast, defs, memo) -> bool:
    kind = tree.kind(n)
    if isinstance(ast, sch.EmptySchema):
        return True
    if isinstance(ast, sch.Ref):
        return _vs(tree, n, defs[ast.name], defs, memo)
    if isinstance(ast, sch.StringSchema):
        if kind is not NodeKind.STR:
            return False
        return ast.pattern is None or rx.matches(ast.pattern, tree.value(n))
    if isinstance(ast, sch.NumberSchema):
        if kind is not NodeKind.INT:
            return False
        v = tree.value(n)
        if ast.minimum is not None and v < ast.minimum:
            return False
        if ast.maximum is not None and v > ast.maximum:
            return False
        if ast.multiple_of is not None:
            if ast.multiple_of == 0:
                return v == 0
            return v % ast.multiple_of == 0
        return True
    if isinstance(ast, sch.ObjectSchema):
        if kind is not NodeKind.OBJ:
            return False
        count = tree.child_count(n)
        if ast.min_properties is not None and count < ast.min_properties:
            return False
        if ast.max_properties is not None and count > ast.max_properties:
            return False
        keys = tree.keys_of(n)
        for req in ast.required:
            if tree.obj_child(n, req) is None:
                return False
        prop_map = dict(ast.properties)
        for key_, child in zip(keys, tree.children(n)):
            named = prop_map.get(key_)
            if named is not None and not _vs(tree, child, named, defs, memo):
                return False
            matched = key_ in prop_map
            for pattern, sub in ast.pattern_properties:
                if rx.matches(pattern, key_):
                    matched = True
                    if not _vs(tree, child, sub, defs, memo):
                        return False
            if not matched and ast.additional_properties is not None:
                if not _vs(tree, child, ast.additional_properties, defs, memo):
                    return False
        return True
    if isinstance(ast, sch.ArraySchema):
        if kind is not NodeKind.ARR:
            return False
        if ast.unique_items and not jsl.check_unique(tree, tree.path_of(n)):
            return False
        children = tree.children(n)
        if ast.items is not None:
            if len(children) < len(ast.items):
                return False
            for sub, child in zip(ast.items, children):
                if not _vs(tree, child, sub, defs, memo):
                    return False
            extras = children[len(ast.items):]
        else:
            extras = children if ast.additional_items is not None else ()
        if ast.additional_items is not None:
            for child in extras:
                if not _vs(tree, child, ast.additional_items, defs, memo):
                    return False
        elif ast.items is not None and len(children) > len(ast.items):
            return False
        return True
    if isinstance(ast, sch.AllOf):
        return all(_vs(tree, n, sub, defs, memo) for sub in ast.parts)
    if isinstance(ast, sch.AnyOf):
        return any(_vs(tree, n, sub, defs, memo) for sub in ast.parts)
    if isinstance(ast, sch.NotSchema):
        return not _vs(tree, n, ast.body, defs, memo)
    if isinstance(ast, sch.Enum):
        cid = tree.subtree_id(n)
        return any(tree.const_id(const) == cid for const in ast.values)
    raise TypeError(f"not a schema: {ast!r}")


# -- random JSON Schemas -----------------------------------------------------------------

KEY_PATTERNS = ["a|b", "n.*", ".*", "[a-c]", "w"]
STRING_PATTERNS = ["x", "f.*h", "[a-z]+", "x*"]
SCHEMA_KEYWORDS = frozenset({
    "type", "pattern", "minimum", "maximum", "multipleOf", "minProperties",
    "maxProperties", "required", "properties", "patternProperties",
    "additionalProperties", "items", "uniqueItems", "additionalItems", "allOf",
    "anyOf", "not", "enum", "$ref", "definitions"})


def _ref(name):
    return {"$ref": f"#/definitions/{name}"}


def random_schema_value(rng, depth, free=(), names=()):
    """A raw schema (a Python dict).  ``free`` are the definitions a
    ``$ref`` may name at this node, ``names`` those it may name below a
    keyword that descends into the document, so the references to ``free``
    are the only unshielded ones."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        leaf = rng.randint(0, 5)
        if leaf == 0 and free:
            return _ref(rng.choice(free))
        if leaf == 1:
            return {}
        if leaf == 2:
            return {"enum": [random_value(rng, 1, 2) for _ in range(rng.randint(1, 3))]}
        if leaf == 3:
            out = {"type": "string"}
            if rng.random() < 0.7:
                out["pattern"] = rng.choice(STRING_PATTERNS)
            return out
        out = {"type": "number"}
        for key, hi in (("minimum", 7), ("maximum", 7), ("multipleOf", 3)):
            if rng.random() < 0.4:
                out[key] = rng.randint(0, hi)
        return out

    def sub(d=depth - 1):
        return random_schema_value(rng, d, names, names)

    def same(d=depth - 1):
        return random_schema_value(rng, d, free, names)

    if roll < 0.25 and len(free) >= 1:
        return {"allOf": [_ref(rng.choice(free)) for _ in range(rng.randint(1, 2))]
                + [same(0) for _ in range(rng.randint(0, 1))]}
    if roll < 0.35:
        return {rng.choice(["allOf", "anyOf"]): [same() for _ in range(rng.randint(1, 3))]}
    if roll < 0.42:
        return {"not": same()}
    if roll < 0.72:
        out = {"type": "object"}
        if rng.random() < 0.2:
            out["minProperties"] = rng.randint(0, 3)
        if rng.random() < 0.2:
            out["maxProperties"] = rng.randint(0, 3)
        if rng.random() < 0.25:
            out["required"] = rng.sample(KEYS, rng.randint(1, 2))
        if rng.random() < 0.6:
            out["properties"] = {k: sub() for k in rng.sample(KEYS, rng.randint(1, 3))}
        if rng.random() < 0.5:
            out["patternProperties"] = {p: sub()
                                        for p in rng.sample(KEY_PATTERNS, rng.randint(1, 2))}
        if rng.random() < 0.5:
            out["additionalProperties"] = sub()
        return out
    out = {"type": "array"}
    if rng.random() < 0.6:
        out["items"] = [sub() for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        out["uniqueItems"] = rng.random() < 0.8
    if rng.random() < 0.5:
        out["additionalItems"] = sub()
    return out


def random_schema(rng, depth=3) -> dict:
    """A raw schema with zero to three definitions.  Each definition may
    name the ones after it in a shuffled order without descending (so
    their unshielded references are acyclic), and any definition,
    itself included, below a descent."""
    names = rng.sample(["d0", "d1", "d2"], rng.randint(0, 3))
    defs = {name: random_schema_value(rng, depth, tuple(names[i + 1:]), tuple(names))
            for i, name in enumerate(names)}
    root = random_schema_value(rng, depth, tuple(names), tuple(names))
    if names and rng.random() < 0.5:
        root = {"allOf": [root, _ref(rng.choice(names))]}
    return {"definitions": defs, **root} if defs else root


def schema_keywords(raw) -> set:
    """Every keyword used anywhere in a raw schema."""
    out, todo = set(), [raw]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            out |= set(node)
            for key in ("definitions", "properties", "patternProperties"):
                todo.extend(node.get(key, {}).values())
            for key in ("not", "additionalProperties", "additionalItems"):
                if key in node:
                    todo.append(node[key])
            for key in ("allOf", "anyOf", "items"):
                todo.extend(node.get(key, []))
    return out & SCHEMA_KEYWORDS


# -- brute QBF evaluation ---------------------------------------------------------------


def oracle_qbf(prefix, clauses) -> bool:
    variables = [v for _, v in prefix]

    def matrix(assignment):
        return all(any(assignment[v] == positive for v, positive in clause)
                   for clause in clauses)

    def go(i, assignment):
        if i == len(prefix):
            return matrix(assignment)
        quant, var = prefix[i]
        branches = [go(i + 1, {**assignment, var: value}) for value in (True, False)]
        return any(branches) if quant == "exists" else all(branches)

    return go(0, {})


def truth_table_sat(clauses) -> bool:
    variables = sorted({v for clause in clauses for v, _ in clause})
    for bits in itertools.product([True, False], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(any(assignment[v] == positive for v, positive in clause)
               for clause in clauses):
            return True
    return not clauses
