"""Immutable JSON trees.

A document is modelled as a tree whose domain is partitioned into object,
array, string and integer nodes.  Object children hang off key-labelled
edges (keys unique per parent), array children off 1-based positions, and
only string/integer leaves carry atomic values.  The model deliberately
excludes floats, booleans and null.

Nodes have two representations: the public one is a *path*, a tuple of
child ordinals from the root (``()`` is the root); internally every node
is a dense integer id so that evaluators can work with sets of ints.
Object children are stored sorted by key, and ids are assigned in DFS
pre-order, children in ordinal order.  So a node's id is below those of
its descendants, sorting ids sorts their paths, and equal documents get
identical arrays.

A tree is four columns indexed by id: kind, value, child ids and sorted
keys.  Together they hold the edge relation once, labelled by keys and
positions; no node stores its parent.  Paths, as ordinal tuples or as
rendered labels, are derived top-down by one walk over ascending ids
(``walk_paths``): the child of ``m`` above ``n`` is the last child of
``m`` not after ``n``, found by bisection.

Subtree identity is interned, not hashed.  The first equality test on a
tree labels every node bottom-up with a class id from a table keyed by
the value for leaves, the child ids for arrays and the keys plus child ids
for objects: the AHU tree-isomorphism labelling (Aho, Hopcroft and
Ullman, 1974).  Two subtrees are equal exactly when their ids are.  A
constant document is compared by looking its root up in the same table;
a constant absent from the table equals no subtree.

Text goes through the standard library's C scanner, which reads integers
on its fast path.  Its hooks reject duplicate keys and non-integers
(fractions, exponents, NaN, infinities); ``from_python`` then rejects
negatives, booleans and null.  So a fault the hooks see anywhere in a text
is reported before a negative number, and ``-0`` is zero.  For documents
nested too deeply for the scanner, an explicit stack of open arrays and
objects takes over the containers, and the C scanner still reads every
scalar and key.  All deep traversals here are iterative: documents nested
thousands of levels deep are in scope.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left, bisect_right
from enum import Enum
from json.decoder import JSONDecodeError
from typing import Iterable, Optional, Union

from .errors import (
    DuplicateKey,
    InvariantViolation,
    MalformedSyntax,
    NonNaturalNumber,
    UnknownNode,
    UnsupportedValue,
)

NodeId = tuple  # tuple[int, ...]; () denotes the root
Atom = Union[str, int]


class NodeKind(Enum):
    OBJ = "obj"
    ARR = "arr"
    STR = "str"
    INT = "int"


class JsonTree:
    """One parsed document: the kind, value, children and keys columns.
    Immutable; safe to share between threads.

    Subtree class ids are built on first use into locals and published by
    a single attribute assignment, so a concurrent reader sees either no
    table (and builds an identical one) or a complete one.
    """

    __slots__ = ("_kinds", "_vals", "_children", "_keys", "_classes", "_height", "_hash")

    def __init__(self, kinds, vals, children, keys):
        self._kinds = kinds          # list[NodeKind]
        self._vals = vals            # list[Atom | None]
        self._children = children    # list[tuple[int, ...]]
        self._keys = keys            # list[tuple[str, ...] | None], sorted, obj nodes only
        self._classes = None         # (class id per node, intern table, constant ids)
        self._height = None
        self._hash = None

    # -- integer-id accessors (the fast interface used by evaluators) ------

    @property
    def size(self) -> int:
        return len(self._kinds)

    @property
    def root(self) -> int:
        return 0

    def nodes(self) -> range:
        return range(len(self._kinds))

    def kind(self, n: int) -> NodeKind:
        return self._kinds[n]

    def value(self, n: int) -> Optional[Atom]:
        return self._vals[n]

    def children(self, n: int) -> tuple:
        return self._children[n]

    def child_count(self, n: int) -> int:
        return len(self._children[n])

    def keys_of(self, n: int) -> tuple:
        """Sorted keys of an object node (empty tuple otherwise)."""
        ks = self._keys[n]
        return ks if ks is not None else ()

    def obj_child(self, n: int, key: str) -> Optional[int]:
        """The child under ``key`` of an object node: one binary search over
        its sorted keys.  None if there is none."""
        ks = self._keys[n]
        if not ks:
            return None
        i = bisect_left(ks, key)
        if i < len(ks) and ks[i] == key:
            return self._children[n][i]
        return None

    def columns(self) -> tuple:
        """``(kinds, values, children, keys)``: the per-node lists behind the
        accessors above, indexed by node id, for compiled evaluators that
        bind them into closures.  Read only."""
        return self._kinds, self._vals, self._children, self._keys

    def path_of(self, n: int) -> NodeId:
        return self.paths_of((n,))[0]

    def paths_of(self, ids: Iterable) -> list:
        """The path of each node id; fastest over ascending ids."""
        return walk_paths(self, ids, lambda m, i: i, tuple)

    def node_at(self, path: NodeId) -> int:
        n = 0
        for step in path:
            ch = self._children[n]
            if not isinstance(step, int) or step < 0 or step >= len(ch):
                raise UnknownNode(f"no node at path {tuple(path)!r}")
            n = ch[step]
        return n

    @property
    def domain(self) -> frozenset:
        return frozenset(self.paths_of(self.nodes()))

    # -- subtree identity ---------------------------------------------------

    def _interned(self):
        classes = self._classes
        if classes is None:
            table = {}
            ids = label_subtrees(self, table)
            classes = self._classes = (ids, table, {})
        return classes

    def subtree_ids(self) -> list:
        """Class id of every node: equal ids exactly for equal subtrees."""
        return self._interned()[0]

    def subtree_id(self, n: int) -> int:
        return self._interned()[0][n]

    def const_id(self, const: JsonTree) -> Optional[int]:
        """Class id of the subtrees equal to the document ``const``; None
        when no subtree of this tree equals it."""
        _, table, consts = self._interned()
        hit = consts.get(id(const))
        if hit is None or hit[0] is not const:
            ids = label_subtrees(const, table, insert=False)
            hit = consts[id(const)] = (const, None if ids is None else ids[0])
        return hit[1]

    def equal_subtrees(self, n1: int, n2: int) -> bool:
        """Exact subtree equality."""
        if n1 == n2:
            return True
        ids = self._interned()[0]
        return ids[n1] == ids[n2]

    def __eq__(self, other):
        if not isinstance(other, JsonTree):
            return NotImplemented
        # canonical construction: equal documents have identical arrays
        return self is other or (self._vals == other._vals and self._keys == other._keys
                                 and self._children == other._children)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple(self._vals))
        return h

    def __repr__(self):
        text = serialize(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"JsonTree({text})"


# An intern table maps a class key to its dense id.  The key is the value
# for a leaf, the tuple of child ids for an array, and (sorted keys, child
# ids) for an object.


def intern_class(table: dict, value: Optional[Atom] = None, keys: Optional[tuple] = None,
                 child_ids: tuple = ()) -> int:
    """Class id of one node: a leaf ``value``, or an array's ``child_ids``,
    or an object's sorted ``keys`` and ``child_ids``.  Adds a new class."""
    key = value if value is not None else child_ids if keys is None else (keys, child_ids)
    cid = table.get(key)
    if cid is None:
        cid = table[key] = len(table)
    return cid


def label_subtrees(tree: JsonTree, table: dict, insert: bool = True) -> Optional[list]:
    """Bottom-up class id of every node of ``tree`` through ``table``.

    With ``insert`` new classes are added to the table.  Without it the
    table is only read, and the result is None as soon as some subtree has
    no class in it (then neither has the root).
    """
    vals, children, keys = tree._vals, tree._children, tree._keys
    ids = [0] * len(vals)
    get = table.get
    for n in range(len(vals) - 1, -1, -1):  # pre-order ids: children after parents
        # the key of intern_class, inlined: this loop runs once per node
        key = vals[n]
        if key is None:
            cids = tuple([ids[c] for c in children[n]])
            ks = keys[n]
            key = cids if ks is None else (ks, cids)
        cid = get(key)
        if cid is None:
            if not insert:
                return None
            cid = table[key] = len(table)
        ids[n] = cid
    return ids


# -- paths ---------------------------------------------------------------------


def walk_paths(tree: JsonTree, ids: Iterable, step, finish) -> list:
    """``finish(steps)`` for each node id, ``steps`` being ``step(m, i)``
    for each edge down from the root, into the ``i``-th child (0-based) of
    ``m``.  ``finish`` must copy what it keeps of the reused list.

    The child of ``m`` above ``n`` is the last of ``m``'s children not
    after ``n``; its subtree ends where its next sibling or ``m``'s ends.
    A stack of (node, subtree end) keeps the last id's ancestors, so over
    ascending ids each edge's step is taken once."""
    children = tree._children
    stack, steps, out = [(0, len(children))], [], []
    for n in ids:
        m, end = stack[-1]
        while not m <= n < end:
            stack.pop()
            steps.pop()
            m, end = stack[-1]
        while m != n:
            ch = children[m]
            i = bisect_right(ch, n) - 1
            if i + 1 < len(ch):
                end = ch[i + 1]
            steps.append(step(m, i))
            m = ch[i]
            stack.append((m, end))
        out.append(finish(steps))
    return out


# -- construction ------------------------------------------------------------


def _model_type(v):
    """str, int, list or dict for a subclass instance; raises outside the
    model."""
    if isinstance(v, bool) or v is None:
        raise UnsupportedValue(f"value {v!r} is outside the model")
    for t in (str, int, list, dict):
        if isinstance(v, t):
            return t
    raise UnsupportedValue(f"value of type {type(v).__name__} is outside the model")


def from_python(value) -> JsonTree:
    """Build a tree from nested dict/list/str/int values.

    The model's checks on values live here: it rejects booleans, None and
    values of other types, negative integers and non-string keys, the
    first fault in pre-order; a text's duplicate keys and non-integers
    are left to the scanner's hooks.  Object key order is irrelevant;
    children are canonicalized by key and numbered in DFS pre-order.

    One loop, with a frame per open container: its id, an iterator over
    its children (values in key order for objects) and its child ids so
    far.  A str or int child is handled inside its parent's loop; a
    container child suspends the parent until its own children are done.
    """
    vals, kinds, frames, kids, keyed = [], [], [], {}, {}
    obj, arr, string, integer = NodeKind.OBJ, NodeKind.ARR, NodeKind.STR, NodeKind.INT
    nid, items, ids = -1, iter((value,)), []  # -1: the root's parent
    while True:
        for c in items:
            t = type(c)
            if t is not str and t is not int and t is not dict and t is not list:
                t = _model_type(c)
            ids.append(len(vals))
            if t is str:
                vals.append(c)
                kinds.append(string)
            elif t is int:
                if c < 0:
                    raise NonNaturalNumber(f"negative number {c}")
                vals.append(c)
                kinds.append(integer)
            else:
                frames.append((nid, items, ids))
                nid = len(vals)
                vals.append(None)
                if t is dict:
                    kinds.append(obj)
                    ks = list(c)
                    for key in ks:  # before sorting, which mixed key types break
                        if not isinstance(key, str):
                            raise UnsupportedValue(f"object key {key!r} is not a string")
                    ks.sort()
                    ks = keyed[nid] = tuple(ks)
                    items = map(c.__getitem__, ks)
                else:
                    kinds.append(arr)
                    items = iter(c)
                ids = []
                break
        else:
            if nid < 0:
                break
            kids[nid] = tuple(ids)
            nid, items, ids = frames.pop()
    children, keys = [()] * len(vals), [None] * len(vals)
    for n, ch in kids.items():
        children[n] = ch
    for n, ks in keyed.items():
        keys[n] = ks
    return JsonTree(kinds, vals, children, keys)


def to_python(tree: JsonTree, node: NodeId = ()):
    """Inverse of from_python: bottom-up over the subtree's pre-order ids,
    which run from its root to its last leaf."""
    _, vals, children, keys = tree.columns()
    root = last = tree.node_at(node)
    while children[last]:
        last = children[last][-1]
    out = {}
    for n in range(last, root - 1, -1):
        if vals[n] is not None:
            out[n] = vals[n]
        elif keys[n] is not None:
            out[n] = {key: out.pop(c) for key, c in zip(keys[n], children[n])}
        else:
            out[n] = [out.pop(c) for c in children[n]]
    return out[root]


# -- text parsing -------------------------------------------------------------


def _object_from_pairs(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DuplicateKey(key)
            seen.add(key)
    return obj


def _non_natural(text: str):
    raise NonNaturalNumber(f"number {text} is not a natural number")


_DECODER = json.JSONDecoder(object_pairs_hook=_object_from_pairs,
                            parse_float=_non_natural, parse_constant=_non_natural)
_skip_ws = json.decoder.WHITESPACE.match


def _fault(exc: ValueError) -> MalformedSyntax:
    """A ValueError of the C scanner as MalformedSyntax.  Besides
    JSONDecodeError it raises one: for an integer past the interpreter's
    int-string limit."""
    if isinstance(exc, JSONDecodeError):
        return MalformedSyntax(exc.msg, exc.pos)
    return MalformedSyntax(f"integer over the interpreter's int-string limit of "
                           f"{sys.get_int_max_str_digits()} digits")


def _scan(text: str, pos: int) -> tuple:
    """The scalar or key at ``pos`` and its end, read by the C scanner."""
    try:
        return _DECODER.scan_once(text, pos)
    except StopIteration as exc:
        raise MalformedSyntax("Expecting value", exc.value) from None
    except ValueError as exc:
        raise _fault(exc) from None


def _key(text: str, pos: int) -> tuple:
    """The object key at ``pos`` and the start of its value."""
    if text[pos:pos + 1] != '"':
        raise MalformedSyntax("Expecting property name enclosed in double quotes", pos)
    key, pos = _scan(text, pos)
    pos = _skip_ws(text, pos).end()
    if text[pos:pos + 1] != ":":
        raise MalformedSyntax("Expecting ':' delimiter", pos)
    return key, _skip_ws(text, pos + 1).end()


class _Parser:
    """The stack of open arrays and objects, for documents nested too
    deeply for the C scanner.  Every scalar and key is read by the C
    scanner's ``scan_once``, which recurses only into containers, so both
    paths accept one grammar, share the hooks and report a scalar fault
    with the same message at any depth.  Structural faults reuse the
    C scanner's messages of Python 3.10 to 3.12."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def parse_value(self):
        """One document value as nested python data, stack-based; ``pos``
        ends up just past it."""
        text, ws = self.text, _skip_ws
        pos = ws(text, self.pos).end()  # the loop starts each value past whitespace
        frames = []  # [is object, items or (key, value) pairs, pending key]
        while True:
            ch = text[pos:pos + 1]
            if ch == "[" or ch == "{":
                is_obj = ch == "{"
                pos = ws(text, pos + 1).end()
                if text.startswith("}" if is_obj else "]", pos):
                    pos += 1
                    value = {} if is_obj else []
                else:
                    frame = [is_obj, [], None]
                    frames.append(frame)
                    if is_obj:
                        frame[2], pos = _key(text, pos)
                    continue
            else:
                value, pos = _scan(text, pos)

            # a value just completed: attach it, then unwind closers
            while frames:
                frame = frames[-1]
                is_obj = frame[0]
                frame[1].append((frame[2], value) if is_obj else value)
                pos = ws(text, pos).end()
                ch = text[pos:pos + 1]
                if ch == ",":
                    pos = ws(text, pos + 1).end()
                    if is_obj:
                        frame[2], pos = _key(text, pos)
                    break
                if ch == ("}" if is_obj else "]"):
                    pos += 1
                    frames.pop()
                    value = _object_from_pairs(frame[1]) if is_obj else frame[1]
                    continue
                raise MalformedSyntax("Expecting ',' delimiter", pos)
            else:
                self.pos = pos
                return value

    def parse_document(self):
        """The whole text as one value, surrounded by whitespace only."""
        value = self.parse_value()
        end = _skip_ws(self.text, self.pos).end()
        if end != len(self.text):
            raise MalformedSyntax("Extra data", end)
        return value


def decode(text: str):
    """A complete text as nested python values, through the hooked C
    scanner or, nested past its limit, ``_Parser``'s container stack;
    documents and schemas both come in here."""
    try:
        return _DECODER.decode(text)
    except ValueError as exc:
        raise _fault(exc) from None
    except RecursionError:
        return _Parser(text).parse_document()


def parse_document(text: str) -> JsonTree:
    """Parse a complete document into a tree."""
    return from_python(decode(text))


def parse_embedded(text: str, pos: int):
    """Parse one document value starting at ``pos`` inside a larger text.

    Returns (tree, end position).  Used by the formula parsers for literals.
    """
    pos = _skip_ws(text, pos).end()
    try:
        value, end = _DECODER.raw_decode(text, pos)
    except ValueError as exc:
        raise _fault(exc) from None
    except RecursionError:
        p = _Parser(text, pos)
        value = p.parse_value()
        end = p.pos
    return from_python(value), end


def scan_string(text: str, pos: int):
    """Scan one double-quoted string literal starting at ``pos``.

    Returns (value, end position); shares escape handling with documents.
    """
    if text[pos:pos + 1] != '"':
        raise MalformedSyntax("expected a string literal", pos)
    return _scan(text, pos)


# -- serialization ------------------------------------------------------------


def serialize(tree: JsonTree, node: NodeId = ()) -> str:
    """Canonical text: object keys in lexicographic order, no whitespace."""
    root = tree.node_at(node)
    out = []
    # (node, None) emits the opener and queues parts; strings are literal
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        k = tree.kind(item)
        if k is NodeKind.INT:
            out.append(str(tree.value(item)))
        elif k is NodeKind.STR:
            out.append(json.dumps(tree.value(item), ensure_ascii=False))
        elif k is NodeKind.ARR:
            out.append("[")
            parts = ["]"]
            for i, c in enumerate(reversed(tree.children(item))):
                if i:
                    parts.append(",")
                parts.append(c)
            stack.extend(parts)
        else:
            out.append("{")
            parts = ["}"]
            pairs = list(zip(tree.keys_of(item), tree.children(item)))
            for i, (key, c) in enumerate(reversed(pairs)):
                if i:
                    parts.append(",")
                parts.append(c)
                parts.append(json.dumps(key, ensure_ascii=False) + ":")
            stack.extend(parts)
    return "".join(out)


# -- structural operations -----------------------------------------------------


def subtree(tree: JsonTree, node: NodeId) -> JsonTree:
    """The document rooted at ``node``, re-rooted as its own tree."""
    return from_python(to_python(tree, node))


def structural_equal(tree: JsonTree, n1: NodeId, n2: NodeId) -> bool:
    """Whether two subtrees are equal as documents (objects unordered)."""
    return tree.equal_subtrees(tree.node_at(n1), tree.node_at(n2))


def navigate(tree: JsonTree, instrs: Iterable) -> Optional[NodeId]:
    """Follow key/index instructions from the root.

    Strings select object keys; ints are 1-based array positions.  Returns
    the reached node's path, or None if any step fails.
    """
    n = 0
    for step in instrs:
        if isinstance(step, str):
            n = tree.obj_child(n, step)
        elif isinstance(step, int) and not isinstance(step, bool):
            if step < 1:
                raise ValueError(f"array positions are 1-based, got {step}")
            ch = tree.children(n)
            n = ch[step - 1] if tree.kind(n) is NodeKind.ARR and step <= len(ch) else None
        else:
            raise ValueError(f"bad navigation instruction {step!r}")
        if n is None:
            return None
    return tree.path_of(n)


def height(tree: JsonTree) -> int:
    """Length of the longest root-to-leaf path; a single node has height 0."""
    h = tree._height
    if h is None:
        depth = [0] * tree.size
        for n, ch in enumerate(tree._children):  # parents precede their children
            d = depth[n] + 1
            for c in ch:
                depth[c] = d
        h = tree._height = max(depth)
    return h


# -- invariants ---------------------------------------------------------------


def verify_invariants(tree: JsonTree) -> None:
    """Re-check the model conditions from the four columns; raises
    InvariantViolation.

    Ids must be DFS pre-order: a node's first child comes right after it
    and each further child where its elder sibling's subtree ends.  Then,
    bottom-up, the subtrees tile the ids, and the root's holds all of them
    exactly when every other node has exactly one parent."""
    size = tree.size
    sizes = [1] * size
    for n in range(size - 1, -1, -1):
        k, v, ch = tree.kind(n), tree.value(n), tree.children(n)
        if k is NodeKind.STR or k is NodeKind.INT:
            if ch:
                raise InvariantViolation(f"leaf-kind node {n} has children")
            if not (isinstance(v, str) if k is NodeKind.STR
                    else isinstance(v, int) and not isinstance(v, bool) and v >= 0):
                raise InvariantViolation(f"{k.value} node {n} has value {v!r}")
        elif not isinstance(k, NodeKind):
            raise InvariantViolation(f"node {n} has no kind")
        elif v is not None:
            raise InvariantViolation(f"inner node {n} carries a value")
        keys = tree.keys_of(n)
        if k is NodeKind.OBJ and (len(keys) != len(ch) or list(keys) != sorted(set(keys))):
            raise InvariantViolation(f"object node {n} has keys {keys!r} for {len(ch)} "
                                     "children: not one per child, unique and sorted")
        end = n + 1
        for c in ch:
            if c != end or c >= size:
                raise InvariantViolation(f"child {c} of node {n} is out of pre-order")
            end += sizes[c]
        sizes[n] = end - n
    if sizes[0] != size:
        raise InvariantViolation(f"the root's subtree holds {sizes[0]} of {size} nodes")
