"""Regular expressions over unicode used as key and string patterns.

Matching is anchored: ``matches(e, w)`` asks whether the whole word is in
the language.  The engine is derivative-based: each node caches whether
it accepts the empty word and memoizes its derivative per character.  The
alphabet splits into intervals (the character ranges an expression set
distinguishes, plus everything else) whose characters share a derivative,
which keeps complement and intersection exact and bounds the work.
``matches`` and ``word_filter`` walk the memos from the pattern and step
by a character's interval where no memo holds it, raising StateBlowup
past ``DEFAULT_STATE_CAP`` distinct derivatives per pattern.  Complement
is a node too (``compl``): its derivative is the complement of its body's,
so it is never determinized up front.  Emptiness, word enumeration and
printing read a pattern's automaton off the same memos, under the same
cap.  Expressions are interned (``_node``): equal ones are one object, so
they compare and hash in O(1).

Dialect: literals, ``.`` (any char), ``|``, juxtaposition, ``*``, ``+``,
``( )``, ``[a-z]`` and ``[^a-z]`` classes, backslash escapes for
metacharacters.  ``/`` must be escaped because formulas delimit regexes
with slashes.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Iterable, Optional

from ._node import Node, walk
from . import syntax
from .errors import MalformedRegex, StateBlowup
from .syntax import ATOM, CONST, GROUP, INFIX, POSTFIX

MAX_CODEPOINT = 0x10FFFF
# The most distinct derivatives matching one pattern takes, or a pattern's
# automaton (emptiness, word enumeration, printing a complement) has as
# states; read at each call.
DEFAULT_STATE_CAP = 10_000
# Printing a complement eliminates the states of its automaton one by one, and
# the expression can grow exponentially in their number, so the elimination
# stops past this many regex nodes built, about 0.2 s of work.  A key class
# of ordinary property names builds about 75 nodes a name (100 names: 277
# states, 7,341 nodes); the complement of (a|b)*a(a|b)(a|b)(a|b)(a|b) builds
# 656,125 nodes and prints as 0.5 MB.
PRINT_SIZE_CAP = 200_000

_META = set("\\.|*+()[]/^")
_CLASS_META = "]\\^-"
_KEY = attrgetter("_key")


class Regex(Node):
    """Base class of the expression AST.  A new node caches the structural
    key ``alt`` sorts by and whether it accepts the empty word, both built
    from its children's, and its derivatives; a matched pattern also keeps
    its interval starts and the derivatives its matching took."""

    __slots__ = ("_key", "_nullable", "_derivs", "_matching")

    def __post_init__(self):
        object.__setattr__(self, "_key", _sort_key(self))
        object.__setattr__(self, "_nullable", nullable(self))
        object.__setattr__(self, "_derivs", {})  # character -> derivative
        object.__setattr__(self, "_matching", None)  # (starts, derivatives taken)

    def __repr__(self):
        return f"/{to_text(self)}/"


class Empty(Regex):
    """The empty language."""
    __slots__ = ()


class Epsilon(Regex):
    """Only the empty word."""
    __slots__ = ()


class Lit(Regex):
    __slots__ = ("char",)


class AnyChar(Regex):
    __slots__ = ()


class Cls(Regex):
    """Character class: sorted disjoint (lo, hi) codepoint ranges."""
    __slots__ = ("ranges", "negated")
    _defaults = {"negated": False}


class Concat(Regex):
    __slots__ = ("parts",)


class Union(Regex):
    __slots__ = ("parts",)


class Star(Regex):
    __slots__ = ("body",)


class Plus(Regex):
    __slots__ = ("body",)


class Compl(Regex):
    """The words ``body`` does not match.  Derivatives take it lazily,
    state by state, so a complement is never determinized up front."""
    __slots__ = ("body",)


def _sort_key(r: Regex):
    """Structural sort key of a new node; its children already carry theirs."""
    if isinstance(r, Empty):
        return (0,)
    if isinstance(r, Epsilon):
        return (1,)
    if isinstance(r, Lit):
        return (2, r.char)
    if isinstance(r, AnyChar):
        return (3,)
    if isinstance(r, Cls):
        return (4, r.negated, r.ranges)
    if isinstance(r, Concat):
        return (5,) + tuple(p._key for p in r.parts)
    if isinstance(r, Union):
        return (6,) + tuple(p._key for p in r.parts)
    if isinstance(r, Star):
        return (7, r.body._key)
    if isinstance(r, Plus):
        return (8, r.body._key)
    return (9, r.body._key)


def nullable(r: Regex) -> bool:
    """Whether r accepts the empty word, read off its children's flags."""
    if isinstance(r, (Epsilon, Star)):
        return True
    if isinstance(r, Concat):
        return all(p._nullable for p in r.parts)
    if isinstance(r, Union):
        return any(p._nullable for p in r.parts)
    if isinstance(r, Plus):
        return r.body._nullable
    if isinstance(r, Compl):
        return not r.body._nullable
    return False


EMPTY = Empty()
EPSILON = Epsilon()
SIGMA_STAR = Star(AnyChar())


# -- smart constructors (ACI-normalising, keeps derivative sets finite) -------


def cat(parts: Iterable[Regex]) -> Regex:
    flat = []
    for p in parts:
        if isinstance(p, Empty):
            return EMPTY
        if isinstance(p, Epsilon):
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(parts: Iterable[Regex]) -> Regex:
    flat = []
    for p in parts:
        if isinstance(p, Empty):
            continue
        if isinstance(p, Union):
            flat.extend(p.parts)
        else:
            flat.append(p)
    uniq = sorted(set(flat), key=_KEY)
    if not uniq:
        return EMPTY
    if len(uniq) == 1:
        return uniq[0]
    return Union(tuple(uniq))


def star(body: Regex) -> Regex:
    if isinstance(body, (Empty, Epsilon)):
        return EPSILON
    if isinstance(body, Star):
        return body
    return Star(body)


def compl(body: Regex) -> Regex:
    if isinstance(body, Compl):
        return body.body
    return Compl(body)


def word_regex(word: str) -> Regex:
    """The singleton language {word}."""
    return cat(Lit(c) for c in word)


def literal_word(r: Regex) -> Optional[str]:
    """If r denotes exactly one word built from literals, that word."""
    if isinstance(r, Epsilon):
        return ""
    if isinstance(r, Lit):
        return r.char
    if isinstance(r, Concat) and all(isinstance(p, Lit) for p in r.parts):
        return "".join(p.char for p in r.parts)
    return None


# -- concrete syntax -------------------------------------------------------------


def parse_regex(text: str) -> Regex:
    """The expression ``text`` spells, read by one loop over ``SYNTAX`` that
    keeps the groups open around it on a stack."""
    table = SYNTAX["regex"]
    groups, branches, parts = [], [], []
    pos, end = 0, len(text)
    while pos < end:
        ch = text[pos]
        pos += 1
        entry = table.get(ch)
        if ch == ")":
            if not groups:
                raise MalformedRegex(f"unexpected ')' at {pos - 1}")
            r = alt(branches + [cat(parts)]) if branches else cat(parts)
            branches, parts = groups.pop()
        elif entry is None:  # a character with no entry stands for itself
            r = Lit(ch)
        elif entry[0] == GROUP:
            groups.append((branches, parts))
            branches, parts = [], []
            continue
        elif entry[0] == INFIX:
            branches.append(cat(parts))
            parts = []
            continue
        elif entry[0] == CONST:
            r = entry[1]
        elif entry[0] == ATOM:
            i, args, pos = entry[2][0](text, pos, ch)
            r = entry[1][i](*args)
        else:
            raise MalformedRegex(f"unexpected {ch!r} at {pos - 1}")
        while pos < end and (op := table.get(text[pos])) is not None and op[0] == POSTFIX:
            r = op[3](r)
            pos += 1
        parts.append(r)
    if groups:
        raise MalformedRegex("missing ')'")
    return alt(branches + [cat(parts)]) if branches else cat(parts)


def _read_escape(text, pos, ch):
    if pos >= len(text):
        raise MalformedRegex("dangling backslash")
    return 0, (_ESCAPED.get(text[pos], text[pos]),), pos + 1


def _read_class(text, pos, ch):  # [...] or [^...]: a Cls, or [] and [^]
    negated = text[pos:pos + 1] == "^"
    pos += negated
    items = []
    while True:
        if pos >= len(text):
            raise MalformedRegex("unterminated character class")
        if text[pos] == "]":
            break
        lo, pos = _class_char(text, pos)
        hi = lo
        if text[pos:pos + 1] == "-" and text[pos + 1:pos + 2] not in ("]", ""):
            hi, pos = _class_char(text, pos + 1)
            if ord(hi) < ord(lo):
                raise MalformedRegex(f"inverted range {lo}-{hi}")
        items.append((ord(lo), ord(hi)))
    if not items:
        return 2 if negated else 1, (), pos + 1
    return 0, (_merge_ranges(items), negated), pos + 1


def _class_char(text, pos):
    if text[pos] != "\\":
        return text[pos], pos + 1
    _, (ch,), pos = _read_escape(text, pos + 1, "\\")
    return ch, pos


def _write_class(tok, i, args) -> str:
    ranges, negated = args if i == 0 else ((), i == 2)
    body = "".join(_escape(chr(lo), _CLASS_META) if lo == hi else
                   _escape(chr(lo), _CLASS_META) + "-" + _escape(chr(hi), _CLASS_META)
                   for lo, hi in ranges)
    return ("[^" if negated else "[") + body + "]"


def _escape(ch: str, meta: str = _META) -> str:
    return "\\" + ch if ch in meta else _ESCAPES.get(ch, ch)


def _merge_ranges(items) -> tuple:
    items = sorted(items)
    merged = [list(items[0])]
    for lo, hi in items[1:]:
        if lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


_ESCAPED = {"n": "\n", "t": "\t", "r": "\r"}  # the character \n, \t or \r stands for
_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r"}
SYNTAX = {"regex": {
    "|": (INFIX, Union, 0, "|"),
    "": (INFIX, Concat, 1, ""),  # juxtaposition
    "*": (POSTFIX, Star, 2, star),
    "+": (POSTFIX, Plus, 2, Plus),
    "(": (GROUP, (), ("", None, ")")),
    ".": (CONST, AnyChar()),
    "()": (CONST, EPSILON),  # printing only: an empty group reads as cat([])
    "[": (ATOM, (Cls, Empty, AnyChar), (_read_class, _write_class), None),
    "\\": (ATOM, (Lit,), (_read_escape, lambda tok, i, args: _escape(args[0])), None),
    # no token: the dialect has no complement, which prints as its automaton's expression
    None: (ATOM, (Compl,), (None, lambda tok, i, args: dfa_to_regex(Compl(*args))), None),
}}


def to_text(r: Regex) -> str:
    """Concrete syntax for ``r``; ``parse_regex`` inverts it.  The dialect
    has no complement: a ``Compl`` prints as the plain expression of its
    automaton, which raises StateBlowup past ``DEFAULT_STATE_CAP`` states
    or ``PRINT_SIZE_CAP`` regex nodes."""
    return syntax.to_text(SYNTAX, r)


# -- derivatives --------------------------------------------------------------


def deriv(r: Regex, ch: str) -> Regex:
    """Brzozowski derivative of r by one character, memoized on the node.
    It runs on ``walk``'s stack with no memo of its own: the nodes' are,
    and a node yields only the children whose memo lacks ``ch``."""
    return r._derivs.get(ch) or walk(lambda node: _deriv(node, ch), r, memo=False)


def _deriv(r: Regex, ch: str):
    if isinstance(r, (Empty, Epsilon)):
        d = EMPTY
    elif isinstance(r, Lit):
        d = EPSILON if r.char == ch else EMPTY
    elif isinstance(r, AnyChar):
        d = EPSILON
    elif isinstance(r, Cls):
        cp = ord(ch)
        d = EPSILON if any(lo <= cp <= hi for lo, hi in r.ranges) != r.negated else EMPTY
    elif isinstance(r, Concat):
        first, rest = r.parts[0], cat(r.parts[1:])
        d = cat([first._derivs.get(ch) or (yield first), rest])
        if first._nullable:
            d = alt([d, rest._derivs.get(ch) or (yield rest)])
    elif isinstance(r, Union):
        parts = []
        for p in r.parts:
            parts.append(p._derivs.get(ch) or (yield p))
        d = alt(parts)
    elif isinstance(r, Star):
        d = cat([r.body._derivs.get(ch) or (yield r.body), r])
    elif isinstance(r, Plus):
        d = cat([r.body._derivs.get(ch) or (yield r.body), star(r.body)])
    elif isinstance(r, Compl):
        d = compl(r.body._derivs.get(ch) or (yield r.body))
    else:
        raise TypeError(f"not a regex: {r!r}")
    r._derivs[ch] = d
    return d


# -- alphabet partition --------------------------------------------------------


def _boundaries(rs: Iterable[Regex]) -> list:
    """Interval start points partitioning the alphabet for these expressions."""
    points = {0}
    stack = list(rs)
    while stack:
        r = stack.pop()
        if isinstance(r, Lit):
            cp = ord(r.char)
            points.add(cp)
            if cp + 1 <= MAX_CODEPOINT:
                points.add(cp + 1)
        elif isinstance(r, Cls):
            for lo, hi in r.ranges:
                points.add(lo)
                if hi + 1 <= MAX_CODEPOINT:
                    points.add(hi + 1)
        elif isinstance(r, (Concat, Union)):
            stack.extend(r.parts)
        elif isinstance(r, (Star, Plus, Compl)):
            stack.append(r.body)
    return sorted(points)


def matches(r: Regex, word: str) -> bool:
    """Whole-word membership of ``word`` in the language of ``r``.  A
    character no memo holds steps by its interval's first; each derivative
    taken counts against ``r``'s cap (racing threads may lose a unit)."""
    state = r
    for ch in word:
        d = state._derivs.get(ch)
        if d is None:
            if r._matching is None:
                object.__setattr__(r, "_matching", (_boundaries([r]), set()))
            starts, reached = r._matching
            rep = chr(starts[bisect_right(starts, ord(ch)) - 1])
            d = state._derivs.get(rep)
            if d is None:
                d = deriv(state, rep)
                reached.add(d)
                if len(reached) > DEFAULT_STATE_CAP:
                    raise StateBlowup(f"matching exceeded {DEFAULT_STATE_CAP} derivatives")
        state = d
    return state._nullable


_match = matches  # for word_filter, which a patched ``matches`` must not reach


class _WordMemo(dict):
    """word -> bool, filled by a walk from the pattern on a miss."""

    __slots__ = ("pattern",)

    def __missing__(self, word: str) -> bool:
        hit = self[word] = _match(self.pattern, word)
        return hit


def word_filter(r: Regex):
    """``matches(r, ·)`` as a callable with its own word -> bool memo.  For
    evaluators that test many words against one pattern within one call;
    the memo lives as long as the callable.  A word seen before costs one
    dictionary lookup and no Python frame."""
    memo = _WordMemo()
    memo.pattern = r
    return memo.__getitem__


# -- automata read off the derivatives -----------------------------------------


def _automaton(r: Regex):
    """``(starts, states, rows)``, the complete DFA of ``r``: interval j
    of the alphabet runs from ``starts[j]`` up to the next start; the
    states are the derivatives reached from ``r`` (state 0) by each
    interval's first character, breadth first; ``rows[i][j]`` indexes
    state i's derivative by interval j.  A state accepts if nullable."""
    starts = _boundaries([r])
    reps = [chr(cp) for cp in starts]
    index = {r: 0}
    states = [r]
    rows = []
    for d in states:  # grows as new derivatives turn up
        row = []
        for ch in reps:
            nxt = deriv(d, ch)
            idx = index.get(nxt)
            if idx is None:
                idx = len(states)
                if idx >= DEFAULT_STATE_CAP:
                    raise StateBlowup(f"DFA construction exceeded {DEFAULT_STATE_CAP} states")
                index[nxt] = idx
                states.append(nxt)
            row.append(idx)
        rows.append(row)
    return starts, states, rows


def is_empty(r: Regex) -> bool:
    """Whether L(r) is empty: no derivative of ``r`` accepts the empty word."""
    return not any(d._nullable for d in _automaton(r)[1])


def enumerate_words(r: Regex, max_len: int, max_count: int) -> list:
    """Up to ``max_count`` distinct words of L(r) with length <= max_len,
    shortest first.  Words use the smallest character of each interval."""
    if max_count <= 0 or max_len < 0:
        return []
    starts, states, rows = _automaton(r)
    dist = _distance_to_accepting(states, rows)
    if dist[0] > max_len:
        return []
    reps = [chr(cp) for cp in starts]
    out = []
    frontier = [("", 0)]
    if r._nullable:
        out.append("")
    for _ in range(max_len):
        if len(out) >= max_count or not frontier:
            break
        nxt_frontier = []
        for word, state in frontier:
            for interval, target in enumerate(rows[state]):
                if dist[target] > max_len - len(word) - 1:
                    continue
                grown = word + reps[interval]
                nxt_frontier.append((grown, target))
                if states[target]._nullable:
                    out.append(grown)
        frontier = nxt_frontier
    return out[:max_count]


def _distance_to_accepting(states, rows) -> list:
    """Per state, the fewest characters that lead it to an accepting one."""
    inf = float("inf")
    dist = [0 if d._nullable else inf for d in states]
    back = [set() for _ in states]
    for s, row in enumerate(rows):
        for t in row:
            back[t].add(s)
    frontier = [s for s, d in enumerate(dist) if d == 0]
    for t in frontier:  # breadth first, growing as states are reached
        for s in back[t]:
            if dist[s] == inf:
                dist[s] = dist[t] + 1
                frontier.append(s)
    return dist


# -- an automaton back to an expression ----------------------------------------


def dfa_to_regex(r: Regex) -> Regex:
    """An expression without complement for L(r), by eliminating the states
    of ``r``'s automaton; used to print a complement in the plain dialect.

    An edge keeps its alternatives in a list, with the node count of each,
    and joins them only when its source or target is eliminated.  Raises
    StateBlowup once the alternatives built count more than
    ``PRINT_SIZE_CAP`` nodes in all, which bounds the time it takes."""
    starts, states, rows = _automaton(r)
    n = len(states)
    init, fin = n, n + 1
    out = [{} for _ in range(n + 2)]  # out[p][q]: [(alternative, nodes)]
    into = [set() for _ in range(n + 2)]
    built = 0

    def connect(p, q, r, nodes):
        nonlocal built
        built += nodes
        if built > PRINT_SIZE_CAP:
            raise StateBlowup(f"printing a complement exceeded {PRINT_SIZE_CAP} regex nodes")
        out[p].setdefault(q, []).append((r, nodes))
        into[q].add(p)

    def join(alternatives):
        return (alt(r for r, _ in alternatives),
                sum(nodes for _, nodes in alternatives))

    for s, row in enumerate(rows):
        by_target = {}
        for interval, t in enumerate(row):
            by_target.setdefault(t, []).append(interval)
        for t, intervals in by_target.items():
            connect(s, t, _intervals_to_regex(intervals, starts), 1)
    connect(init, 0, EPSILON, 1)
    for s, d in enumerate(states):
        if d._nullable:
            connect(s, fin, EPSILON, 1)

    for s in range(n):
        into[s].discard(s)
        loop, loop_nodes = join(out[s].pop(s, ()))
        loop_star = star(loop)
        outgoing = [(q, *join(alternatives)) for q, alternatives in out[s].items()]
        incoming = [(p, *join(out[p].pop(s))) for p in into[s]]
        for q, _, _ in outgoing:
            into[q].discard(s)
        out[s], into[s] = {}, set()
        for p, rin, in_nodes in incoming:
            for q, rout, out_nodes in outgoing:
                connect(p, q, cat([rin, loop_star, rout]),
                        in_nodes + loop_nodes + out_nodes)
    return join(out[init].get(fin, ()))[0]


def _intervals_to_regex(intervals, starts) -> Regex:
    ranges = []
    for i in sorted(intervals):
        lo = starts[i]
        hi = (starts[i + 1] - 1) if i + 1 < len(starts) else MAX_CODEPOINT
        ranges.append((lo, hi))
    ranges = _merge_ranges(ranges)
    if ranges == ((0, MAX_CODEPOINT),):
        return AnyChar()
    complement = []
    prev = 0
    for lo, hi in ranges:
        if lo > prev:
            complement.append((prev, lo - 1))
        prev = hi + 1
    if prev <= MAX_CODEPOINT:
        complement.append((prev, MAX_CODEPOINT))
    if len(complement) < len(ranges):
        return Cls(tuple(complement), negated=True)
    if len(ranges) == 1 and ranges[0][0] == ranges[0][1]:
        return Lit(chr(ranges[0][0]))
    return Cls(ranges, negated=False)
