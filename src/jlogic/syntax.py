"""Concrete syntax: one lexer, one precedence-climbing parser (Pratt, "Top
Down Operator Precedence", POPL 1973) and one printer, all driven by a
logic's syntax table.

A syntax maps the name of each sort of expression to its table, and a
table maps a token to its entry.  ``prec`` is a binding strength, higher
binding tighter:

* ``(CONST, node)``: the token stands for the node.
* ``(ATOM, classes, arg, wrap)``: the token, then its argument; the node is
  wrapped in the class ``wrap`` unless that is None, which prints as the
  node it wraps.
* ``(PREFIX, classes, arg, prec)``: the token, its argument if ``arg`` is
  not None, then an operand binding tighter than ``prec``.
* ``(GROUP, classes, form)``: the token, then ``form``: literals between
  slots, ``(opener, slot, closer)`` or ``(opener, slot, sep, slot,
  closer)``.  A slot is a sort (None: this one), or ``(sort, arg)``: the
  argument instead of an expression of the sort where no expression of it
  starts, making the node of ``classes[1]``.  With no classes the node is
  the slot's own: parentheses.  A literal prints as written and is read
  without its blanks.
* ``(INFIX, cls, prec, text)``: ``lhs token rhs``, left-associative.  It
  prints as its flat chain of operands joined by ``text``.
* ``(POSTFIX, cls, prec, build)``: ``operand token``, binding tightest and
  built by ``build``.  It prints with its operand at ``prec``.
* ``(END, noun, where)``, under the key "" (the end of the text), names
  the sort in error messages.

The key None holds the entry of every other name, and a name that maps
to None is reserved.  An argument ``arg`` is a pair of functions:
``read(text, pos, token)`` returns ``(i, args, end)`` and the node is
``classes[i](*args)`` (with the operand last after a prefix);
``write(token, i, args)`` returns the text of all but the operand, or a
node that prints in its place.

A node prints in parentheses where its precedence is below the one it is
printed at: an infix node's is its ``prec``, every other node's is 2.
"""

from __future__ import annotations

import re

from .errors import MalformedFormula

# entry roles; the roles up to GROUP start an operand
CONST, ATOM, PREFIX, GROUP, INFIX, POSTFIX, END, UNWRAP = 0, 1, 2, 3, 4, 5, 6, 7

# blanks, then a name, '&&', '||' or one character; "" at the end
_TOKEN = re.compile(r"[ \t\n\r]*(\w+|&&|\|\||.|)", re.S)
_DIGITS = re.compile(r"[ \t\n\r]*([0-9]*)")
_RULES = {}  # id(syntax) -> (syntax, the printing rule of each class and constant)


def fail(message: str, pos: int) -> MalformedFormula:
    return MalformedFormula(f"{message} (at offset {pos})")


def token(text: str, pos: int):
    """The next token after blanks: the token, its offset and its end."""
    m = _TOKEN.match(text, pos)
    return m[1], m.start(1), m.end()


def is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def eat(text: str, pos: int, literal: str) -> int:
    """The end of ``literal`` after blanks, which must be there."""
    m = _TOKEN.match(text, pos)
    if not text.startswith(literal, m.start(1)):
        raise fail(f"expected {literal!r}", m.start(1))
    return m.start(1) + len(literal)


def number(text: str, pos: int):
    """A natural number in decimal digits and its end."""
    m = _DIGITS.match(text, pos)
    if not m[1]:
        raise fail("expected a number", m.start(1))
    try:
        return int(m[1]), m.end()
    except ValueError:
        raise fail(f"number of {len(m[1])} digits is over the interpreter's "
                   "int-string limit", m.end()) from None


def interval(text: str, pos: int):
    """``i``, ``i:j`` or ``i:*`` (1-based): ``i``, then ``()`` with no colon
    or ``(j,)`` (None for ``*``), then the end."""
    lo, pos = number(text, pos)
    if lo < 1:
        raise fail("array positions are 1-based", pos)
    tok, _, end = token(text, pos)
    if tok != ":":
        return lo, (), pos
    tok, _, star = token(text, end)
    if tok == "*":
        return lo, (None,), star
    hi, pos = number(text, end)
    if hi < lo:
        raise fail(f"empty position range {lo}:{hi}", pos)
    return lo, (hi,), pos


def call(read, write):
    """The argument ``(value)`` of a keyword: ``read(text, pos)`` returns the
    value and its end, ``write(value)`` its text."""
    def read_call(text, pos, tok):
        value, pos = read(text, eat(text, pos, "("))
        return 0, (value,), eat(text, pos, ")")
    return read_call, lambda tok, i, args: f"{tok}({write(args[0])})"


def parse(syntax: dict, sort: str, text: str, pos: int = 0):
    """The expression of ``sort`` at ``pos``, up to the first token that
    continues nothing open: the node and the offset of that token.  Open
    operators and groups wait on a stack, not in Python frames."""
    match = _TOKEN.match
    # stack: (table, floor, build, args, j) of each open construct, an
    # operator awaiting its operand (build: its class, j: None) or a group
    # reading its slot j (build: its entry); floor: the least precedence
    # of an infix operator that continues the innermost one
    table, floor, stack = syntax[sort], 0, []
    while True:
        m = match(text, pos)
        tok, pos = m[1], m.end()
        entry = table.get(tok)
        if entry is None and tok not in table and is_name(tok):
            entry = table.get(None)
        if entry is None or entry[0] > GROUP:
            raise _unexpected(table, tok, m.start(1))
        role = entry[0]
        if role == CONST:
            node = entry[1]
        elif role == ATOM:
            i, args, pos = entry[2][0](text, pos, tok)
            node = entry[1][i](*args)
            if entry[3] is not None:
                node = entry[3](node)
        elif role == PREFIX:
            i, args, pos = (0, (), pos) if entry[2] is None else entry[2][0](text, pos, tok)
            stack.append((table, floor, entry[1][i], args, None))
            floor = entry[3] + 1
            continue
        else:
            form = entry[2]
            if form[0]:
                pos = eat(text, pos, form[0])
            stack.append((table, floor, entry, (), 1))
            table, floor = syntax[form[1]] if form[1] else table, 0
            continue
        m = match(text, pos)
        while True:  # the operators after an operand, and the ends of open constructs
            tok = m[1]
            entry = table.get(tok)
            if entry is not None and entry[0] == POSTFIX:
                node = entry[3](node)
                m = match(text, m.end())
                continue
            if entry is not None and entry[0] == INFIX and entry[2] >= floor:
                stack.append((table, floor, entry[1], (node,), None))
                floor, pos = entry[2] + 1, m.end()
                break
            if not stack:
                return node, m.start(1)
            table, floor, build, args, j = stack.pop()
            if j is None:
                node = build(*args, node)
                continue
            form = build[2]  # a group, whose slot j has ended
            closer = form[j + 1].strip()
            if tok != closer:
                raise fail(f"expected {closer!r}", m.start(1))
            pos, args = m.end(), args + (node,)
            if j + 2 == len(form):
                node = build[1][0](*args) if build[1] else node
            else:
                slot = form[j + 2]
                if slot.__class__ is tuple:
                    slot, arg = slot
                    m = match(text, pos)
                    first = syntax[slot].get(m[1])
                    if first is None or first[0] > GROUP:
                        _, value, pos = arg[0](text, pos, m[1])
                        node = build[1][1](*args, *value)
                        m = match(text, eat(text, pos, form[j + 3].strip()))
                        continue
                stack.append((table, floor, build, args, j + 2))
                table, floor = syntax[slot] if slot else table, 0
                break
            m = match(text, pos)


def _unexpected(table: dict, tok: str, at: int) -> MalformedFormula:
    _, noun, where = table[""]
    return fail(f"unexpected {tok[0]!r}{where}" if tok else f"unexpected end of {noun}", at)


def operands(phi) -> list:
    """The operands of ``phi``'s flat chain of one connective (any node
    with ``.lhs`` and ``.rhs``), left to right."""
    out = [phi.rhs]
    while type(phi.lhs) is type(phi):
        phi = phi.lhs
        out.append(phi.rhs)
    return [phi.lhs] + out[::-1]


def to_text(syntax: dict, node) -> str:
    """``node`` in the text ``parse`` reads, with the parentheses that the
    precedences need; pending parts wait on a stack, not in Python frames."""
    rules = _RULES[id(syntax)][1] if id(syntax) in _RULES else _index(syntax)
    out, todo = [], [(node, 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, prec = item
        rule = rules.get(node) or rules.get(node.__class__)
        if rule is None:
            raise TypeError(f"no concrete syntax for {node!r}")
        tok, entry, i = rule
        role = entry[0]
        args = [getattr(node, name) for name in node._fields]
        if role == ATOM:
            tok = entry[2][1](tok, i, args)
            if tok.__class__ is not str:  # a node that prints in its place
                todo.append((tok, prec))
                continue
        elif role == UNWRAP:
            todo.append((args[0], prec))
            continue
        if prec > (entry[2] if role == INFIX else 2):
            out.append("(")
            todo.append(")")
        if role <= ATOM:
            out.append(tok)
        elif role == PREFIX:
            out.append(tok if entry[2] is None else entry[2][1](tok, i, args[:-1]))
            todo.append((args[-1], entry[3]))
        elif role == GROUP:
            form = entry[2]
            out.append(tok + form[0])
            for k in range(len(args) - 1, -1, -1):
                slot = form[2 * k + 1]
                fixed = i and slot.__class__ is tuple  # the argument in place of a slot
                todo += (form[2 * k + 2], slot[1][1](None, 0, args[k:k + 1]) if fixed else (args[k], 0))
        elif role == INFIX:
            kids = args[0] if node._fields == ("parts",) else operands(node)
            for kid in kids[:0:-1]:
                todo += ((kid, entry[2]), entry[3])
            todo.append((kids[0], entry[2]))
        else:
            todo += (tok, (args[0], entry[2]))
    return "".join(out)


def _index(syntax: dict) -> dict:
    rules = {}
    for table in syntax.values():
        for tok, entry in table.items():
            if entry is None or entry[0] == END:
                continue
            if entry[0] == CONST or entry[0] >= INFIX:
                rules[entry[1]] = tok, entry, 0
            else:
                for i, cls in enumerate(entry[1]):
                    rules[cls] = tok, entry, i
                if entry[0] == ATOM and entry[3] is not None:
                    rules[entry[3]] = None, (UNWRAP,), 0
    _RULES[id(syntax)] = syntax, rules  # holding the syntax keeps its id unique
    return rules
