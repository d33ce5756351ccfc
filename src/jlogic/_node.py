"""Interned immutable nodes: the base of every syntax tree and record.

A node class lists its fields in ``__slots__`` and the defaults of some in
``_defaults``; slots named with a leading underscore are caches that its
``__post_init__`` fills.  ``Cls(*fields)`` is hash-consing (Filliâtre and
Conchon, "Type-Safe Modular Hash-Consing", 2006): it returns the node one
table holds under ``(Cls, *fields)``, entering a new one if there is none,
so structurally equal nodes are one object.  Equality is identity and the
hash is the identity hash, both O(1) at any depth.  ``__post_init__`` (a
check or a cache) runs only on a new node, and a node it rejects is never
entered.  Setting or deleting an attribute raises AttributeError.  Nodes
are entered by ``dict.setdefault``: two threads get one object.

The table lives as long as the process, since dropping a node would let
an equal one be built as another object.  On the benchmark's workloads
it stops growing after one pass: at seed 29 it holds 143 nodes on
``validate``, 264 on ``query`` and 1,838 on ``reason``.

So do the caches kept on nodes, each computed from its node alone and
once per process: a regex's derivatives and matching memo, a formula's
closure nesting and symbol sets (slots), and in an instance dict a
schema document's translation (``SchemaDocument.formula``), a recursive
expression's evaluation plan and automaton (``RecursiveJslExpr.plan``
and ``.automaton``) and an automaton's recursive translation
(``JAutomaton.recursive``).  Nothing bounds them yet; a bounded table
(weak interning plus a small cache of recent roots) would bound them
with it.

``walk`` drives every walk over formulas, schemas and rules, and
``regex.deriv``'s over regexes.  A walker is a generator function of one
argument: it ``yield``s the argument of each sub-call, receives that
sub-call's result and returns its own.  The pending walkers wait on a
list, not in Python frames, and a memo maps each argument to its result
for one top-level call (or several sharing it), so each distinct interned
node is visited once however often it occurs.
Walkers over raw JSON, or whose output counts occurrences, keep no memo;
nor does ``deriv``, since each regex node memoizes its own derivatives.
"""

_TABLE = {}


class Node:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        own = [name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_"]
        cls._fields = cls._fields + tuple(own)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._check = getattr(cls, "__post_init__", None)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            for put, value in zip(cls._setters, args):
                put(node, value)
            if cls._check is not None:
                node.__post_init__()
            node = _TABLE.setdefault(key, node)
        return node

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """One value per field, from positional and keyword arguments."""
        try:
            values = args + tuple(kwargs.pop(name) if name in kwargs else cls._defaults[name]
                                  for name in cls._fields[len(args):])
        except KeyError as missing:
            raise TypeError(f"{cls.__name__}() missing argument {missing}") from None
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"bad arguments to {cls.__name__}: {args!r}, {kwargs!r}")
        return values

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def walk(visit, arg, memo=None):
    """``visit(arg)``'s result; ``memo`` is a dict of results by argument
    (a fresh one by default) or False to keep none."""
    if memo is None:
        memo = {}
    elif memo is not False and arg in memo:
        return memo[arg]
    gens, args, result = [visit(arg)], [arg], None
    while gens:
        try:
            sub = gens[-1].send(result)
        except StopIteration as done:
            gens.pop()
            key, result = args.pop(), done.value
            if memo is not False:
                memo[key] = result
            continue
        if memo is not False and sub in memo:
            result = memo[sub]
        else:
            gens.append(visit(sub))
            args.append(sub)
            result = None
    return result


def each(args):
    """``results = yield from each(args)``: a sub-call on each argument."""
    results = []
    for arg in args:
        results.append((yield arg))
    return results
