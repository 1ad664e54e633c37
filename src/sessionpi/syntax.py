"""Abstract syntax for processes and session types, plus the binding toolkit.

Types describe one end of a channel (an endpoint type) or both ends at once
(a channel pair type ``<S1, S2>``).  Endpoint behaviours are pre-types
(receive, send, end) qualified as ``lin`` (used by exactly one thread) or
``un`` (freely shareable); recursion is written ``rec a. S``.

Processes are the synchronous unary pi calculus: output ``x!y.P``, input
``x?(y).P``, parallel composition, annotated restriction ``new x: T. P``,
replication ``!P`` and inaction ``0``.

All nodes are immutable; every operation here is a pure function.  Type
nodes are interned (hash-consed): structurally equal types are one object,
so ``==`` on types is ``is`` and hashing one takes constant time; the other
layers keep the facts of interned nodes with ``_memoized``.  Equality of
infinite unfoldings is ``equality.type_equal``.  Process nodes are slotted
records, built afresh and compared structurally; each class lists its
fields once, in ``__match_args__``, which printing, copying and
``_replace`` read.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union


class Qual(enum.Enum):
    LIN = "lin"
    UN = "un"

    # Members are singletons, so identity hashing agrees with ``==`` and
    # spares interning keys the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

# Every type node and context entry ever built, keyed by its class and fields.
_NODES: dict[tuple, "_Interned"] = {}


class _Interned:
    """Base of the type nodes and of the context entries: they are hash-consed.

    Construction looks the node up by ``(class, fields)``.  The fields are
    interned already, so the key hashes in constant time, and a structurally
    equal node built earlier is returned instead of a new one.  Equality is
    therefore identity, and ``hash`` is identity-based (neither recurses, so
    types of any depth can be set members and dict keys).  Copying and
    pickling go back through the constructor.  A node prints through
    ``render``, which reads the pieces each class lists in ``_pieces``, and
    its ``repr``, ``Cls(field=...)`` over the fields of ``__match_args__``,
    is written by the same walk, so neither recurses.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return _spell(self, _repr_pieces)

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            # A node is published only once complete, and only the first
            # one published for a key is ever returned.
            node = _NODES.setdefault(key, node)
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# ``eq=False`` keeps the identity ``==``/``hash`` of ``object``; ``init=False``
# leaves construction to ``_Interned.__new__``; ``repr=False`` keeps its
# ``__repr__``.
_interned_node = dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)


def _memoized(fn: Callable) -> Callable:
    """``fn`` keeping each answer, ``None`` included, in a grow-only table
    keyed by its arguments: a memo function (Michie, Nature 218, 1968).

    Interned arguments hash in constant time, so a fact of types or entries
    is computed once per distinct argument tuple.  A call that raises keeps
    nothing, and the next one raises again.  The result is a plain function
    under ``fn``'s module and name, so code that finds functions by name,
    such as a tracer, sees it as ``fn``.
    """
    table: dict[tuple, object] = {}

    @functools.wraps(fn)
    def memo(*args):
        try:
            return table[args]
        except KeyError:
            pass
        answer = table[args] = fn(*args)
        return answer

    return memo


@_interned_node
class Recv(_Interned):
    """Pre-type ``?(T).S``: receive a name of type ``payload``, go on as ``cont``."""

    payload: "Type"
    cont: "Endpoint"

    def _pieces(self) -> tuple:
        return "?(", self.payload, ").", self.cont


@_interned_node
class Send(_Interned):
    """Pre-type ``!(T).S``: send a name of type ``payload``, go on as ``cont``."""

    payload: "Type"
    cont: "Endpoint"

    def _pieces(self) -> tuple:
        return "!(", self.payload, ").", self.cont


@_interned_node
class End(_Interned):
    """Pre-type ``end``: no further interaction on this endpoint."""

    def _pieces(self) -> tuple:
        return ("end",)


PreType = Union[Recv, Send, End]


@_interned_node
class Qualified(_Interned):
    """Endpoint type ``q p``: a pre-type under a lin/un qualifier."""

    qual: Qual
    pre: PreType

    def _pieces(self) -> tuple:
        return self.qual.value, " ", self.pre


@_interned_node
class TypeVar(_Interned):
    name: str

    def _pieces(self) -> tuple:
        return (self.name,)


@_interned_node
class Rec(_Interned):
    """Recursive endpoint type ``rec a. S``; must be contractive."""

    var: str
    body: "Endpoint"

    def _pieces(self) -> tuple:
        return "rec ", self.var, ". ", self.body


Endpoint = Union[Qualified, TypeVar, Rec]


@_interned_node
class ChanType(_Interned):
    """Channel pair type ``<S1, S2>``: the two ends of one channel, its
    ``slots``.  As a context entry, either end may be ``◦`` (``contexts.VOID``)."""

    left: Endpoint
    right: Endpoint

    @property
    def slots(self) -> tuple:
        return (self.left, self.right)

    def _pieces(self) -> tuple:
        return "<", self.left, ", ", self.right, ">"


Type = Union[Endpoint, ChanType]

UN_END = Qualified(Qual.UN, End())


def is_endpoint(t: Type) -> bool:
    return not isinstance(t, ChanType)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class _Node:
    """Base of the process nodes: slotted records that print in concrete
    syntax, and own their hash and free names, which ``_fill`` sets on first
    use rather than at construction.  ``==`` and ``hash`` ignore ``pos``.
    Printing is as for type nodes (see ``_Interned``).  None of these
    recurses.  Nodes are immutable: plain assignment and deletion raise
    ``AttributeError``; only a constructor and ``_fill`` store, through the
    slot descriptors and ``object.__setattr__``.
    """

    __slots__ = ("_hash", "_free")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return _spell(self, _repr_pieces)

    def __hash__(self) -> int:
        if self._hash is None:
            _fill(self)
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            cls, ha, hb = type(a), a._hash, b._hash
            if cls is not type(b) or ha != hb and ha is not None and hb is not None:
                return False
            if cls is Par:
                stack += ((a.right, b.right), (a.left, b.left))
            elif cls is Repl:
                stack.append((a.body, b.body))
            elif cls is not Zero:
                if _labels(a) != _labels(b):
                    return False
                stack.append((a.cont, b.cont))
        return True

    def __reduce__(self):
        # String hashes differ between interpreters: a copy refills its own.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _process_node(cls: type) -> type:
    """Finish a process class whose ``__slots__`` name its fields, then
    ``pos``, the (line, column) the parser read it at, for diagnostics only:
    ``__match_args__`` lists the fields, and ``__init__`` takes them in
    order, then an optional ``pos``.  It stores each through its slot
    descriptor, bound here once, and leaves the hash and free names ``None``."""
    names = cls.__slots__
    cls.__match_args__ = names[:-1]
    stores = {f"set_{name}": getattr(cls, name).__set__ for name in names}
    stores.update(set_hash=_Node._hash.__set__, set_free=_Node._free.__set__)
    # Compiled from source, as a dataclass's is, so that it takes its fields
    # by name and stores them without a loop.
    params = "".join(f"{name}, " for name in names[:-1])
    body = "".join(f"    set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {params}pos=None):\n{body}"
         "    set_hash(self, None)\n    set_free(self, None)\n", stores)
    cls.__init__ = stores["__init__"]
    return cls


def _replace(p: "Process", **changes) -> "Process":
    """``p`` rebuilt with the fields in ``changes`` and its own ``pos``."""
    cls = type(p)
    return cls(*(changes.get(name, getattr(p, name)) for name in cls.__match_args__), pos=p.pos)


def _factor(head: str, body: "Process") -> tuple:
    """The pieces ``head`` then ``body``, which is parenthesised if it is a
    parallel: ``|`` is the loosest operator and associates to the left.  A
    body ``0`` joins the head's text, which spares the walk a node."""
    cls = type(body)
    if cls is Zero:
        return (head + "0",)
    return (head + "(", body, ")") if cls is Par else (head, body)


@_process_node
class Zero(_Node):
    __slots__ = ("pos",)

    def _pieces(self) -> tuple:
        return ("0",)


@_process_node
class Par(_Node):
    __slots__ = ("left", "right", "pos")

    def _pieces(self) -> tuple:
        return (self.left,) + _factor(" | ", self.right)


@_process_node
class Repl(_Node):
    __slots__ = ("body", "pos")

    def _pieces(self) -> tuple:
        return _factor("!", self.body)


@_process_node
class Output(_Node):
    """``chan!arg.cont``: send the variable ``arg`` on ``chan``."""

    __slots__ = ("chan", "arg", "cont", "pos")

    def _pieces(self) -> tuple:
        return _factor(f"{self.chan}!{self.arg}.", self.cont)


@_process_node
class Input(_Node):
    """``chan?(binder).cont``: receive on ``chan``, binding ``binder`` in ``cont``."""

    __slots__ = ("chan", "binder", "cont", "pos")

    def _pieces(self) -> tuple:
        return _factor(f"{self.chan}?({self.binder}).", self.cont)


@_process_node
class New(_Node):
    """``new binder: annot. cont``: restriction with a type annotation."""

    __slots__ = ("binder", "annot", "cont", "pos")

    def _pieces(self) -> tuple:
        return (f"new {self.binder}: ", self.annot, *_factor(". ", self.cont))


Process = Union[Zero, Par, Repl, Output, Input, New]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def render(node: Union[Process, _Interned], limit: Optional[int] = None) -> str:
    """The concrete syntax of a process, type or context entry, or only its
    first ``limit`` characters.  Each node class lists its pieces in order
    in ``_pieces``: text, and the nodes it holds, a parallel operand or body
    parenthesised where the grammar needs it (``_factor``)."""
    return _spell(node, limit=limit)


def _repr_pieces(q: Union[_Node, _Interned]) -> list:
    """The pieces of the ``repr`` of ``q``, ``Cls(field=...)``: the fields
    its class lists in ``__match_args__`` (not ``pos``), where a node stays
    a node and any other value is ``repr``-ed."""
    pieces: list = [f"{type(q).__qualname__}("]
    for k, name in enumerate(type(q).__match_args__):
        value = getattr(q, name)
        pieces.append(f"{', ' if k else ''}{name}=")
        pieces.append(value if isinstance(value, (_Node, _Interned)) else repr(value))
    pieces.append(")")
    return pieces


def _spell(node, pieces: Optional[Callable] = None, limit: Optional[int] = None) -> str:
    """The text of ``node``, or its first ``limit`` characters: the one walk
    that prints.  ``pieces(q)`` gives the text and nodes of each node ``q``,
    by default its ``_pieces()``.  Pending pieces wait on an explicit stack,
    so depth costs no recursion."""
    out: list[str] = []
    size = 0
    stack: list = [node]
    pop, extend = stack.pop, stack.extend
    while stack:
        q = pop()
        while type(q) is not str:
            spelled = q._pieces() if pieces is None else pieces(q)
            if len(spelled) > 1:
                extend(spelled[:0:-1])
            q = spelled[0]
        out.append(q)
        if limit is not None:
            size += len(q)
            if size >= limit:
                break
    text = "".join(out)
    return text if limit is None else text[:limit]


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------

class _Scan(NamedTuple):
    free: set[str]  # names with a free occurrence
    binders: set[str]
    repeated: bool  # some name is bound twice

    @property
    def names(self) -> set[str]:
        """Every name of the term: an occurrence is free or of a binder."""
        return self.free | self.binders


def _scan(p: Process) -> _Scan:
    """Free names and binders of ``p`` in one pass.

    The walk uses an explicit stack, so depth costs no recursion.  A binder
    is pushed as a string below its scope, and popping it closes the scope;
    ``bound`` counts the open scopes of each name, so shadowing is handled
    without copying a bound set per binder.
    """
    free: set[str] = set()
    binders: set[str] = set()
    repeated = False
    bound: dict[str, int] = {}
    stack: list = [p]
    push = stack.append
    while stack:
        q = stack.pop()
        cls = type(q)
        if cls is Output:
            if not bound.get(q.chan):
                free.add(q.chan)
            if not bound.get(q.arg):
                free.add(q.arg)
            push(q.cont)
        elif cls is Input or cls is New:
            if cls is Input and not bound.get(q.chan):
                free.add(q.chan)
            binder = q.binder
            if binder in binders:
                repeated = True
            binders.add(binder)
            bound[binder] = bound.get(binder, 0) + 1
            push(binder)
            push(q.cont)
        elif cls is str:
            bound[q] -= 1
        elif cls is Par:
            push(q.right)
            push(q.left)
        elif cls is Repl:
            push(q.body)
        elif cls is not Zero:
            raise TypeError(f"not a process: {q!r}")
    return _Scan(free, binders, repeated)


def _labels(q: Process) -> tuple:
    """The names, and the annotation, of a prefix or restriction node."""
    if type(q) is New:
        return q.binder, q.annot
    return q.chan, q.arg if type(q) is Output else q.binder


def _fill(p: Process) -> None:
    """Set the hash and free names of ``p`` and of each subterm that lacks
    them, children before parents, on an explicit stack.  A node's facts
    come from its children's, and its free names are one of theirs when it
    adds and binds nothing new.  A filled subterm is not entered again."""
    store = object.__setattr__
    stack = [p]
    while stack:
        q = stack[-1]
        if q._hash is not None:
            stack.pop()
            continue
        cls = type(q)
        if cls is Zero:
            free, key = frozenset(), (cls,)
        elif cls is Par:
            left, right = q.left, q.right
            if left._hash is None or right._hash is None:
                stack += (right, left)
                continue
            l_free, r_free = left._free, right._free
            free = l_free if r_free <= l_free else r_free if l_free <= r_free else l_free | r_free
            key = (cls, left._hash, right._hash)
        else:
            child = q.body if cls is Repl else q.cont
            if child._hash is None:
                stack.append(child)
                continue
            free = child._free
            if cls is Repl:
                key = (cls, child._hash)
            else:
                key = (cls, *_labels(q), child._hash)
                if cls is not Output and q.binder in free:
                    free = free - {q.binder}
                used = (q.chan, q.arg) if cls is Output else (q.chan,) if cls is Input else ()
                if not free.issuperset(used):
                    free = free.union(used)
        stack.pop()
        store(q, "_free", free)
        store(q, "_hash", hash(key))


def free_vars(p: Process) -> frozenset[str]:
    if p._free is None:
        _fill(p)
    return p._free


def _rebuild(p: Process, env: dict[str, str], bind: Callable) -> Process:
    """``p`` rebuilt with its free names mapped through ``env`` (a name it
    lacks stays), children before parents, each node keeping its ``pos``;
    ``Zero`` nodes are kept themselves.  At each binder, met in preorder,
    ``bind(node, env)`` returns the binder's new name and the map for its
    scope.  A node is pushed again below its children, with its new leading
    fields, and then takes its children from ``built``: depth costs no
    recursion.
    """
    built: list[Process] = []
    stack: list = [(p, env, None)]
    push = stack.append
    while stack:
        q, env, head = stack.pop()
        cls = type(q)
        if head is not None:
            if cls is Par:
                right = built.pop()
                built[-1] = Par(built[-1], right, pos=q.pos)
            else:
                built[-1] = cls(*head, built[-1], pos=q.pos)
        elif cls is Zero:
            built.append(q)
        elif cls is Par:
            push((q, env, ()))
            push((q.right, env, None))
            push((q.left, env, None))
        elif cls is Output:
            push((q, env, (env.get(q.chan, q.chan), env.get(q.arg, q.arg))))
            push((q.cont, env, None))
        elif cls is Input:
            binder, inner = bind(q, env)
            push((q, env, (env.get(q.chan, q.chan), binder)))
            push((q.cont, inner, None))
        elif cls is New:
            binder, inner = bind(q, env)
            push((q, env, (binder, q.annot)))
            push((q.cont, inner, None))
        elif cls is Repl:
            push((q, env, ()))
            push((q.body, env, None))
        else:
            raise TypeError(f"not a process: {q!r}")
    return built[0]


class CaptureError(Exception):
    """A substitution would capture a free name; signals a renaming bug upstream."""


def substitute(p: Process, replacement: str, target: str) -> Process:
    """Replace every free occurrence of ``target`` by ``replacement`` (P{z/x})."""
    if replacement == target:
        return p

    def bind(q: Process, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        binder = q.binder
        if binder == target:
            return binder, {}  # target is bound here, so its scope maps nothing
        if binder == replacement and env and target in free_vars(q.cont):
            raise CaptureError(
                f"substituting {replacement} for {target} would be captured by {binder}"
            )
        return binder, env

    return _rebuild(p, {target: replacement}, bind)


def barendregt_rename(p: Process, avoid: frozenset[str] | set[str] = frozenset()) -> Process:
    """Alpha-rename so all binders are distinct from each other and from free names.

    A term whose binders already are distinct, and distinct from its free
    names and from ``avoid``, is returned itself.  Otherwise fresh names are
    the original name with a numeric suffix; counters never reuse a name, so
    the scheme is deterministic and idempotent.
    """
    # One scan, not the nodes' cached free names: filling them would give
    # every node of a long ``|`` spine its own set of the names below it,
    # quadratic memory on a term that only needed the clash test.
    scan = _scan(p)
    binders = scan.binders
    if not scan.repeated and binders.isdisjoint(scan.free) and binders.isdisjoint(avoid):
        return p
    used = scan.free | set(avoid)
    present = scan.names | set(avoid)
    counters: dict[str, int] = {}

    def bind(q: Process, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        binder = name = q.binder
        if binder in used:
            n = counters.get(binder, 0)
            while name in used or name in present:
                n += 1
                name = f"{binder}{n}"
            counters[binder] = n
        used.add(name)
        # A kept binder was unused, so no outer scope maps it: share the map.
        return name, env if name == binder else {**env, binder: name}

    return _rebuild(p, {}, bind)

