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
so ``==`` on types is ``is`` and hashing one takes constant time.  Equality
of infinite unfoldings is ``equality.type_equal``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Union


class Qual(enum.Enum):
    LIN = "lin"
    UN = "un"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

# Every type node ever built, keyed by its class and fields.
_NODES: dict[tuple, "_Interned"] = {}


class _Interned:
    """Base of the type nodes: they are hash-consed.

    Construction looks the node up by ``(class, fields)``.  The fields are
    interned already, so the key hashes in constant time, and a structurally
    equal node built earlier is returned instead of a new one.  Equality is
    therefore identity, and ``hash`` is identity-based (neither recurses, so
    types of any depth can be set members and dict keys).  Copying and
    pickling go back through the constructor.
    """

    __slots__ = ()

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
# leaves construction to ``_Interned.__new__``.
_type_node = dataclass(frozen=True, eq=False, init=False, slots=True)


@_type_node
class Recv(_Interned):
    """Pre-type ``?(T).S``: receive a name of type ``payload``, go on as ``cont``."""

    payload: "Type"
    cont: "Endpoint"

    def __str__(self) -> str:
        return f"?({self.payload}).{self.cont}"


@_type_node
class Send(_Interned):
    """Pre-type ``!(T).S``: send a name of type ``payload``, go on as ``cont``."""

    payload: "Type"
    cont: "Endpoint"

    def __str__(self) -> str:
        return f"!({self.payload}).{self.cont}"


@_type_node
class End(_Interned):
    """Pre-type ``end``: no further interaction on this endpoint."""

    def __str__(self) -> str:
        return "end"


PreType = Union[Recv, Send, End]


@_type_node
class Qualified(_Interned):
    """Endpoint type ``q p``: a pre-type under a lin/un qualifier."""

    qual: Qual
    pre: PreType

    def __str__(self) -> str:
        return f"{self.qual.value} {self.pre}"


@_type_node
class TypeVar(_Interned):
    name: str

    def __str__(self) -> str:
        return self.name


@_type_node
class Rec(_Interned):
    """Recursive endpoint type ``rec a. S``; must be contractive."""

    var: str
    body: "Endpoint"

    def __str__(self) -> str:
        return f"rec {self.var}. {self.body}"


Endpoint = Union[Qualified, TypeVar, Rec]


@_type_node
class ChanType(_Interned):
    """Channel pair type ``<S1, S2>``: the two ends of one channel."""

    left: Endpoint
    right: Endpoint

    def __str__(self) -> str:
        return f"<{self.left}, {self.right}>"


Type = Union[Endpoint, ChanType]

UN_END = Qualified(Qual.UN, End())


def is_endpoint(t: Type) -> bool:
    return not isinstance(t, ChanType)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

Pos = tuple  # (line, column), recorded for diagnostics only


class _Node:
    """Base of the process nodes: they print in concrete syntax."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Zero(_Node):
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Par(_Node):
    left: "Process"
    right: "Process"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Repl(_Node):
    body: "Process"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Output(_Node):
    """``chan!arg.cont``: send the variable ``arg`` on ``chan``."""

    chan: str
    arg: str
    cont: "Process"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Input(_Node):
    """``chan?(binder).cont``: receive on ``chan``, binding ``binder`` in ``cont``."""

    chan: str
    binder: str
    cont: "Process"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class New(_Node):
    """``new binder: annot. cont``: restriction with a type annotation."""

    binder: str
    annot: Type
    cont: "Process"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


Process = Union[Zero, Par, Repl, Output, Input, New]


def render(p: Process, limit: Optional[int] = None) -> str:
    """The concrete syntax of ``p``, or only its first ``limit`` characters.

    ``|`` is the loosest operator and associates to the left, so a parallel
    is parenthesised as the right operand of ``|`` and as a continuation or
    replication body.  The walk keeps its pending pieces on an explicit
    stack, text and subterms alike, so depth costs no recursion.
    """
    out: list[str] = []
    size = 0
    stack: list = [p]
    push = stack.append
    while stack:
        q = stack.pop()
        cls = type(q)
        if cls is str:
            out.append(q)
            size += len(q)
            if limit is not None and size >= limit:
                break
            continue
        if cls is Par:
            if type(q.right) is Par:
                push(")")
                push(q.right)
                push(" | (")
            else:
                push(q.right)
                push(" | ")
            push(q.left)
            continue
        if cls is Zero:
            out.append("0")
            size += 1
            continue
        if cls is Output:
            head, body = f"{q.chan}!{q.arg}.", q.cont
        elif cls is Input:
            head, body = f"{q.chan}?({q.binder}).", q.cont
        elif cls is New:
            head, body = f"new {q.binder}: {q.annot}. ", q.cont
        elif cls is Repl:
            head, body = "!", q.body
        else:
            raise TypeError(f"not a process: {q!r}")
        if type(body) is Par:
            push(")")
            push(body)
            push(head + "(")
        else:
            push(body)
            push(head)
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


def free_vars(p: Process) -> frozenset[str]:
    return frozenset(_scan(p).free)


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


def subprocesses(p: Process) -> Iterator[Process]:
    """Preorder traversal of a process tree."""
    yield p
    match p:
        case Par(left, right):
            yield from subprocesses(left)
            yield from subprocesses(right)
        case Repl(body) | Output(_, _, body) | Input(_, _, body) | New(_, _, body):
            yield from subprocesses(body)
