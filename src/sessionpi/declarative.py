"""Split-based derivability oracle.

The declarative system distributes a context between the threads of a
parallel composition, and between an output's value and its continuation,
instead of threading it: unrestricted entries are copied to both sides,
linear entries go to exactly one side, and a pair of linear ends may be
divided between the two sides.  The search takes only the divisions
directed by the names each side uses, as in the input/output resource
management of linear-logic proof search (Hodas & Miller, Inf. & Comp.
110(2), 1994; Cervesato, Hodas & Pfenning, TCS 232, 2000).  A linear entry
goes only to a side whose process has its name free, since no other side
could consume it.  A side gets an entry for every name it has free, since
each free occurrence is the channel or the argument of a prefix, whose rule
needs the name typed.  Each entry's options (``_entry_options``) are
pairwise distinct, so no division repeats.

In an output ``x!v.P`` the value side is the axiom ``v : T``, which takes
an entry for ``v`` and unrestricted ones only.  So every entry but ``v``'s
has one option, whole to the continuation, or none, when it is linear and
``P`` does not name it, which refutes the output.  The search divides
``v``'s entry alone and tests the value's type directly (``_value_fits``).
``enumerate_splits`` lists every split of a context as the product of its
entries' options; no search path calls it, and it is the exhaustive
reference for the tests and the benchmark's tracer.

A maximal ``|`` soup ``P1 | ... | Pn`` is split n ways at once, which
derives what the nested binary splits derive.  Splits divide entries
independently, so take one entry of a name ``x`` and the threads that have
``x`` free, its users.  Each user needs a share of the entry, and any
other thread takes unrestricted shares only, which it drops (weakening by
``un``, below).  Whichever way the binary splits nest, they give the users:

- an unrestricted entry, copied to every user;
- a linear endpoint, to its one user; with two users or more, no split;
- a pair of linear ends, whole to its one user, or one end to each of two
  users in either orientation: the split at their innermost common ``|``
  divides the pair, and no split divides an end; with three, no split;
- a pair of a linear and an unrestricted end, whole to one user, with the
  unrestricted end copied to every other: each split gives the side
  without the pair that end, and the splits below copy it.

``_spreads`` builds these as the nested splits of the first user against
the rest.  A thread's derivability depends on its own shares only, so the
soup is derivable exactly when one spread per name makes every thread
derivable.  The search places one name at a time and decides each thread
as soon as all its names are placed: forward checking (Haralick & Elliott,
AI 14(3), 1980) applied to lazy resource distribution (Harland & Pym, ACM
TOCL 4(1), 2003).  A thread's goal holds its own entries only, so the memo
refutes a wrong option once, not once per combination of the others.
Derivability is decided by this memoized backtracking search over rule
choices and splits, bounded by a node budget; exceeding the budget yields
INCONCLUSIVE rather than a verdict.

Binding is scoped in both systems; renaming is for display and substitution.
A binder named like a context entry hides that entry in its scope
(``_bind``).  Its renaming would keep the hidden entry under the old name,
which no subterm of the scope names.  So an unrestricted hidden entry is
replaced: un entries are copied to every side and every axiom accepts extra
ones, which is weakening by ``un``.  A linear one refutes the goal, since no
subterm can consume it.  In ``x?(x).P`` the entry hidden is the channel's
continuation type.  A term and its renaming thus get the same verdict, and
a renamed term, which hides nothing, takes the same path as before.

This module exists to cross-check the deterministic checker: everything the
checker accepts must be derivable here, while the converse fails on known
self-deadlocking shapes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Optional

from .contexts import DeclContext, is_safe_type, is_un_decl_context, is_un_type
from .equality import head_qual, io_head, type_equal
from .syntax import (
    ChanType,
    Endpoint,
    Input,
    New,
    Output,
    Par,
    Process,
    Qual,
    Recv,
    Repl,
    Send,
    Type,
    Zero,
    _memoized,
    free_vars,
    is_endpoint,
)


@dataclass(frozen=True)
class Split:
    left: DeclContext
    right: DeclContext


class Verdict(enum.Enum):
    DERIVABLE = "derivable"
    NOT_DERIVABLE = "not_derivable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OracleResult:
    verdict: Verdict
    bound: int
    spent: int

    def __bool__(self) -> bool:
        return self.verdict is Verdict.DERIVABLE


class _BudgetExceeded(Exception):
    pass


@_memoized
def _entry_options(
    t: Type, left_uses: Optional[bool], right_uses: Optional[bool]
) -> tuple[tuple[Optional[Type], Optional[Type]], ...]:
    """``_divisions(t)`` less the options that a side's use of the name
    rules out: a side with the name free takes a type, and a side without
    it no linear one (``None``: use unknown, nothing ruled out).  Kept,
    since interned types hash in O(1)."""
    return tuple(
        (l, r) for l, r in _divisions(t) if _fits(l, left_uses) and _fits(r, right_uses)
    )


def _fits(t: Optional[Type], uses: Optional[bool]) -> bool:
    if uses is None:
        return True
    return t is not None if uses else t is None or is_un_type(t)


@_memoized
def _spreads(t: Type, users: int) -> tuple[tuple[Type, ...], ...]:
    """Ways to give each of ``users`` threads that have a name free its own
    type out of the name's entry ``t``: the nested binary splits, first
    thread against the rest, in which every side gets the name."""
    partial: list[tuple[tuple[Type, ...], Type]] = [((), t)]
    for _ in range(users - 1):
        partial = [
            (given + (l,), r) for given, rest in partial for l, r in _entry_options(rest, True, True)
        ]
    return tuple(given + (rest,) for given, rest in partial)


def _divisions(t: Type) -> list[tuple[Optional[Type], Optional[Type]]]:
    """Ways one entry may be divided, pairwise distinct; ``None`` means absent
    from that side."""
    if is_endpoint(t):
        if head_qual(t) is Qual.UN:
            return [(t, t)]
        return [(t, None), (None, t)]
    lq, rq = head_qual(t.left), head_qual(t.right)
    if lq is Qual.UN and rq is Qual.UN:
        return [(t, t)]
    if lq is Qual.LIN and rq is Qual.LIN:
        options = [(t, None), (None, t), (t.left, t.right)]
        if t.left != t.right:
            # With equal ends the mirrored half-split is the same split.
            options.append((t.right, t.left))
        return options
    # One linear end, one unrestricted end: the whole pair goes to one side,
    # the unrestricted end alone is copied to the other.
    un_side: Endpoint = t.left if lq is Qual.UN else t.right
    return [(t, un_side), (un_side, t)]


def enumerate_splits(
    i: DeclContext,
    left_names: Optional[AbstractSet[str]] = None,
    right_names: Optional[AbstractSet[str]] = None,
) -> Iterator[Split]:
    """Divisions of ``i`` licensed by the splitting rules that give each side
    an entry for every name it uses and a linear entry for no other name
    (``None``: every division).  Entries are divided independently and each
    one's options are distinct, so no split repeats and none needs
    filtering.  This is the exhaustive reference for the tests and the
    tracer; the search divides entries itself (see the module docstring)."""
    if not len(i):
        yield Split(i, i)
        return
    names = tuple(sorted(i.names()))
    options = [
        _entry_options(
            i.get(n),
            None if left_names is None else n in left_names,
            None if right_names is None else n in right_names,
        )
        for n in names
    ]
    for combo in itertools.product(*options):
        # A side's types, one per name, ``None`` where the name is absent;
        # ``filter(None, ...)`` keeps the types, none of which is falsy.
        lefts, rights = zip(*combo)
        yield Split(
            i.subcontext(tuple(itertools.compress(names, lefts)), tuple(filter(None, lefts))),
            i.subcontext(tuple(itertools.compress(names, rights)), tuple(filter(None, rights))),
        )


def derivable_value(i: DeclContext, v: str, t: Type) -> bool:
    """Can ``v : t`` be derived?  The axiom needs everything else unrestricted."""
    bound = i.get(v)
    if bound is None:
        return False
    if not all(is_un_type(u) for name, u in i.items() if name != v):
        return False
    return _value_fits(bound, t)


def _value_fits(bound: Type, t: Type) -> bool:
    """Does an entry of type ``bound`` give a value of type ``t``?  An equal
    type does; an endpoint goal may also strip an unrestricted partner end
    off a pair."""
    if type_equal(bound, t):
        return True
    if is_endpoint(t) and isinstance(bound, ChanType):
        for mine, other in ((bound.left, bound.right), (bound.right, bound.left)):
            if head_qual(other) is Qual.UN and type_equal(mine, t):
                return True
    return False


def derivable(i: DeclContext, p: Process, bound: int = 200_000) -> OracleResult:
    """Search for a derivation of ``i ⊢ p``."""
    search = _Search(bound)
    try:
        ok = search.derivable(i, p)
    except _BudgetExceeded:
        return OracleResult(Verdict.INCONCLUSIVE, bound, bound)
    verdict = Verdict.DERIVABLE if ok else Verdict.NOT_DERIVABLE
    return OracleResult(verdict, bound, bound - search.left)


class _Search:
    """One search: the node budget still ``left`` and the memo of decided
    goals.  Recursive calls sit in plain loops, not in ``any(...)``, so
    that a prefix costs two frames and a whole ``|`` soup three."""

    def __init__(self, bound: int):
        self.left = bound
        self.memo: dict[tuple, bool] = {}

    def derivable(self, i: DeclContext, p: Process) -> bool:
        """Probe the memo once; a goal not decided yet costs one node."""
        key = (i.canonical(), p)
        result = self.memo.get(key)
        if result is None:
            self.left -= 1
            if self.left < 0:
                raise _BudgetExceeded
            result = self.memo[key] = self._derive(i, p)
        return result

    def _derive(self, i: DeclContext, p: Process) -> bool:
        match p:
            case Zero():
                return is_un_decl_context(i)
            case Repl(body):
                return is_un_decl_context(i) and self.derivable(i, body)
            case Par():
                return self._soup(i, _threads(p))
            case New(binder, annot, body):
                inner = _bind(i, binder, annot) if is_safe_type(annot) else None
                return inner is not None and self.derivable(inner, body)
            case Input(chan, binder, body):
                t = i.get(chan)
                if t is None:
                    return False
                for t2, payload in _shapes(t, Recv):
                    inner = _bind(i.set(chan, t2), binder, payload)
                    if inner is not None and self.derivable(inner, body):
                        return True
                return False
            case Output(chan, arg, body):
                free = free_vars(body)
                for name, t in i.items():
                    if name != arg and name != chan and name not in free and not is_un_type(t):
                        return False  # a linear entry that neither side can consume
                bound = i.get(arg)
                if bound is None:
                    return False
                for value, kept in _entry_options(bound, True, arg == chan or arg in free):
                    rest = i.remove(arg) if kept is None else i.set(arg, kept)
                    t = rest.get(chan)
                    if t is None:
                        continue
                    for t2, payload in _shapes(t, Send):
                        if _value_fits(value, payload) and self.derivable(rest.set(chan, t2), body):
                            return True
                return False
        raise TypeError(f"not a process: {p!r}")

    def _soup(self, i: DeclContext, threads: list[Process]) -> bool:
        """Is some spread of ``i`` over ``threads`` derivable thread by
        thread?  Names are placed in order of first occurrence, each by one
        of its ``_spreads`` over its users, and a thread is decided once its
        last name is placed (see the module docstring)."""
        # place: each name's place in order of first occurrence; users: per
        # place, how many threads have the name free; slots: per thread, the
        # place of each of its names and its share of the name's spread.
        place: dict[str, int] = {}
        users: list[int] = []
        thread_names, slots = [], []
        for q in threads:
            names = tuple(sorted(free_vars(q)))
            own = []
            for name in names:
                j = place.get(name)
                if j is None:
                    j = place[name] = len(users)
                    users.append(0)
                own.append((j, users[j]))
                users[j] += 1
            thread_names.append(names)
            slots.append(own)
        if any(name not in place and not is_un_type(t) for name, t in i.items()):
            return False  # a linear entry that no thread can consume
        options = []
        for name, j in place.items():
            t = i.get(name)
            if t is None:
                return False  # a free name that nothing types
            options.append(_spreads(t, users[j]))
        if not all(options):
            return False
        # closes[j]: the threads decided once the first j names are placed.
        closes: list[list[int]] = [[] for _ in range(len(users) + 1)]
        for k, own in enumerate(slots):
            closes[1 + max((j for j, _ in own), default=-1)].append(k)
        choice = [0] * len(users)
        j = 0
        while True:
            for k in closes[j]:
                entries = tuple(options[a][choice[a]][b] for a, b in slots[k])
                if not self.derivable(i.subcontext(thread_names[k], entries), threads[k]):
                    break
            else:
                if j == len(users):
                    return True
                choice[j] = 0
                j += 1
                continue
            # Thread k refutes the placed options: advance the last name
            # that has an option left.
            j -= 1
            while j >= 0 and choice[j] + 1 == len(options[j]):
                j -= 1
            if j < 0:
                return False
            choice[j] += 1
            j += 1


def _bind(i: DeclContext, binder: str, t: Type) -> Optional[DeclContext]:
    """``i`` with ``binder : t`` in scope, or ``None`` when the entry the
    binder hides is linear (see the module docstring)."""
    hidden = i.get(binder)
    if hidden is None:
        return i.add(binder, t)
    return i.set(binder, t) if is_un_type(hidden) else None


def _threads(p: Par) -> list[Process]:
    """The threads of the maximal ``|`` soup at ``p``, left to right."""
    threads: list[Process] = []
    stack: list[Process] = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack += (q.right, q.left)
        else:
            threads.append(q)
    return threads


def _shapes(t: Type, ctor) -> Iterator[tuple[Type, Type]]:
    """(context type after the step, payload type) for each way ``t`` can
    fire a ``ctor`` (``Send``/``Recv``) prefix."""
    if is_endpoint(t):
        h = io_head(t, ctor)
        if h is not None:
            yield h.pre.cont, h.pre.payload
        return
    h = io_head(t.left, ctor)
    if h is not None:
        yield ChanType(h.pre.cont, t.right), h.pre.payload
    h = io_head(t.right, ctor)
    if h is not None:
        yield ChanType(t.left, h.pre.cont), h.pre.payload
