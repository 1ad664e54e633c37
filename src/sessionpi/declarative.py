"""Split-based derivability oracle.

The declarative system distributes a context between the threads of a
parallel composition instead of threading it: unrestricted entries are
copied to both sides, linear entries go to exactly one side, and a pair of
linear ends may be divided between the two sides.  Splits are duplicate-free
by construction: each entry's options are pairwise distinct, so no two of
their combinations coincide.  They are also relevance-directed, as in
linear-logic proof search (Hodas & Miller, Inf. & Comp. 110(2), 1994;
Cervesato, Hodas & Pfenning, TCS 232, 2000): a linear entry goes only to a
side whose process has its name free, since no other side could consume it.
Derivability is decided by a memoized backtracking search over rule choices
and splits, bounded by a node budget; exceeding the budget yields
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
    t: Type, left_uses: bool, right_uses: bool
) -> tuple[tuple[Optional[Type], Optional[Type]], ...]:
    """``_divisions(t)`` less the options that give a linear type to a side
    that does not use the name; kept, since interned types hash in O(1)."""
    return tuple(
        (l, r) for l, r in _divisions(t)
        if (left_uses or l is None or is_un_type(l)) and (right_uses or r is None or is_un_type(r))
    )


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
    """Divisions of ``i`` licensed by the splitting rules that give a side
    linear entries only for names it uses (``None``: every name, which is the
    exhaustive reference).  Entries are divided independently and each one's
    options are distinct, so no split repeats and none needs filtering."""
    all_names = i.names()
    if not all_names:
        yield Split(i, i)
        return
    names = tuple(sorted(all_names))
    left_names = all_names if left_names is None else left_names
    right_names = all_names if right_names is None else right_names
    options = [_entry_options(i.get(n), n in left_names, n in right_names) for n in names]
    for combo in itertools.product(*options):
        # A side's types, one per name, ``None`` where the name is absent;
        # ``filter(None, ...)`` keeps the types, none of which is falsy.
        lefts, rights = zip(*combo)
        yield Split(
            i.subcontext(tuple(itertools.compress(names, lefts)), tuple(filter(None, lefts))),
            i.subcontext(tuple(itertools.compress(names, rights)), tuple(filter(None, rights))),
        )


def derivable_value(i: DeclContext, v: str, t: Type) -> bool:
    """Can ``v : t`` be derived?  The axiom needs everything else unrestricted;
    an endpoint goal may also strip an unrestricted partner end off a pair."""
    bound = i.get(v)
    if bound is None:
        return False
    if not all(is_un_type(u) for name, u in i.items() if name != v):
        return False
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
    that each process level costs two frames."""

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
            case Par(left, right):
                for split in enumerate_splits(i, free_vars(left), free_vars(right)):
                    if self.derivable(split.left, left) and self.derivable(split.right, right):
                        return True
                return False
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
                for split in enumerate_splits(i, {arg}, free_vars(body) | {chan}):
                    t = split.right.get(chan)
                    if t is None:
                        continue
                    for t2, payload in _shapes(t, Send):
                        if not derivable_value(split.left, arg, payload):
                            continue
                        if self.derivable(split.right.set(chan, t2), body):
                            return True
                return False
        raise TypeError(f"not a process: {p!r}")


def _bind(i: DeclContext, binder: str, t: Type) -> Optional[DeclContext]:
    """``i`` with ``binder : t`` in scope, or ``None`` when the entry the
    binder hides is linear (see the module docstring)."""
    hidden = i.get(binder)
    if hidden is None:
        return i.add(binder, t)
    return i.set(binder, t) if is_un_type(hidden) else None


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
