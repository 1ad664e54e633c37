"""Equi-recursive type equality, unfolding, and duality.

Two types are equal when their infinite unfoldings are equal as regular
trees, with channel pair types compared modulo commutation of the two
components.  The decision procedure is the usual coinductive one: unfold
both sides to a head constructor and compare, assuming equal any pair of
types already under comparison.  Contractiveness (checked at parse time,
and by ``unfold`` for types built in code) bounds unfolding, and the set of
distinct subterm pairs is finite, so the procedure terminates.

Types are interned (``syntax``), so identical types are one object: equality
first tests ``is``, and ``unfold``, ``type_equal`` and ``io_head`` keep each
answer in the memo of ``syntax._memoized``, keyed by the interned nodes.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    ChanType,
    End,
    Endpoint,
    Qual,
    Qualified,
    Rec,
    Recv,
    Send,
    Type,
    TypeVar,
    _memoized,
)


def subst_type(s: Endpoint, name: str, replacement: Endpoint) -> Endpoint:
    """Substitute ``replacement`` for the type variable ``name`` in ``s``.

    The replacement is always a closed type here, so capture cannot occur;
    substitution just stops at a shadowing binder.
    """
    match s:
        case TypeVar(n):
            return replacement if n == name else s
        case Rec(var, body):
            if var == name:
                return s
            return Rec(var, subst_type(body, name, replacement))
        case Qualified(q, Recv(payload, cont)):
            return Qualified(q, Recv(_subst_in_type(payload, name, replacement),
                                     subst_type(cont, name, replacement)))
        case Qualified(q, Send(payload, cont)):
            return Qualified(q, Send(_subst_in_type(payload, name, replacement),
                                     subst_type(cont, name, replacement)))
        case Qualified(_, End()):
            return s
    raise TypeError(f"not an endpoint type: {s!r}")


def _subst_in_type(t: Type, name: str, replacement: Endpoint) -> Type:
    if isinstance(t, ChanType):
        return ChanType(subst_type(t.left, name, replacement),
                        subst_type(t.right, name, replacement))
    return subst_type(t, name, replacement)


@_memoized
def unfold(s: Endpoint) -> Qualified:
    """Unfold a closed endpoint type until the head is a qualified pre-type;
    an open or non-contractive one raises ``ValueError``."""
    head = s
    seen: set[Rec] = set()
    while isinstance(head, Rec):
        if head in seen:  # interned, so a non-contractive type comes back
            raise ValueError(f"cannot unfold non-contractive type {s}")
        seen.add(head)
        head = subst_type(head.body, head.var, head)
    if not isinstance(head, Qualified):
        raise ValueError(f"cannot unfold open type {s}")
    return head


@_memoized
def type_equal(t1: Type, t2: Type) -> bool:
    """Equality of infinite unfoldings, modulo pair commutation.

    Only the outermost call is kept: a nested comparison may rest on pairs
    merely assumed equal, so it runs in ``_type_eq`` and is not kept."""
    return t1 is t2 or _type_eq(t1, t2, frozenset())


def _type_eq(t1: Type, t2: Type, assumed: frozenset) -> bool:
    if isinstance(t1, ChanType) and isinstance(t2, ChanType):
        return (_ep_eq(t1.left, t2.left, assumed) and _ep_eq(t1.right, t2.right, assumed)) or (
            _ep_eq(t1.left, t2.right, assumed) and _ep_eq(t1.right, t2.left, assumed)
        )
    if isinstance(t1, ChanType) or isinstance(t2, ChanType):
        return False
    return _ep_eq(t1, t2, assumed)


def _ep_eq(s1: Endpoint, s2: Endpoint, assumed: frozenset) -> bool:
    key = (s1, s2)
    if s1 is s2 or key in assumed:
        return True
    a, b = unfold(s1), unfold(s2)
    if a.qual is not b.qual:
        return False
    assumed = assumed | {key}
    match (a.pre, b.pre):
        case (End(), End()):
            return True
        case (Recv(p1, c1), Recv(p2, c2)) | (Send(p1, c1), Send(p2, c2)):
            return _type_eq(p1, p2, assumed) and _ep_eq(c1, c2, assumed)
        case _:
            return False


def dual(s: Endpoint) -> Endpoint:
    """Swap send/receive along the carrier, keeping qualifiers and payloads.

    A recursion variable in a payload must go on naming its ``rec`` type, so
    the enclosing ``rec`` types replace their variables in payloads (Gay,
    Thiemann & Vasconcelos, PLACES 2020); without such a variable this is
    the plain swap, and returns the same interned node.
    """
    return _dual(s, {})


def _dual(s: Endpoint, recs: dict[str, Endpoint]) -> Endpoint:
    match s:
        case Qualified(q, Recv(payload, cont)):
            return Qualified(q, Send(_close(payload, recs), _dual(cont, recs)))
        case Qualified(q, Send(payload, cont)):
            return Qualified(q, Recv(_close(payload, recs), _dual(cont, recs)))
        case Qualified(_, End()) | TypeVar(_):
            return s
        case Rec(var, body):
            return Rec(var, _dual(body, {**recs, var: _close(s, recs)}))
    raise TypeError(f"not an endpoint type: {s!r}")


def _close(t: Type, recs: dict[str, Endpoint]) -> Type:
    """``t`` with the variables of ``recs`` replaced by their closed types."""
    for name, closed in recs.items():
        t = _subst_in_type(t, name, closed)
    return t


def head_qual(s: Endpoint) -> Qual:
    return unfold(s).qual


def is_un_end(s: Endpoint) -> bool:
    u = unfold(s)
    return u.qual is Qual.UN and isinstance(u.pre, End)


@_memoized
def io_head(s: Endpoint, ctor) -> Optional[Qualified]:
    """The unfolded head of ``s`` when it is a ``ctor`` (``Send``/``Recv``)
    prefix that can fire, else ``None``.

    A linear prefix always can; an unrestricted one only when its
    continuation is ``s`` again, so that using it leaves the type unchanged.
    """
    h = unfold(s)
    if not isinstance(h.pre, ctor) or h.qual is Qual.UN and not type_equal(h.pre.cont, s):
        return None
    return h
