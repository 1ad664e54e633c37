"""Structural congruence as a one-step rewrite system, and reduction.

Congruence rewrites are enumerated one application at a time, at every
position, in both directions for the six invertible laws (commutativity,
associativity, the 0 unit, replication unfolding, scope extrusion, the swap
of two restrictions of different names); the two garbage-collection laws
for restricted 0 only erase.  Every law tests its side conditions on the
term as given, so a raw term needs no renaming first.  Full congruence
closure is never decided (replication unfolding makes it non-terminating);
property suites only ever need single steps.

Reduction enumerates communication redexes: an output and an input on the
same channel sitting in the same parallel soup (the flattening of nested
compositions, which absorbs commutativity and associativity).  The rewrites
that expose a redex hidden behind replication or an inner restriction are
read off the term, as in the standard form ``new x. (G1 | ... | Gn)``
(Milner, CUP 1999; Engelfriet & Gelsema, TCS 211, 1999), so none is missed.

Each redex records the restriction that binds its channel in scope (the
innermost one), or none when the channel is free.  When a communication
fires on a restricted channel, that binder's annotation advances by one
step on both ends; on a free channel, the caller's context entry is the one
that moves, so retyping a reduct needs no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .contexts import is_un_type
from .equality import unfold
from .syntax import (
    ChanType,
    Endpoint,
    Input,
    New,
    Output,
    Par,
    Process,
    Recv,
    Repl,
    Send,
    Type,
    Zero,
    _replace,
    barendregt_rename,
    free_vars,
    substitute,
)

Path = tuple[str, ...]


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    direction: str  # "LR" or "RL"
    path: Path
    result: Process


_CHILDREN = {
    Par: ("left", "right"),
    Repl: ("body",),
    Output: ("cont",),
    Input: ("cont",),
    New: ("cont",),
    Zero: (),
}


def get_at(p: Process, path: Path) -> Process:
    for step in path:
        p = getattr(p, step)
    return p


def replace_at(p: Process, path: Path, new: Process) -> Process:
    if not path:
        return new
    head = path[0]
    return _replace(p, **{head: replace_at(getattr(p, head), path[1:], new)})


def _positions(p: Process, prefix: Path = ()) -> Iterator[tuple[Path, Process]]:
    yield prefix, p
    for name in _CHILDREN[type(p)]:
        yield from _positions(getattr(p, name), prefix + (name,))


def _local_steps(q: Process) -> Iterator[tuple[str, str, Process]]:
    """Single rewrites applicable at the root of ``q``."""
    match q:
        case Par(a, b):
            yield "par-comm", "LR", Par(b, a)
            if isinstance(a, Par):
                yield "par-assoc", "LR", Par(a.left, Par(a.right, b))
            if isinstance(b, Par):
                yield "par-assoc", "RL", Par(Par(a, b.left), b.right)
            if isinstance(b, Zero):
                yield "par-unit", "LR", a
            if isinstance(b, Repl) and a == b.body:
                yield "repl-unfold", "RL", Repl(a)
            if isinstance(a, New) and a.binder not in free_vars(b):
                yield "scope-extrusion", "LR", New(a.binder, a.annot, Par(a.cont, b))
        case Repl(a):
            yield "repl-unfold", "LR", Par(a, Repl(a))
        case New(x, t, body):
            if isinstance(body, Par) and x not in free_vars(body.right):
                yield "scope-extrusion", "RL", Par(New(x, t, body.left), body.right)
            if isinstance(body, New) and body.binder != x:
                yield "res-swap", "LR", New(body.binder, body.annot, New(x, t, body.cont))
            if isinstance(body, Zero) and is_un_type(t):
                rule = "res-gc-pair" if isinstance(t, ChanType) else "res-gc"
                yield rule, "LR", Zero()
    # The unit law read right to left holds at any subject.
    yield "par-unit", "RL", Par(q, Zero())


def congruence_steps(p: Process) -> list[RewriteStep]:
    """Every single congruence rewrite of ``p``, at every position."""
    steps = []
    for path, q in _positions(p):
        for rule, direction, replacement in _local_steps(q):
            steps.append(RewriteStep(rule, direction, path, replace_at(p, path, replacement)))
    return steps


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def _soup(p: Process, prefix: Path = ()) -> list[tuple[Path, Process]]:
    """Flatten nested parallel compositions below ``p`` into components."""
    if isinstance(p, Par):
        return _soup(p.left, prefix + ("left",)) + _soup(p.right, prefix + ("right",))
    return [(prefix, p)]


@dataclass(frozen=True)
class _Com:
    """A communication redex.  ``binder_path`` is the path of the restriction
    that binds ``chan`` in scope; it is None exactly when ``chan`` is free."""

    chan: str
    out_path: Path
    in_path: Path
    binder_path: Optional[Path]


def _coms(
    p: Process, prefix: Path = (), binders: Optional[dict[str, Path]] = None
) -> Iterator[_Com]:
    """Communication redexes reachable without structural rewriting.

    ``binders`` maps each name restricted on the spine above ``p`` to the
    path of its innermost restriction.
    """
    binders = binders or {}
    match p:
        case New(x, _, body):
            yield from _coms(body, prefix + ("cont",), {**binders, x: prefix})
        case Par(_, _):
            components = _soup(p, prefix)
            for out_path, out in components:
                if not isinstance(out, Output):
                    continue
                for in_path, inp in components:
                    if isinstance(inp, Input) and inp.chan == out.chan:
                        yield _Com(out.chan, out_path, in_path, binders.get(out.chan))
            for path, comp in components:
                if isinstance(comp, New):
                    yield from _coms(comp, path, binders)


def advance_type(t: Type) -> Type:
    """Step both ends of a channel annotation past one communication."""
    if isinstance(t, ChanType):
        return ChanType(_advance_endpoint(t.left), _advance_endpoint(t.right))
    return _advance_endpoint(t)


def _advance_endpoint(s: Endpoint) -> Endpoint:
    h = unfold(s)
    if isinstance(h.pre, (Recv, Send)):
        return h.pre.cont
    return s


def _fire(p: Process, com: _Com) -> Process:
    out: Output = get_at(p, com.out_path)
    inp: Input = get_at(p, com.in_path)
    result = replace_at(p, com.out_path, out.cont)
    result = replace_at(result, com.in_path, substitute(inp.cont, out.arg, inp.binder))
    if com.binder_path is not None:
        node = get_at(result, com.binder_path)
        result = replace_at(result, com.binder_path, _replace(node, annot=advance_type(node.annot)))
    return result


# ``(_UNFOLD, path)`` unfolds the replication at ``path``; ``(_EXTRUDE, soup,
# path)`` extrudes the restriction there out of the soup at ``soup``.  Sorted,
# single rewrites come as a breadth-first search meets them.
_UNFOLD, _EXTRUDE = 0, 1


def _needs(p: Process) -> list[frozenset[tuple]]:
    """The distinct sets of rewrites that bring an output and an input on one
    channel into one soup, fewest first.  A prefix's chain holds the rewrites
    of the replications and restrictions above it; a pair needs the
    restrictions above one prefix only and the replications above either,
    one above both being unfolded once for the pair to meet in the copy."""
    prefixes = []

    def walk(q: Process, path: Path, soup: Path, chain: frozenset[tuple]) -> None:
        match q:
            case Output() | Input():
                prefixes.append((q, chain))
            case Par(left, right):
                walk(left, path + ("left",), soup, chain)
                walk(right, path + ("right",), soup, chain)
            case Repl(body):
                walk(body, path + ("body",), path + ("body",), chain | {(_UNFOLD, path)})
            case New(_, _, body):
                walk(body, path + ("cont",), path + ("cont",), chain | {(_EXTRUDE, soup, path)})

    walk(p, (), (), frozenset())
    needs = {
        (a ^ b) | {r for r in a & b if r[0] == _UNFOLD}
        for out, a in prefixes
        for inp, b in prefixes
        if isinstance(out, Output) and isinstance(inp, Input) and inp.chan == out.chan
    }
    return sorted(needs, key=lambda need: (len(need), sorted(need)))


def _expose(p: Process, need: frozenset[tuple]) -> Process:
    """``p`` with the rewrites of ``need`` applied in one rebuild.

    A needed ``!Q`` becomes ``Q' | !Q``, ``Q'`` being ``Q`` with its own
    needed rewrites.  A needed restriction leaves its place to its body, and
    is stacked, outermost first, right below the nearest restriction kept
    above it; the term is renamed apart, so it captures no name there.
    """
    paths = {rewrite[-1] for rewrite in need}  # the node there is a ``!`` or a ``new``

    def build(q: Process, path: Path, lifted: list[New]) -> Process:
        match q:
            case Par(left, right):
                new_left = build(left, path + ("left",), lifted)
                return Par(new_left, build(right, path + ("right",), lifted), pos=q.pos)
            case Repl(body) if path in paths:
                return Par(build(body, path + ("body",), lifted), q)
            case New(_, _, body) if path in paths:
                lifted.append(q)
                return build(body, path + ("cont",), lifted)
            case New(binder, annot, body):
                return New(binder, annot, soup(body, path + ("cont",)), pos=q.pos)
        return q

    def soup(q: Process, path: Path) -> Process:
        """``q`` rebuilt, under the restrictions lifted out of it."""
        lifted: list[New] = []
        q = build(q, path, lifted)
        for r in reversed(lifted):
            q = New(r.binder, r.annot, q, pos=r.pos)
        return q

    return soup(p, ())


def reduce_step(p: Process) -> list[Process]:
    """All single-step reducts of ``p``."""
    return [reduct for _, reduct in reduce_step_labeled(p)]


def reduce_step_labeled(p: Process) -> list[tuple[str, Process]]:
    """Reducts labeled with the channel the communication fired on.

    They are those of ``p`` renamed apart (``p`` itself if it is already).
    Each distinct need is applied once, fewest rewrites first, and a
    communication (its channel and two prefix subjects) fires only once.
    """
    p = barendregt_rename(p)
    fired = set()
    results: dict[Process, str] = {}
    for need in _needs(p):
        variant = _expose(p, need)
        for com in _coms(variant):
            key = (com.chan, get_at(variant, com.out_path), get_at(variant, com.in_path))
            if key not in fired:
                fired.add(key)
                results.setdefault(_fire(variant, com), com.chan)
    return [(chan, reduct) for reduct, chan in results.items()]


def reduce_trace_labeled(p: Process, max_steps: int) -> list[tuple[str, Process]]:
    """A reduction prefix from ``p``, one (channel, reduct) per step.

    Each step takes the first of the current term's reducts that is least
    by ``str``: a deterministic policy.
    """
    steps = []
    current = p
    for _ in range(max_steps):
        labeled = reduce_step_labeled(current)
        if not labeled:
            break
        chan, current = min(labeled, key=lambda step: str(step[1]))
        steps.append((chan, current))
    return steps

