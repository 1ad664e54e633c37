"""Structural congruence as a one-step rewrite system, and reduction.

Congruence rewrites are enumerated one application at a time, at every
position, in both directions for the six invertible laws (commutativity,
associativity, the 0 unit, replication unfolding, scope extrusion,
restriction swap); the two garbage-collection laws for restricted 0 only
erase.  Full congruence closure is never decided (replication unfolding
makes it non-terminating); property suites only ever need single steps.

Reduction enumerates communication redexes: an output and an input on the
same channel sitting in the same parallel soup (the flattening of nested
compositions, which absorbs commutativity and associativity).  Redexes
hidden behind replication or an inner restriction are exposed by a bounded
search over the rewrites that can reveal them: replication unfolding and
extruding a restriction out of its soup.

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
    head, rest = path[0], path[1:]
    child = replace_at(getattr(p, head), rest, new)
    match p:
        case Par(left, right):
            return Par(child, right, pos=p.pos) if head == "left" else Par(left, child, pos=p.pos)
        case Repl(_):
            return Repl(child, pos=p.pos)
        case Output(chan, arg, _):
            return Output(chan, arg, child, pos=p.pos)
        case Input(chan, binder, _):
            return Input(chan, binder, child, pos=p.pos)
        case New(binder, annot, _):
            return New(binder, annot, child, pos=p.pos)
    raise TypeError(f"no child {head} in {p!r}")


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
            if isinstance(body, New):
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
        case _:
            return


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
        result = replace_at(
            result, com.binder_path, New(node.binder, advance_type(node.annot), node.cont)
        )
    return result


def _active_positions(p: Process, prefix: Path = ()) -> Iterator[tuple[Path, Process]]:
    """Positions reachable without passing a prefix or a replication: the
    only places where redex-exposing rewrites can matter."""
    yield prefix, p
    if isinstance(p, Par):
        yield from _active_positions(p.left, prefix + ("left",))
        yield from _active_positions(p.right, prefix + ("right",))
    elif isinstance(p, New):
        yield from _active_positions(p.cont, prefix + ("cont",))


def _expose_steps(p: Process) -> Iterator[Process]:
    """Rewrites that can reveal new redexes: unfolding an active replication,
    and extruding a restriction out of its parallel soup."""
    for path, q in _active_positions(p):
        if isinstance(q, Repl):
            yield replace_at(p, path, Par(q.body, Repl(q.body)))
    for path, q in _active_positions(p):
        # Only maximal parallel regions count as soups.
        if not isinstance(q, Par) or (path and isinstance(get_at(p, path[:-1]), Par)):
            continue
        components = _soup(q, path)
        for comp_path, comp in components:
            if not isinstance(comp, New):
                continue
            others = [c for cp, c in components if cp != comp_path]
            if any(comp.binder in free_vars(o) for o in others):
                continue
            region = replace_at(p, comp_path, comp.cont)
            region_soup = get_at(region, path)
            yield replace_at(p, path, New(comp.binder, comp.annot, region_soup))


def reduce_step(p: Process, radius: int = 3) -> list[Process]:
    """All single-step reducts of ``p``.

    Communication pairs are matched inside parallel soups, which absorbs
    commutativity and associativity; ``radius`` bounds how many
    redex-exposing rewrites may be applied first.
    """
    return [reduct for _, reduct in reduce_step_labeled(p, radius)]


def reduce_step_labeled(p: Process, radius: int = 3) -> list[tuple[str, Process]]:
    """Reducts labeled with the channel the communication fired on.

    A communication is identified by its channel and the two prefix subjects;
    only its first occurrence over the exposure search fires, so extra
    replication unfoldings do not multiply equivalent reducts.
    """
    results: list[tuple[str, Process]] = []
    seen_results = set()
    seen_coms = set()
    frontier = [p]
    visited = {p}
    for _ in range(radius + 1):
        for variant in frontier:
            for com in _coms(variant):
                key = (com.chan, get_at(variant, com.out_path), get_at(variant, com.in_path))
                if key in seen_coms:
                    continue
                seen_coms.add(key)
                reduct = _fire(variant, com)
                if reduct not in seen_results:
                    seen_results.add(reduct)
                    results.append((com.chan, reduct))
        next_frontier = []
        for variant in frontier:
            for exposed in _expose_steps(variant):
                if exposed not in visited:
                    visited.add(exposed)
                    next_frontier.append(exposed)
        frontier = next_frontier
        if not frontier:
            break
    return results


def reduce_trace_labeled(p: Process, max_steps: int, radius: int = 3) -> list[tuple[str, Process]]:
    """A reduction prefix from ``p``, one (channel, reduct) per step.

    Each step renames the current term apart and takes the first of its
    reducts that is least by ``str``: a deterministic policy.
    """
    steps = []
    current = p
    for _ in range(max_steps):
        labeled = reduce_step_labeled(barendregt_rename(current), radius)
        if not labeled:
            break
        chan, current = min(labeled, key=lambda step: str(step[1]))
        steps.append((chan, current))
    return steps

