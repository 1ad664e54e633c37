"""Seeded random generators and parameterized well-typed protocol families.

The random generators deliberately produce small values: types stay within a
handful of states so bounded tree expansion can separate unequal ones, and
processes stay at desk scale.  The protocol families build (context, process)
pairs the checker accepts, for congruence and subject-reduction suites.
"""

from __future__ import annotations

import random

from .contexts import VOID, Context, Entry, Single
from .equality import dual
from .parser import parse_context, parse_process
from .syntax import (
    ChanType,
    End,
    Endpoint,
    Input,
    New,
    Output,
    Par,
    Process,
    Qual,
    Qualified,
    Rec,
    Recv,
    Repl,
    Send,
    Type,
    TypeVar,
    UN_END,
    Zero,
)

# ---------------------------------------------------------------------------
# Random types and contexts
# ---------------------------------------------------------------------------

def gen_endpoint(rng: random.Random, depth: int = 2, rec_var: str | None = None) -> Endpoint:
    """A small closed endpoint type; recursion appears only via ``rec_var``."""
    if depth <= 0:
        leaves = [UN_END, Qualified(Qual.LIN, End())]
        if rec_var is not None:
            leaves.append(TypeVar(rec_var))
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.2:
        return UN_END
    if roll < 0.3 and rec_var is None:
        var = rng.choice("abc")
        body = Qualified(
            rng.choice((Qual.LIN, Qual.UN)),
            rng.choice((Recv, Send))(gen_payload(rng, depth - 1), TypeVar(var)),
        )
        return Rec(var, body)
    qual = rng.choice((Qual.LIN, Qual.UN))
    ctor = rng.choice((Recv, Send))
    return Qualified(qual, ctor(gen_payload(rng, depth - 1), gen_endpoint(rng, depth - 1, rec_var)))


def gen_payload(rng: random.Random, depth: int) -> Type:
    if depth <= 0 or rng.random() < 0.7:
        return UN_END
    return gen_endpoint(rng, depth - 1)


def gen_type(rng: random.Random, depth: int = 2) -> Type:
    if rng.random() < 0.3:
        return ChanType(gen_endpoint(rng, depth - 1), gen_endpoint(rng, depth - 1))
    return gen_endpoint(rng, depth)


def gen_safe_entry(rng: random.Random) -> Entry:
    roll = rng.random()
    if roll < 0.3:
        return Single(gen_endpoint(rng))
    if roll < 0.55:
        side = gen_endpoint(rng)
        pair = ChanType(side, dual(side))
        return pair if rng.random() < 0.5 else ChanType(pair.right, pair.left)
    if roll < 0.7:
        return ChanType(gen_endpoint(rng), VOID)
    if roll < 0.8:
        return ChanType(VOID, gen_endpoint(rng))
    if roll < 0.9:
        return ChanType(gen_endpoint(rng), UN_END)
    if roll < 0.95:
        return ChanType(VOID, VOID)
    return Single(VOID)


def gen_safe_context(rng: random.Random, names: list[str]) -> Context:
    return Context((name, gen_safe_entry(rng)) for name in names)


def gen_process(rng: random.Random, names: list[str], size: int = 6) -> Process:
    """A random (usually ill-typed) process over the given free names."""
    if size <= 1 or not names:
        return Zero()
    roll = rng.random()
    if roll < 0.15:
        split = rng.randint(1, size - 1)
        return Par(
            gen_process(rng, names, split), gen_process(rng, names, size - 1 - split)
        )
    if roll < 0.25:
        return Repl(gen_process(rng, names, size - 1))
    if roll < 0.5:
        return Output(rng.choice(names), rng.choice(names), gen_process(rng, names, size - 1))
    if roll < 0.75:
        binder = f"b{size}_{rng.randint(0, 99)}"
        return Input(
            rng.choice(names), binder, gen_process(rng, names + [binder], size - 1)
        )
    binder = f"n{size}_{rng.randint(0, 99)}"
    return New(binder, gen_type(rng), gen_process(rng, names + [binder], size - 1))


# ---------------------------------------------------------------------------
# Accepted protocol families
# ---------------------------------------------------------------------------

# Endpoint types of the meeting-poll session: receive a title and a date,
# then unboundedly receive extra dates; the other end is the exact dual.
POLL_RECV = "lin ?(un end).lin ?(un end).rec c. un ?(un end).c"
POLL_SEND = "lin !(un end).lin !(un end).rec d. un !(un end).d"
POLL_TAIL = "rec d. un !(un end).d"


def poll_system(n: int = 2, swapped: bool = False) -> tuple[Context, Process]:
    """The meeting-poll service and client.

    The service repeatedly receives a reply channel, opens a fresh poll
    session, delegates the session's send end over the reply channel, then
    collects a title, a date, and any number of extra dates.  The client
    books a poll, sets title and date, and forwards the poll's unrestricted
    tail to ``n`` recipients.
    """
    ctx = parse_context(poll_context_text(n))
    service = parse_process(poll_service_text())
    client = parse_process(poll_client_text(n))
    system = Par(client, service) if swapped else Par(service, client)
    return ctx, system


def poll_service_text() -> str:
    return (
        f"!x?(w).new p: <{POLL_RECV}, {POLL_SEND}>. "
        "w!p.p?(title).p?(date).!p?(extra).0"
    )


def poll_client_text(n: int) -> str:
    forwards = " | ".join(f"z{i}!p.0" for i in range(1, n + 1))
    return f"x!y.y?(p).p!meeting.p!march17.({forwards})"


def poll_context_text(n: int) -> str:
    reply_send = f"lin !({POLL_SEND}).un end"
    reply_recv = f"lin ?({POLL_SEND}).un end"
    lines = [
        f"x : <rec a. un ?({reply_send}).a, rec b. un !({reply_send}).b>",
        f"y : <{reply_send}, {reply_recv}>",
        "meeting : un end",
        "march17 : un end",
    ]
    lines += [f"z{i} : lin !({POLL_TAIL}).un end" for i in range(1, n + 1)]
    return "\n".join(lines)


# A linear channel whose ends receive and send one unrestricted name.
LIN_CHANNEL = "<lin ?(un end).un end, lin !(un end).un end>"


def _linear_channels(names: list[str]) -> Context:
    return parse_context("\n".join([f"{c} : {LIN_CHANNEL}" for c in names] + ["v : un end"]))


def star_system(n: int, clients_first: bool = False) -> tuple[Context, Process]:
    """A server that sends ``v`` once on each of ``n`` linear channels, and
    ``n`` clients that each receive once on one of them.  The server is the
    first thread of the ``|`` soup, or with ``clients_first`` the last."""
    chans = [f"c{k}" for k in range(1, n + 1)]
    server = "".join(f"{c}!v." for c in chans) + "0"
    clients = [f"{c}?(y).0" for c in chans]
    threads = clients + [server] if clients_first else [server] + clients
    return _linear_channels(chans), parse_process(" | ".join(threads))


def ring_system(n: int) -> tuple[Context, Process]:
    """``n`` ≥ 2 threads passing a token round a ring of linear channels:
    thread k receives on ``ck`` and then sends on the next channel, except
    thread 0, which sends on ``c1`` first and receives on ``c0`` last."""
    chans = [f"c{k}" for k in range(n)]
    threads = ["c1!v.c0?(y).0"] + [f"c{k}?(y).c{(k + 1) % n}!v.0" for k in range(1, n)]
    return _linear_channels(chans), parse_process(" | ".join(threads))


def lin_pingpong() -> tuple[Context, Process]:
    ctx = parse_context(
        "x : <lin ?(un end).un end, lin !(un end).un end>\nv : un end"
    )
    return ctx, parse_process("x!v.0 | x?(u).0")


def un_server(k: int = 2) -> tuple[Context, Process]:
    ctx = parse_context(
        "x : <rec a. un ?(un end).a, rec b. un !(un end).b>\nv : un end"
    )
    sends = "0"
    for _ in range(k):
        sends = f"x!v.{sends}"
    return ctx, parse_process(f"!x?(u).0 | {sends}")


def delegation() -> tuple[Context, Process]:
    ctx = parse_context(
        "c : <lin ?(lin !(un end).un end).un end, lin !(lin !(un end).un end).un end>\n"
        "w : lin !(un end).un end\n"
        "v : un end"
    )
    return ctx, parse_process("c!w.0 | c?(r).r!v.0")


def closed_session() -> tuple[Context, Process]:
    ctx = parse_context("v : un end")
    return ctx, parse_process(
        "new c: <lin ?(un end).un end, lin !(un end).un end>. (c!v.0 | c?(u).0)"
    )

