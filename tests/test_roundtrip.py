"""Round trips through the printer and the parsers: ``pretty`` then parse
gives the value back, for generated processes, types and contexts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpi import (
    VOID,
    ChanType,
    Context,
    End,
    Input,
    New,
    Output,
    Par,
    Qual,
    Qualified,
    Rec,
    Recv,
    Repl,
    Send,
    Single,
    TypeVar,
    Zero,
    parse_context,
    parse_process,
    parse_type,
    pretty,
)

NAMES = ("x", "y", "z", "w")
TYPE_VARS = ("a", "b", "c")
ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def endpoints(draw, scope=frozenset(), chain=frozenset(), depth=3):
    """A closed, contractive endpoint type.  ``scope`` holds the recursion
    variables bound above; ``chain`` those bound by the ``rec``s since the
    last prefix, which may not occur yet."""
    usable = sorted(scope - chain)
    kinds = ["end"] + (["var"] if usable else []) + (["prefix", "rec"] if depth > 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return TypeVar(draw(st.sampled_from(usable)))
    if kind == "rec":
        var = draw(st.sampled_from(TYPE_VARS))
        return Rec(var, draw(endpoints(scope | {var}, chain | {var}, depth - 1)))
    qual = draw(st.sampled_from(Qual))
    if kind == "end":
        return Qualified(qual, End())
    ctor = draw(st.sampled_from((Recv, Send)))
    payload = draw(types(scope, depth - 1))
    return Qualified(qual, ctor(payload, draw(endpoints(scope, frozenset(), depth - 1))))


@st.composite
def types(draw, scope=frozenset(), depth=3):
    if draw(st.booleans()):
        return draw(endpoints(scope, depth=depth))
    return ChanType(draw(endpoints(scope, depth=depth)), draw(endpoints(scope, depth=depth)))


@st.composite
def processes(draw, depth=5):
    kind = draw(st.sampled_from(("0", "|", "!", "out", "in", "new") if depth > 0 else ("0",)))
    name = st.sampled_from(NAMES)
    if kind == "0":
        return Zero()
    if kind == "|":
        return Par(draw(processes(depth - 1)), draw(processes(depth - 1)))
    if kind == "!":
        return Repl(draw(processes(depth - 1)))
    if kind == "out":
        return Output(draw(name), draw(name), draw(processes(depth - 1)))
    if kind == "in":
        return Input(draw(name), draw(name), draw(processes(depth - 1)))
    return New(draw(name), draw(types(depth=2)), draw(processes(depth - 1)))


items = st.one_of(st.just(VOID), endpoints())
entries = st.one_of(st.builds(Single, items), st.builds(ChanType, items, items))


@st.composite
def contexts(draw):
    names = draw(st.lists(st.sampled_from(NAMES), unique=True))
    return Context((name, draw(entries)) for name in names)


@ROUND_TRIP
@given(processes())
def test_process_round_trips(p):
    assert parse_process(pretty(p)) == p


@ROUND_TRIP
@given(types())
def test_type_round_trips(t):
    assert parse_type(pretty(t)) is t


@ROUND_TRIP
@given(contexts())
def test_context_round_trips(g):
    assert parse_context(pretty(g)) == g
