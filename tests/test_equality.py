import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpi import (
    ChanType,
    End,
    Qual,
    Qualified,
    Rec,
    Recv,
    Send,
    TypeVar,
    UN_END,
    dual,
    is_safe_type,
    parse_type,
    type_equal,
    unfold,
)
from sessionpi.equality import io_head
from sessionpi.gen import POLL_RECV, POLL_SEND, gen_endpoint, gen_type
from tests.helpers import expansion_equal
from tests.test_roundtrip import types


def test_unfold_no_rec_is_identity():
    assert unfold(UN_END) == UN_END


def test_unfold_single_substitution():
    t = parse_type("rec a. un ?(un end).a")
    u = unfold(t)
    assert u == parse_type("un ?(un end).rec a. un ?(un end).a")


def test_unfold_two_nested_binders():
    # Hand-unfolding rec a. rec b. lin !(un end).b takes two substitutions:
    # the outer binder is unused, the inner one reappears in the continuation.
    t = parse_type("rec a. rec b. lin !(un end).b")
    inner = Rec("b", Qualified(Qual.LIN, Send(UN_END, TypeVar("b"))))
    expected = Qualified(Qual.LIN, Send(UN_END, inner))
    assert unfold(t) == expected


@pytest.mark.parametrize(
    "s",
    [
        Rec("a", TypeVar("a")),
        Rec("a", Rec("b", TypeVar("a"))),
        Rec("a", Rec("b", TypeVar("b"))),
        Rec("a", Rec("b", Rec("c", TypeVar("a")))),
    ],
    ids=str,
)
def test_non_contractive_type_built_in_code_is_refused(s):
    # The parser refuses these; a library caller can still build them.
    with pytest.raises(ValueError, match="non-contractive"):
        unfold(s)
    with pytest.raises(ValueError, match="non-contractive"):
        type_equal(s, UN_END)
    with pytest.raises(ValueError, match="non-contractive"):
        type_equal(ChanType(UN_END, s), ChanType(UN_END, UN_END))


def test_interchangeable_recursive_pair_types():
    t1 = parse_type("<rec a. lin !(un end).lin ?(un end).a, un end>")
    t2 = parse_type("<un end, lin !(un end).rec b. lin ?(un end).lin !(un end).b>")
    assert type_equal(t1, t2)
    assert type_equal(t2, t1)


def test_reflexivity_on_random_types():
    rng = random.Random(3)
    for _ in range(100):
        t = gen_type(rng)
        assert type_equal(t, t)


def test_equality_is_an_equivalence_on_samples():
    rng = random.Random(4)
    types = [gen_type(rng) for _ in range(40)]
    for a in types:
        assert type_equal(a, a)
    for a in types:
        for b in types:
            assert type_equal(a, b) == type_equal(b, a)
    for a in types:
        for b in types:
            if not type_equal(a, b):
                continue
            for c in types:
                if type_equal(b, c):
                    assert type_equal(a, c)


def test_pair_commutation_always_holds():
    rng = random.Random(5)
    for _ in range(100):
        s1 = gen_endpoint(rng)
        s2 = gen_endpoint(rng)
        assert type_equal(ChanType(s1, s2), ChanType(s2, s1))


def test_unfolding_preserves_equality():
    rng = random.Random(6)
    for _ in range(100):
        s = gen_endpoint(rng)
        assert type_equal(s, unfold(s))


def test_matches_bounded_expansion_oracle():
    rng = random.Random(7)
    for _ in range(200):
        t1 = gen_type(rng)
        t2 = gen_type(rng) if rng.random() < 0.6 else t1
        if rng.random() < 0.25 and not isinstance(t1, ChanType):
            t2 = unfold(t1)  # equal by construction, syntactically different
        assert type_equal(t1, t2) == expansion_equal(t1, t2, depth=12)


@st.composite
def _type_pairs(draw):
    """Two types drawn independently, or a type with one equal to it but
    not identical as a rule: an endpoint's unfolding, a pair's commutation."""
    t = draw(types())
    if draw(st.booleans()):
        return t, draw(types())
    if isinstance(t, ChanType):
        return t, ChanType(t.right, t.left)
    return t, unfold(t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_type_pairs())
def test_type_equal_agrees_with_tree_expansion(pair):
    t1, t2 = pair
    assert type_equal(t1, t2) == expansion_equal(t1, t2)
    assert type_equal(t2, t1) == type_equal(t1, t2)


def test_dual_of_end_is_end():
    assert dual(UN_END) == UN_END


def test_dual_swaps_one_level():
    s = parse_type("lin ?(un end).un end")
    assert dual(s) == parse_type("lin !(un end).un end")


def test_dual_is_an_involution():
    rng = random.Random(8)
    for _ in range(100):
        s = gen_endpoint(rng)
        assert type_equal(dual(dual(s)), s)


def test_dual_relates_the_two_poll_endpoints():
    recv_side = parse_type(POLL_RECV)
    send_side = parse_type(POLL_SEND)
    assert type_equal(dual(recv_side), send_side)
    assert type_equal(dual(send_side), recv_side)


def test_dual_keeps_payloads():
    s = parse_type("lin ?(lin !(un end).un end).un end")
    d = dual(s)
    assert d == parse_type("lin !(lin !(un end).un end).un end")


def _naive_dual(s):
    """Swap send/receive everywhere below ``rec`` binders too, payloads left
    as they are: wrong once a recursion variable occurs in a payload."""
    match s:
        case Qualified(q, Recv(payload, cont)):
            return Qualified(q, Send(payload, _naive_dual(cont)))
        case Qualified(q, Send(payload, cont)):
            return Qualified(q, Recv(payload, _naive_dual(cont)))
        case Rec(var, body):
            return Rec(var, _naive_dual(body))
    return s


def _payload_recursive(rng, depth, bound=(), payload=False):
    """A closed contractive endpoint whose recursion variables may occur in
    payloads as well as in tail position.  Only a payload may end in
    ``lin end``, since a pair of ``lin end`` ends is not safe."""
    leaves = [UN_END, *map(TypeVar, bound)]
    if payload:
        leaves.append(Qualified(Qual.LIN, End()))
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return rng.choice(leaves)
    if roll < 0.45:
        var = rng.choice("ab")  # two names, so inner binders may shadow
        return Rec(var, _prefix(rng, depth, bound + (var,)))
    return _prefix(rng, depth, bound)


def _prefix(rng, depth, bound):
    payload = _payload_recursive(rng, depth - 1, bound, payload=True)
    cont = _payload_recursive(rng, depth - 1, bound)
    ctor = rng.choice((Recv, Send))
    return Qualified(rng.choice((Qual.LIN, Qual.UN)), ctor(payload, cont))


def test_dual_of_a_recursion_variable_in_a_payload():
    s = parse_type("rec a. un !(a).a")
    assert dual(s) is parse_type("rec a. un ?(rec a. un !(a).a).a")
    assert is_safe_type(ChanType(s, dual(s)))
    assert not is_safe_type(ChanType(s, _naive_dual(s)))


def test_dual_is_safe_and_an_involution_with_payload_recursion():
    rng = random.Random(64)
    payload_recursive = naive_unsafe = 0
    for _ in range(2_000):
        s = _payload_recursive(rng, 4)
        assert is_safe_type(ChanType(s, dual(s))), s
        assert type_equal(dual(dual(s)), s), s
        if dual(s) is not _naive_dual(s):
            payload_recursive += 1
            naive_unsafe += not is_safe_type(ChanType(s, _naive_dual(s)))
    assert payload_recursive > 300 and naive_unsafe > 100


def test_dual_without_payload_recursion_is_the_naive_swap():
    rng = random.Random(65)
    for _ in range(500):
        s = gen_endpoint(rng, depth=3)
        assert dual(s) is _naive_dual(s)


def test_io_head_linear_send_and_receive():
    send = parse_type("lin !(un end).un end")
    recv = parse_type("lin ?(un end).un end")
    assert io_head(send, Send) == send
    assert io_head(recv, Recv) == recv


def test_io_head_unrestricted_prefix_repeating_itself():
    t = parse_type("rec a. un ?(un end).a")
    assert io_head(t, Recv) == unfold(t)


def test_io_head_unrestricted_prefix_not_repeating_is_none():
    assert io_head(parse_type("un !(un end).un end"), Send) is None


def test_io_head_wrong_direction_is_none():
    assert io_head(parse_type("lin !(un end).un end"), Recv) is None
    assert io_head(parse_type("rec a. un ?(un end).a"), Send) is None


def test_io_head_un_end_is_none():
    assert io_head(UN_END, Send) is None
    assert io_head(UN_END, Recv) is None
