"""Hash-consed types: structurally equal types are one object, built,
parsed, unfolded, dualized, copied or unpickled."""

import copy
import pickle
import random

from sessionpi import ChanType, End, Qual, Qualified, Send, UN_END, dual, parse_type, unfold
from sessionpi.gen import gen_type
from tests.test_acceptance import U6


def _deep_send_chain(depth: int):
    t = UN_END
    for _ in range(depth):
        t = Qualified(Qual.LIN, Send(UN_END, t))
    return t


def test_deep_types_hash_and_compare_without_recursion():
    # `lin !(un end). … un end`, 10,000 prefixes deep, built bottom-up twice.
    first, second = _deep_send_chain(10_000), _deep_send_chain(10_000)
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert second in {first}
    assert first is second


def test_parsing_the_same_text_twice_gives_one_object():
    text = "<rec a. lin ?(un end).a, rec b. lin !(un end).b>"
    assert parse_type(text) is parse_type(text)
    assert End() is End()


def test_interning_invariants_on_the_universe_and_random_types():
    rng = random.Random(5)
    for t in list(U6) + [gen_type(rng) for _ in range(200)]:
        assert parse_type(str(t)) is t, t
        assert copy.copy(t) is t, t
        assert copy.deepcopy(t) is t, t
        assert pickle.loads(pickle.dumps(t)) is t, t
        for s in (t.left, t.right) if isinstance(t, ChanType) else (t,):
            assert unfold(s) is unfold(s), s
            assert dual(dual(s)) is s, s
