"""Hash-consed types and context entries: structurally equal ones are one
object, built, parsed, unfolded, dualized, copied or unpickled; and the memo
keyed by them keeps ``None`` answers and no errors."""

import copy
import pickle
import random

import pytest

from sessionpi import (
    VOID,
    ChanType,
    Context,
    ContextAlgebraError,
    End,
    Qual,
    Qualified,
    Rec,
    Recv,
    Send,
    Single,
    TypeVar,
    UN_END,
    Void,
    closure,
    dual,
    entry_of_type,
    nabla,
    parse_context,
    parse_entry,
    parse_type,
    unfold,
)
from sessionpi.gen import gen_safe_context, gen_type
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


def test_repr_of_a_deep_context_needs_no_recursion():
    g = parse_context("x : " + "un !(" * 300 + "un end" + ").un end" * 300)
    text = repr(g)
    assert text.startswith("Context({'x': Single(item=Qualified(qual=<Qual.UN: 'un'>, pre=Send(")
    assert text.count("Send(") == 300
    assert repr(_deep_send_chain(10_000)).count("Send(") == 10_000


def test_repr_of_an_entry_is_the_dataclass_text():
    e = parse_entry("<lin !(un end).rec a. un ?(un end).a, void>")
    end = "Qualified(qual=<Qual.UN: 'un'>, pre=End())"
    assert repr(e) == (
        f"ChanType(left=Qualified(qual=<Qual.LIN: 'lin'>, pre=Send(payload={end}, cont="
        f"Rec(var='a', body=Qualified(qual=<Qual.UN: 'un'>, pre=Recv(payload={end}, "
        "cont=TypeVar(name='a')))))), right=Void())"
    )
    assert repr(parse_entry("lin !(un end).un end")) == (
        f"Single(item=Qualified(qual=<Qual.LIN: 'lin'>, pre=Send(payload={end}, cont={end})))"
    )


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


def test_parsing_the_same_entry_twice_gives_one_object():
    text = "<rec a. lin ?(un end).a, void>"
    assert parse_entry(text) is parse_entry(text)
    assert parse_entry("◦") is parse_entry("void") is Single(VOID)
    assert Void() is VOID


def test_entry_interning_survives_copies_and_pickles():
    u6_contexts = [Context([("x", entry_of_type(t))]) for t in U6]
    entries = [e for g in u6_contexts + [nabla(g) for g in u6_contexts] for _, e in g.items()]
    rng = random.Random(6)
    entries += [gen_safe_context(rng, ["x"]).get("x") for _ in range(200)]
    assert any(isinstance(e, ChanType) and VOID in (e.left, e.right) for e in entries)
    for e in entries:
        assert parse_entry(str(e)) is e, e
        assert copy.copy(e) is e, e
        assert copy.deepcopy(e) is e, e
        assert pickle.loads(pickle.dumps(e)) is e, e


def test_contexts_over_reordered_names_compare_and_hash_equal():
    one = Context([("x", parse_entry("<lin ?(un end).un end, ◦>")), ("y", parse_entry("un end"))])
    other = Context([("y", parse_entry("un end")), ("x", parse_entry("<lin ?(un end).un end, void>"))])
    assert one._index is not other._index
    assert one == other and hash(one) == hash(other)
    assert one != other.set("y", parse_entry("void"))


def test_qualifiers_hash_by_identity():
    # Interning keys hash their qualifier at C speed, not through Enum.__hash__.
    assert Qual.__hash__ is object.__hash__
    assert {Qual.LIN: 1, Qual.UN: 2}[Qual.UN] == 2


def test_a_failing_unfold_is_not_kept():
    s = Rec("a", Rec("b", TypeVar("a")))  # non-contractive, built in code
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot unfold non-contractive type"):
            unfold(s)


@pytest.mark.parametrize(
    "g1, g2, message",
    [
        ("x : un end", "x : lin !(un end).un end", "un end ▷ lin !(un end).un end is undefined"),
        ("x : un end", "x : <un end, un end>", "entry shapes for x differ: un end vs <un end, un end>"),
    ],
)
def test_an_undefined_closure_raises_the_same_message_twice(g1, g2, message):
    for _ in range(2):
        with pytest.raises(ContextAlgebraError) as err:
            closure(parse_context(g1), parse_context(g2))
        assert str(err.value) == message


def test_a_none_io_head_is_kept(monkeypatch):
    from sessionpi import equality

    # A type no other test asks for, so that the first call below computes.
    s = _deep_send_chain(37)
    unfolds = []
    original = equality.unfold
    monkeypatch.setattr(equality, "unfold", lambda t: unfolds.append(t) or original(t))
    assert equality.io_head(s, Recv) is None
    assert equality.io_head(s, Recv) is None
    assert unfolds == [s]
