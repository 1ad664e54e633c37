import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpi import (
    VOID,
    ChanType,
    Context,
    ContextAlgebraError,
    Single,
    closure,
    context_equal,
    is_safe_context,
    is_safe_entry,
    is_un_context,
    is_un_entry,
    nabla,
    parse_context,
    parse_entry,
    parse_type,
    pretty,
    to_decl_context,
    update_context,
    update_entry,
    used_map,
)
from sessionpi.contexts import entry_equal, entry_of_type, is_un_type, type_of_entry
from sessionpi.gen import gen_safe_context, gen_safe_entry, poll_context_text
from sessionpi.syntax import render

LIN_IN = parse_type("lin ?(un end).un end")
LIN_OUT = parse_type("lin !(un end).un end")
UN_IN = parse_type("un ?(un end).un end")
E = parse_type("un end")


def test_entry_parsing_accepts_void_aliases():
    assert parse_entry("void") == Single(VOID)
    assert parse_entry("◦") == Single(VOID)
    assert parse_entry("<void, un end>") == ChanType(VOID, E)


def test_entry_round_trip_through_pretty():
    for text in ("void", "<◦, ◦>", "<lin ?(un end).un end, void>"):
        e = parse_entry(text)
        assert parse_entry(str(e)) == e


def test_safe_entry_matching_lin_pair():
    assert is_safe_entry(ChanType(LIN_IN, LIN_OUT))
    assert is_safe_entry(ChanType(LIN_OUT, LIN_IN))


def test_safe_entry_rejects_double_send():
    assert not is_safe_entry(ChanType(LIN_OUT, LIN_OUT))


def test_safe_entry_void_or_end_side():
    assert is_safe_entry(ChanType(LIN_OUT, VOID))
    assert is_safe_entry(ChanType(VOID, LIN_OUT))
    assert is_safe_entry(ChanType(LIN_OUT, E))
    assert is_safe_entry(Single(LIN_OUT))


def test_safe_entry_mismatched_payloads():
    deep = parse_type("lin ?(lin !(un end).un end).un end")
    assert not is_safe_entry(ChanType(deep, LIN_OUT))


def test_safe_entry_recursive_session():
    left = parse_type("rec a. lin ?(un end).a")
    right = parse_type("rec b. lin !(un end).b")
    assert is_safe_entry(ChanType(left, right))


def test_safe_entry_invariant_under_commutation():
    rng = random.Random(21)
    for _ in range(200):
        e = gen_safe_entry(rng)
        if isinstance(e, ChanType):
            assert is_safe_entry(ChanType(e.right, e.left)) == is_safe_entry(e)


def test_poll_context_is_safe():
    assert is_safe_context(parse_context(poll_context_text(3)))


def test_poll_session_pair_is_safe():
    from sessionpi.gen import POLL_RECV, POLL_SEND

    assert is_safe_entry(ChanType(parse_type(POLL_RECV), parse_type(POLL_SEND)))


def test_used_map_output_is_void_free():
    from sessionpi import ChanType, Void

    rng = random.Random(23)
    for _ in range(100):
        decl = used_map(gen_safe_context(rng, ["x", "y", "z"]))
        for _, t in decl.items():
            pieces = (t.left, t.right) if isinstance(t, ChanType) else (t,)
            assert not any(isinstance(piece, Void) for piece in pieces)


def test_empty_context_is_safe_and_un():
    assert is_safe_context(Context())
    assert is_un_context(Context())


def test_unsafe_context_detected():
    g = Context([("x", ChanType(LIN_OUT, LIN_OUT))])
    assert not is_safe_context(g)


def test_un_predicate():
    assert is_un_type(VOID)
    assert not is_un_entry(Single(parse_type("lin end")))
    assert is_un_entry(ChanType(UN_IN, VOID))
    assert is_un_context(Context([("x", Single(VOID)), ("y", Single(E))]))
    assert not is_un_context(Context([("x", Single(parse_type("lin end")))]))


def test_update_entry_fills_void():
    g = Context([("x", Single(VOID))])
    assert update_entry(g, "x", E) == Context([("x", Single(E))])


def test_update_entry_rejects_occupied_slot():
    g = Context([("x", Single(E))])
    with pytest.raises(ContextAlgebraError):
        update_entry(g, "x", E)


def test_closure_lin_vs_void():
    g1 = Context([("x", Single(LIN_IN))])
    g2 = Context([("x", Single(VOID))])
    assert closure(g1, g2) == g1


def test_closure_pair_pointwise():
    # One session thread consumed the right end: <l1,l2> ▷ <l1,◦> = <◦,l2>.
    g2 = Context([("x", ChanType(LIN_IN, LIN_OUT))])
    g3 = Context([("x", ChanType(LIN_IN, VOID))])
    assert closure(g2, g3) == Context([("x", ChanType(VOID, LIN_OUT))])


def test_closure_undefined_combination():
    g1 = Context([("x", Single(E))])
    g2 = Context([("x", Single(parse_type("lin end")))])
    with pytest.raises(ContextAlgebraError):
        closure(g1, g2)


def test_used_map_reads_void_as_un_end():
    g = Context([("x", Single(VOID))])
    assert used_map(g).get("x") == E


def test_used_map_keeps_types():
    g = Context([("x", Single(LIN_IN)), ("y", ChanType(VOID, LIN_OUT))])
    decl = used_map(g)
    assert decl.get("x") == LIN_IN
    assert decl.get("y").left == E
    assert decl.get("y").right == LIN_OUT


def test_nabla_voids_linear_slots():
    g = Context(
        [
            ("a", Single(LIN_IN)),
            ("b", ChanType(LIN_IN, VOID)),
            ("c", ChanType(UN_IN, UN_IN)),
            ("d", Single(VOID)),
        ]
    )
    out = nabla(g)
    assert out.get("a") == Single(VOID)
    assert out.get("b") == ChanType(VOID, VOID)
    assert out.get("c") == ChanType(UN_IN, UN_IN)
    assert out.get("d") == Single(VOID)


def test_nabla_idempotent_and_neutral_for_update():
    rng = random.Random(22)
    for _ in range(100):
        g = gen_safe_context(rng, ["x", "y"])
        assert nabla(nabla(g)) == nabla(g)
        assert context_equal(update_context(nabla(g), g), g)


def test_update_context_void_fills():
    g1 = Context([("x", Single(VOID))])
    g2 = Context([("x", Single(LIN_IN))])
    assert update_context(g1, g2) == g2
    assert update_context(g2, g1) == g2


def test_update_context_lin_collision():
    g = Context([("x", Single(LIN_IN))])
    with pytest.raises(ContextAlgebraError):
        update_context(g, g)


def test_decl_context_conversion_rejects_void():
    g = Context([("x", ChanType(VOID, E))])
    with pytest.raises(ContextAlgebraError):
        to_decl_context(g)


def test_a_pair_entry_is_its_channel_type():
    # One interned kind holds both ends of a channel, as a type and as a
    # context entry; only an entry may hold ◦ at either end.
    for text in (
        "<lin ?(un end).un end, lin !(un end).un end>",
        "<rec a. un ?(un end).a, rec b. un !(un end).b>",
        "<un end, un end>",
    ):
        t = parse_type(text)
        assert entry_of_type(t) is t
        assert parse_entry(text) is t
    consumed = parse_entry("<◦, lin !(un end).un end>")
    assert consumed is ChanType(VOID, LIN_OUT)
    assert render(consumed) == "<◦, lin !(un end).un end>"
    assert parse_entry(render(consumed)) is consumed
    with pytest.raises(ContextAlgebraError):
        to_decl_context(Context([("x", consumed)]))


def test_entry_type_conversion_round_trip():
    for text in ("un end", "<lin ?(un end).un end, lin !(un end).un end>"):
        t = parse_type(text)
        assert type_of_entry(entry_of_type(t)) == t


def test_context_pretty_round_trip():
    rng = random.Random(24)
    for _ in range(50):
        g = gen_safe_context(rng, ["x", "y", "z'"])
        assert parse_context(pretty(g)) == g


# ---------------------------------------------------------------------------
# Context against a plain-dict model
# ---------------------------------------------------------------------------

# A pool of names wider than two chunks: the model's contexts are flat (at
# most 32 names) or chunked, and runs cross 32 names in both directions.
NAMES = tuple(f"n{k}" for k in range(80))
ENTRIES = (Single(E), Single(LIN_IN), Single(VOID), ChanType(LIN_IN, LIN_OUT), ChanType(VOID, E))
WIDTH = 32

# Adds outnumber removes, and each op aims at a name through ``_target``.
_op = st.tuples(
    st.sampled_from(["add", "add", "add", "set", "remove", "remove", "back", "recent"]),
    st.integers(min_value=0),
    st.sampled_from(ENTRIES),
)


def _target(model: dict, op: str, i: int) -> str:
    """The name ``op`` aims at: one it can act on (a name of the pool not
    in ``model`` for ``add``, one in it for ``set`` and ``remove``), or
    every eighth time any name of the pool, which may give a KeyError."""
    names = [n for n in NAMES if n not in model] if op == "add" else list(model)
    if names and i % 8:
        return names[i % len(names)]
    return NAMES[i // 8 % len(NAMES)]


def _agrees(g: Context, model: dict):
    assert list(g.items()) == list(model.items())
    assert g.names() == frozenset(model)
    assert len(g) == len(model)
    assert g.canonical() == tuple(sorted(model.items()))
    assert g._index.positions == {n: i for i, n in enumerate(g._index.names)}
    # At most 32 names hold one tuple; more hold full 32-wide chunks and
    # a last chunk of the rest.
    flat = tuple(model.values())
    if len(model) <= WIDTH:
        assert g._entries == flat
    else:
        assert g._entries == tuple(flat[k : k + WIDTH] for k in range(0, len(flat), WIDTH))
    for name in NAMES:
        assert g.get(name) == model.get(name)
        assert (name in g) == (name in model)
    assert g == Context(reversed(list(model.items())))
    assert hash(g) == hash(Context(reversed(list(model.items()))))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.integers(0, 8), st.integers(24, 40), st.integers(0, 48)),
    st.lists(_op, min_size=10, max_size=60),
)
def test_context_agrees_with_a_dict_model(size, ops):
    # Start from ``size`` names added one by one: a few names, as in small
    # programs, or near 32, so that runs start on both sides of 32 names
    # and cross it both ways.
    model = {}
    g = Context()
    for k, name in enumerate(NAMES[:size]):
        model[name] = ENTRIES[k % len(ENTRIES)]
        g = g.add(name, model[name])
    _agrees(g, model)
    history = [(g, model)]
    for op in ops:
        # Go back to an earlier context, or to one of the last four, so
        # that later steps derive from contexts whose indexes already have
        # derived ones: from a flat context after deep ones, and the other
        # way round.
        if op[0] == "back":
            g, model = history[op[1] % len(history)]
            continue
        if op[0] == "recent":
            g, model = history[-1 - op[1] % min(4, len(history))]
            continue
        name = _target(model, op[0], op[1])
        expected_error = (name in model) == (op[0] == "add")
        try:
            if op[0] == "set":
                g = g.set(name, op[2])
            elif op[0] == "add":
                g = g.add(name, op[2])
            else:
                g = g.remove(name)
        except KeyError:
            assert expected_error, op
            continue
        assert not expected_error, op
        model = dict(model)
        if op[0] == "remove":
            del model[name]
        else:
            model[name] = op[2]
        _agrees(g, model)
        history.append((g, model))
    for g1, m1 in history:
        for g2, m2 in history:
            assert (g1 == g2) == (m1 == m2)
            if m1 == m2:
                assert hash(g1) == hash(g2)


def test_derived_contexts_share_their_index():
    g = Context([("x", Single(LIN_IN)), ("y", Single(E))])
    assert g.set("x", Single(VOID))._index is g._index
    # Adding and then removing a name gives the index back.
    assert g.add("z", Single(E)).remove("z")._index is g._index
    assert g.add("z", Single(E))._index is g.add("z", Single(VOID))._index
    assert used_map(g)._index is g._index and nabla(g)._index is g._index
    assert closure(g, g.set("x", Single(VOID)))._index is g._index
    grown = g.add("z", Single(E))
    for copied in (pickle.loads(pickle.dumps(grown)), copy.deepcopy(grown)):
        assert copied == grown and list(copied.items()) == list(grown.items())


def test_nested_adds_removed_in_reverse_give_back_the_first_index():
    first = g = Context([("x", Single(E))])
    names = [f"n{i}" for i in range(500)]
    for k, name in enumerate(names):
        g = g.add(name, Single(LIN_IN if k % 2 else VOID))
        assert g._index.positions[name] == k + 1 == len(g) - 1
    assert g._index.positions == {n: i for i, n in enumerate(["x", *names])}
    for name in reversed(names):
        g = g.remove(name)
    assert g._index is first._index and g == first


def test_a_step_on_a_large_context_copies_one_chunk():
    # Over 1,000 names the entries are 32 chunks, and a step shares with
    # the context it came from every chunk it did not change.
    names = [f"n{k}" for k in range(1000)]
    g = Context((name, Single(LIN_IN)) for name in names)
    chunks = g._entries
    assert len(chunks) == 32 and all(len(chunk) == WIDTH for chunk in chunks[:-1])
    for name in ("n0", "n31", "n32", "n500", "n999"):
        changed = g.set(name, Single(VOID))._entries
        assert len(changed) == len(chunks)
        assert sum(a is not b for a, b in zip(chunks, changed)) == 1, name
    grown = g.add("fresh", Single(E))._entries
    assert all(a is b for a, b in zip(chunks[:-1], grown))
    back = g.add("fresh", Single(E)).remove("fresh")._entries
    assert len(back) == len(chunks) and all(a is b for a, b in zip(chunks[:-1], back))
    assert back[-1] == chunks[-1]
    # Removing a name keeps the chunks before its own, and moves each later
    # chunk down one entry.
    shifted = g.remove("n500")
    assert all(a is b for a, b in zip(chunks[:15], shifted._entries[:15]))
    assert not any(a is b for a, b in zip(chunks[15:], shifted._entries[15:]))
    assert len(shifted._entries) == 32 and len(shifted._entries[-1]) == len(chunks[-1]) - 1
    assert list(shifted.items()) == [(name, Single(LIN_IN)) for name in names if name != "n500"]


def _entrywise(op, *contexts):
    """``op`` on ``contexts`` computed one name at a time, each on
    one-name contexts, which hold a flat tuple: the items of the result,
    or the text of the first error, as ``_algebra_outcome`` gives them."""
    items = []
    for name, _ in contexts[0].items():
        got = _algebra_outcome(op, *(Context([(name, g.get(name))]) for g in contexts))
        if got[0] == "error":
            return got
        items += got
    return items


@pytest.mark.parametrize("size", [31, 32, 33, 64, 65, 300])
def test_chunked_contexts_agree_with_a_flat_reference(size):
    rng = random.Random(size)
    names = [f"x{k}" for k in range(size)]
    g = gen_safe_context(rng, names)
    spent = nabla(g)
    mixed = g.with_entries(rng.choice([e, spent.get(n)]) for n, e in g.items())
    reordered = Context(reversed(list(mixed.items())))
    for other in (g, spent, mixed, reordered):
        for op in (closure, update_context):
            assert _algebra_outcome(op, g, other) == _entrywise(op, g, other)
            assert _algebra_outcome(op, other, g) == _entrywise(op, other, g)
    assert _algebra_outcome(closure, g, g.remove(names[-1]).add("w", Single(E)))[0] == "error"
    for h in (g, spent, mixed):
        assert list(used_map(h).items()) == _entrywise(used_map, h)
        assert list(nabla(h).items()) == _entrywise(nabla, h)
        entries = [e for _, e in h.items()]
        assert is_safe_context(h) == all(map(is_safe_entry, entries))
        assert is_un_context(h) == all(map(is_un_entry, entries))
        for copied in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
            assert copied == h and list(copied.items()) == list(h.items())
            assert copied._entries == h._entries
    entries = [rng.choice(ENTRIES) for _ in names]
    assert list(g.with_entries(entries).items()) == list(zip(names, entries))
    kept = tuple(n for n in names if rng.random() < 0.6)
    sub = g.subcontext(kept, tuple(g.get(n) for n in kept))
    assert list(sub.items()) == [(n, g.get(n)) for n in kept] and sub == Context(sub.items())
    # context_equal reads types up to unfolding: an unfolded recursive type
    # is another interned type, but an equal one.
    rec = Single(parse_type("rec a. un !(un end).a"))
    unfolded = Single(parse_type("un !(un end).rec a. un !(un end).a"))
    last = names[-1]
    pairs = [(g, h) for h in (g, spent, mixed, reordered, Context(reversed(list(g.items()))))]
    pairs += [(g.set(n, rec), g.set(n, unfolded)) for n in (names[0], last)]
    pairs += [(g.set(last, rec), g.set(last, Single(VOID))), (g, g.remove(last))]
    for g1, g2 in pairs:
        want = g1.names() == g2.names() and all(entry_equal(e, g2.get(n)) for n, e in g1.items())
        assert context_equal(g1, g2) == context_equal(g2, g1) == want
    assert context_equal(g.set(last, rec), g.set(last, unfolded))
    assert g.set(last, rec) != g.set(last, unfolded)
    for name in (names[0], names[size // 2], last):
        assert not is_safe_context(spent.set(name, ChanType(LIN_OUT, LIN_OUT)))
        assert is_un_context(spent.set(name, Single(E)))
        assert not is_un_context(spent.set(name, Single(LIN_IN)))


def test_a_context_prints_each_entry_once(monkeypatch):
    import sessionpi.contexts as contexts

    printed = []
    render = contexts.render
    monkeypatch.setattr(contexts, "render", lambda e: printed.append(e) or render(e))
    entry = Single(parse_type("rec printed_once. lin !(un end).printed_once"))
    g = Context((f"x{i}", entry) for i in range(50))
    text = "rec printed_once. lin !(un end).printed_once"
    assert str(g) == ", ".join(f"x{i}: {text}" for i in range(50))
    assert pretty(g) == "\n".join(f"x{i} : {text}" for i in range(50))
    assert printed == [entry]


def _algebra_outcome(op, *args):
    """``op(*args)`` with its items in order, or its ContextAlgebraError's text."""
    try:
        return list(op(*args).items())
    except ContextAlgebraError as err:
        return ("error", str(err))


def _algebra_pairs():
    """Context pairs for the memoized algebra: every ordered pair of one
    table row's contexts (one index each), then seeded safe contexts over
    the same names, over reordered names, and over another domain."""
    from sessionpi.table import _ctx, expected_rows

    for row in expected_rows():
        contexts = [_ctx(e) for e in (row.g1, row.g2, row.g3, row.c12, row.g4, row.nabla)]
        for g1 in contexts:
            for g2 in contexts:
                yield g1, g2
    rng = random.Random(37)
    for k in range(600):
        names = ["x", "y", "z"][: 1 + k % 3]
        g1 = gen_safe_context(rng, names)
        if k % 4 == 0:
            g2 = nabla(g1)
        elif k % 4 == 1:
            g2 = gen_safe_context(rng, names[::-1])
        elif k % 4 == 2:
            g2 = g1.with_entries(rng.choice([e, nabla(g1).get(n)]) for n, e in g1.items())
        else:
            g2 = gen_safe_context(rng, ["w"] + names[1:])
        yield g1, g2


def test_memoized_algebra_agrees_with_the_reference():
    from tests.helpers import (
        reference_closure,
        reference_io_head,
        reference_is_safe_entry,
        reference_is_un_entry,
        reference_used_map,
    )
    from sessionpi import Recv, Send
    from sessionpi.equality import io_head

    errors = 0
    for g1, g2 in _algebra_pairs():
        # Twice: the second call reads what the first one kept.
        for _ in range(2):
            want = _algebra_outcome(reference_closure, g1, g2)
            assert _algebra_outcome(closure, g1, g2) == want, (str(g1), str(g2))
            errors += want[0] == "error"
            if want[0] != "error":
                spent = closure(g1, g2)
                assert list(used_map(spent).items()) == list(reference_used_map(spent).items())
        for g in (g1, g2):
            assert list(used_map(g).items()) == list(reference_used_map(g).items())
            for _, e in g.items():
                assert is_safe_entry(e) == reference_is_safe_entry(e), str(e)
                assert is_un_entry(e) == reference_is_un_entry(e), str(e)
                items = (e.item,) if isinstance(e, Single) else (e.left, e.right)
                for item in items:
                    if item is not VOID:
                        for ctor in (Send, Recv):
                            assert io_head(item, ctor) is reference_io_head(item, ctor), str(item)
    # Undefined closures, unequal domains and differing shapes all occur.
    assert errors > 100
