import itertools
import random

import pytest

from sessionpi import (
    ChanType,
    Context,
    ContextAlgebraError,
    barendregt_rename,
    declarative,
    entry_of_type,
    parse_context,
    parse_process,
    parse_type,
    type_check,
)
from sessionpi.contexts import DeclContext, is_un_type, to_decl_context
from sessionpi.declarative import (
    Verdict,
    _spreads,
    derivable,
    derivable_value,
    enumerate_splits,
)
from sessionpi.equality import head_qual
from sessionpi.gen import (
    gen_process,
    gen_safe_context,
    lin_pingpong,
    poll_system,
    ring_system,
    star_system,
    un_server,
)
from sessionpi.syntax import Qual, is_endpoint
from tests.conftest import fixture_names, load_fixture
from tests.helpers import (
    count_fills,
    deep_inputs,
    reference_derivable,
    shadowing_procs,
    subprocesses,
    use_exhaustive_splits,
)
from tests.test_acceptance import U6, _exhaustive_procs, criterion_04_contexts

E = parse_type("un end")
LIN_IN = parse_type("lin ?(un end).un end")
LIN_OUT = parse_type("lin !(un end).un end")
UN_REC_IN = parse_type("rec a. un ?(un end).a")


def _recombines(split, origin) -> bool:
    """Independent recombination check, written against the splitting rules
    rather than the enumerator: each entry of ``origin``, the context that
    was split, must be explained by exactly one rule instance."""
    for name in origin.names():
        t = origin.get(name)
        l, r = split.left.get(name), split.right.get(name)
        if is_endpoint(t):
            if head_qual(t) is Qual.UN:
                ok = l == t and r == t
            else:
                ok = (l == t and r is None) or (l is None and r == t)
        else:
            lq, rq = head_qual(t.left), head_qual(t.right)
            if lq is Qual.UN and rq is Qual.UN:
                ok = l == t and r == t
            elif lq is Qual.LIN and rq is Qual.LIN:
                ok = (
                    (l == t and r is None)
                    or (l is None and r == t)
                    or (l == t.left and r == t.right)
                    or (l == t.right and r == t.left)
                )
            else:
                un_side = t.left if lq is Qual.UN else t.right
                ok = (l == t and r == un_side) or (l == un_side and r == t)
        if not ok:
            return False
    extra = (split.left.names() | split.right.names()) - origin.names()
    return not extra


def test_split_of_empty_context():
    splits = list(enumerate_splits(DeclContext()))
    assert len(splits) == 1
    assert len(splits[0].left) == 0 and len(splits[0].right) == 0


def test_split_copies_unrestricted_entry():
    i = DeclContext([("x", UN_REC_IN)])
    splits = list(enumerate_splits(i))
    assert len(splits) == 1
    assert splits[0].left.get("x") == UN_REC_IN
    assert splits[0].right.get("x") == UN_REC_IN


def test_split_linear_endpoint_two_ways():
    i = DeclContext([("x", LIN_OUT)])
    splits = list(enumerate_splits(i))
    assert len(splits) == 2
    assert all(_recombines(s, i) for s in splits)


def test_split_linear_pair_four_ways():
    i = DeclContext([("x", ChanType(LIN_IN, LIN_OUT))])
    splits = list(enumerate_splits(i))
    assert len(splits) == 4
    assert all(_recombines(s, i) for s in splits)
    shapes = {(str(s.left.get("x")), str(s.right.get("x"))) for s in splits}
    assert (str(ChanType(LIN_IN, LIN_OUT)), "None") in shapes
    assert (str(LIN_IN), str(LIN_OUT)) in shapes
    assert (str(LIN_OUT), str(LIN_IN)) in shapes


def test_split_mixed_pair_two_orientations():
    i = DeclContext([("x", ChanType(LIN_IN, E))])
    splits = list(enumerate_splits(i))
    assert len(splits) == 2
    assert all(_recombines(s, i) for s in splits)
    for s in splits:
        sides = {str(s.left.get("x")), str(s.right.get("x"))}
        assert str(ChanType(LIN_IN, E)) in sides and str(E) in sides


def test_all_splits_recombine_on_random_contexts():
    rng = random.Random(41)
    pool = [E, LIN_IN, LIN_OUT, UN_REC_IN, ChanType(LIN_IN, LIN_OUT), ChanType(LIN_OUT, E)]
    for _ in range(50):
        i = DeclContext(
            (f"v{k}", rng.choice(pool)) for k in range(rng.randint(0, 3))
        )
        splits = list(enumerate_splits(i))
        assert len({(s.left.canonical(), s.right.canonical()) for s in splits}) == len(splits)
        assert all(_recombines(s, i) for s in splits)


def test_splits_give_every_side_the_names_it_uses():
    # A side that has a name free needs an entry for it; a side that does
    # not takes no linear entry.
    pair = ChanType(LIN_IN, LIN_OUT)
    both = list(enumerate_splits(DeclContext([("x", pair)]), {"x"}, {"x"}))
    assert {(s.left.get("x"), s.right.get("x")) for s in both} == {(LIN_IN, LIN_OUT), (LIN_OUT, LIN_IN)}
    assert list(enumerate_splits(DeclContext([("x", LIN_OUT)]), {"x"}, {"x"})) == []
    one = list(enumerate_splits(DeclContext([("x", LIN_OUT), ("v", E)]), {"x", "v"}, set()))
    assert [(s.left.get("x"), s.right.get("x"), s.right.get("v")) for s in one] == [(LIN_OUT, None, E)]


def _nested_spreads(t, users: int) -> set:
    """The types that exhaustive binary splits, nested as the parser nests
    ``|`` (all but the last thread on the left), give ``users`` threads."""
    if users == 1:
        return {(t,)}
    spreads = set()
    for s in enumerate_splits(DeclContext([("x", t)])):
        if s.left.get("x") is not None:
            spreads |= {rest + (s.right.get("x"),) for rest in _nested_spreads(s.left.get("x"), users - 1)}
    return spreads


def test_soup_spreads_are_the_nested_binary_splits():
    # Every thread of a soup gets a type for each name it has free: the
    # n-ary spreads are the nested binary splits that leave no user of the
    # name without one, whichever way the binary splits nest.
    pool = [E, LIN_IN, LIN_OUT, UN_REC_IN, ChanType(LIN_IN, LIN_OUT), ChanType(LIN_OUT, LIN_OUT),
            ChanType(LIN_OUT, E), ChanType(E, LIN_IN), ChanType(E, E)]
    for t in pool:
        for users in range(1, 5):
            spreads = _spreads(t, users)
            want = {s for s in _nested_spreads(t, users) if None not in s}
            assert len(set(spreads)) == len(spreads) and set(spreads) == want, (str(t), users)


def test_value_axiom():
    i = DeclContext([("x", LIN_OUT)])
    assert derivable_value(i, "x", LIN_OUT)


def test_value_strips_unrestricted_partner_end():
    i = DeclContext([("x", ChanType(LIN_OUT, E))])
    assert derivable_value(i, "x", LIN_OUT)
    # The converse read would discard the linear end: not derivable.
    assert not derivable_value(i, "x", E)
    both_un = DeclContext([("x", ChanType(UN_REC_IN, E))])
    assert derivable_value(both_un, "x", UN_REC_IN)
    assert derivable_value(both_un, "x", E)


def test_value_needs_unrestricted_rest():
    i = DeclContext([("x", LIN_OUT), ("y", LIN_IN)])
    assert not derivable_value(i, "x", LIN_OUT)


def test_value_missing_or_mismatched():
    i = DeclContext([("x", E)])
    assert not derivable_value(i, "y", E)
    assert not derivable_value(i, "x", LIN_OUT)


def test_inaction_derivable_only_in_unrestricted_context():
    assert derivable(DeclContext([("x", E)]), parse_process("0"))
    assert not derivable(DeclContext([("x", LIN_OUT)]), parse_process("0"))


def test_fixture_verdicts():
    for name in (
        "poll",
        "unrestricted_channel",
        "lin_then_un_misuse",
        "witness_input_then_output",
        "witness_self_delegation",
    ):
        ctx, p, expected = load_fixture(name)
        decl = to_decl_context(ctx)
        res = derivable(decl, barendregt_rename(p, avoid=ctx.names()))
        assert res.verdict.value == expected["oracle"], name


def test_witnesses_separate_oracle_from_checker():
    for name in ("witness_input_then_output", "witness_self_delegation"):
        ctx, p, _ = load_fixture(name)
        assert not type_check(ctx, p).accepted
        res = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()))
        assert res.verdict is Verdict.DERIVABLE


def test_raw_terms_are_decided_as_their_renaming():
    # Binding is scoped: a binder named like a context entry hides it, so
    # the raw term gets its renaming's verdict, and whatever the checker
    # accepts on the raw term is derivable on it.
    procs = list(shadowing_procs(3, ("x", "y"), U6))
    pairs, accepted, disagree, refuted = 0, 0, [], []
    for ctx in criterion_04_contexts():
        decl = to_decl_context(ctx)
        for p in procs:
            q = barendregt_rename(p, avoid=ctx.names())
            if q is p:
                continue
            pairs += 1
            verdict = derivable(decl, p).verdict
            if verdict is not derivable(decl, q).verdict:
                disagree.append((str(ctx), str(p)))
            if type_check(ctx, p, trace=False).accepted:
                accepted += 1
                if verdict is not Verdict.DERIVABLE:
                    refuted.append((str(ctx), str(p)))
    assert pairs == 7528 and accepted > 0
    assert disagree == [] and refuted == []


def test_tiny_budget_is_inconclusive():
    ctx, p = poll_system(2)
    res = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()), bound=3)
    assert res.verdict is Verdict.INCONCLUSIVE


def test_accepted_processes_are_derivable():
    for builder in (lin_pingpong, lambda: un_server(2), lambda: poll_system(1)):
        ctx, p = builder()
        assert type_check(ctx, p).accepted
        res = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()))
        assert res.verdict is Verdict.DERIVABLE


def test_spot_agreement_on_random_instances():
    rng = random.Random(42)
    pool = [E, LIN_IN, LIN_OUT, UN_REC_IN, ChanType(LIN_IN, LIN_OUT), ChanType(E, E)]
    checked = 0
    for _ in range(150):
        i = DeclContext((n, rng.choice(pool)) for n in ("x", "y"))
        from sessionpi.contexts import decl_to_context

        ctx = decl_to_context(i)
        p = gen_process(rng, ["x", "y"], size=6)
        result = type_check(ctx, p, trace=False)
        if result.accepted:
            checked += 1
            q = barendregt_rename(p, avoid=ctx.names())
            assert derivable(i, q).verdict is Verdict.DERIVABLE
    assert checked >= 1


def test_split_equal_sided_pair_three_ways():
    # Both ends equal: the two half-splits coincide, so there is one of them.
    i = DeclContext([("x", ChanType(LIN_OUT, LIN_OUT))])
    splits = list(enumerate_splits(i))
    assert len(splits) == 3
    assert all(_recombines(s, i) for s in splits)


def _poll_spent(sizes, orders=(False, True)):
    spent = []
    for n in sizes:
        for swapped in orders:
            ctx, p = poll_system(n, swapped=swapped)
            res = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()))
            assert res.verdict is Verdict.DERIVABLE
            spent.append(res.spent)
    return spent


def test_poll_search_spends_pinned_node_counts():
    # The search order is part of the contract: the same goals are decided
    # in the same order, so the node counts stay fixed.  The client's n
    # forwards are one soup, so for n >= 2 they cost 15 + 2n in both thread
    # orders: one node for the soup and two for each forward.
    assert _poll_spent(range(1, 7)) == [16, 16, 19, 19, 21, 21, 23, 23, 25, 25, 27, 27]


def test_poll_search_with_exhaustive_splits_spends_reference_node_counts(monkeypatch):
    # The exhaustive enumerator still spends what the search spent before
    # splits were pruned.
    use_exhaustive_splits(monkeypatch)
    assert _poll_spent(range(1, 7)) == [19, 16, 28, 21, 50, 35, 106, 75, 234, 171, 522, 395]


def test_poll_search_grows_linearly():
    # Decided within the default bound, at 15 + 2n nodes.
    assert _poll_spent((8, 40, 300), orders=(False,)) == [31, 95, 615]


def _criterion_4_pairs(stride: int):
    """Every ``stride``-th (context, renamed process) pair of criterion 4's
    exhaustive sweep, accepted and rejected terms alike."""
    contexts = [Context([("x", entry_of_type(t))]) for t in U6]
    for a, b in [(3, 0), (4, 0), (1, 2), (4, 5), (5, 0)]:
        contexts.append(Context([("x", entry_of_type(U6[a])), ("y", entry_of_type(U6[b]))]))
    procs = list(_exhaustive_procs(5, ("x", "y")))
    for k, (ctx, p) in enumerate(itertools.product(contexts, procs)):
        if k % stride == 0:
            yield to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names())


# Contexts in which a linear end travels as a payload, which criterion 4's
# un-end payloads never exercise: a value side that must take a linear entry.
SEND_LIN_IN = parse_type("lin !(lin ?(un end).un end).un end")
RECV_LIN_IN = parse_type("lin ?(lin ?(un end).un end).un end")
SEND_LIN_OUT = parse_type("lin !(lin !(un end).un end).un end")
DELEGATING = [
    DeclContext([("x", SEND_LIN_IN), ("y", LIN_IN)]),
    DeclContext([("x", ChanType(SEND_LIN_IN, RECV_LIN_IN)), ("y", LIN_IN)]),
    DeclContext([("x", SEND_LIN_OUT), ("y", ChanType(LIN_IN, LIN_OUT))]),
]


def _delegating_pairs():
    procs = list(_exhaustive_procs(4, ("x", "y")))
    return [(i, barendregt_rename(p, avoid=i.names())) for i in DELEGATING for p in procs]


def _generated_pairs(count: int):
    """Seeded void-free ``gen_safe_context`` x ``gen_process`` pairs, and how
    many of their contexts hold a pair with one linear and one unrestricted end."""
    rng = random.Random(7)
    pairs, mixed = [], 0
    while len(pairs) < count:
        names = ["x", "y", "z"][: 1 + len(pairs) % 3]
        ctx = gen_safe_context(rng, names)
        try:
            decl = to_decl_context(ctx)
        except ContextAlgebraError:  # the oracle is defined on void-free contexts only
            continue
        mixed += any(
            isinstance(t, ChanType) and is_un_type(t.left) != is_un_type(t.right)
            for _, t in decl.items()
        )
        p = gen_process(rng, names, size=4 + len(pairs) % 6)
        pairs.append((decl, barendregt_rename(p, avoid=ctx.names())))
    return pairs, mixed


def test_pruned_splits_agree_with_exhaustive_search():
    pairs = list(_criterion_4_pairs(16)) + _delegating_pairs()
    generated, mixed = _generated_pairs(2_000)
    pairs += generated
    assert len(pairs) == 50_044 + 12_303 + 2_000 and mixed >= 100
    results = [derivable(i, p) for i, p in pairs]
    # The total pins the search order, not just the verdicts.
    assert sum(r.spent for r in results) == 126_821
    pruned = [r.verdict for r in results]
    reference = [reference_derivable(i, p).verdict for i, p in pairs]
    assert reference.count(Verdict.DERIVABLE) > 500
    assert Verdict.INCONCLUSIVE not in reference
    disagreements = [
        (str(i), str(p)) for (i, p), a, b in zip(pairs, pruned, reference) if a is not b
    ]
    assert disagreements == []


def test_poll_system_subterms_are_filled_once_by_the_memo(monkeypatch):
    # The oracle reads each subterm's hash and free names off the node: one
    # fill of poll_system(300) enters each of its 913 subterms once, the 298
    # inner nodes of the forwards' soup too, which are not goals.
    ctx, p = poll_system(300)
    q = barendregt_rename(p, avoid=ctx.names())
    fills = count_fills(monkeypatch)
    assert derivable(to_decl_context(ctx), q).spent == 615
    subterms = list(subprocesses(q))
    assert len(subterms) == 913 == len(fills) == sum(fills.values())
    assert all(fills[id(sub)] == 1 for sub in subterms)


SHAPES = {
    "star": star_system,
    "star_clients_first": lambda n: star_system(n, clients_first=True),
    "ring": ring_system,
}


STARS_AND_RINGS = [
    ("star", [18, 34, 66, 130, 258]),
    ("star_clients_first", [14, 26, 50, 98, 194]),
    ("ring", [18, 38, 78, 158, 318]),
]


@pytest.mark.parametrize("shape, spent", STARS_AND_RINGS)
def test_stars_and_rings_spend_pinned_node_counts(shape, spent):
    # A soup is searched one name at a time, and each thread is decided
    # once its names are placed, so a wrong option is refuted by its one
    # thread: 2 + 4n, 2 + 3n and 5n - 2 nodes at n = 4 ... 64, where the
    # binary search was exponential on stars.  The checker accepts them all.
    got = []
    for n in (4, 8, 16, 32, 64):
        ctx, p = SHAPES[shape](n)
        assert type_check(ctx, p, trace=False).accepted
        res = derivable(to_decl_context(ctx), p)
        assert res.verdict is Verdict.DERIVABLE
        got.append(res.spent)
    assert got == spent


def test_the_search_enumerates_no_splits(monkeypatch):
    # The Output rule divides its argument's entry only, and a soup spreads
    # each name over its users: the exhaustive enumerator is a reference,
    # which no search path calls.  The poll, star and ring node counts are
    # those pinned above.
    def no_splits(*args):
        raise AssertionError("the search enumerated splits")

    monkeypatch.setattr(declarative, "enumerate_splits", no_splits)
    assert _poll_spent(range(1, 7)) == [16, 16, 19, 19, 21, 21, 23, 23, 25, 25, 27, 27]
    spent = {}
    for name in fixture_names():
        ctx, p, expected = load_fixture(name)
        res = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()))
        assert res.verdict.value == expected["oracle"], name
        spent[name] = res.spent
    assert spent == {
        "lin_then_un_misuse": 1,
        "ping": 7,
        "poll": 19,
        "poll_swapped": 19,
        "unrestricted_channel": 5,
        "witness_input_then_output": 3,
        "witness_self_delegation": 2,
    }
    for shape, pinned in STARS_AND_RINGS:
        test_stars_and_rings_spend_pinned_node_counts(shape, pinned)


@pytest.mark.parametrize("name", sorted(deep_inputs()))
def test_deep_inputs_are_derivable_within_the_default_bound(name):
    # A soup costs three frames however wide it is, and a prefix two.
    ctx_text, proc_text = deep_inputs()[name]
    res = derivable(to_decl_context(parse_context(ctx_text)), parse_process(proc_text))
    assert res.verdict is Verdict.DERIVABLE
