import random

from sessionpi import (
    ChanType,
    barendregt_rename,
    parse_process,
    parse_type,
    type_check,
)
from sessionpi.contexts import DeclContext, to_decl_context
from sessionpi.declarative import (
    Verdict,
    derivable,
    derivable_value,
    enumerate_splits,
)
from sessionpi.equality import head_qual
from sessionpi.gen import gen_process, lin_pingpong, poll_system, un_server
from sessionpi.syntax import Qual, is_endpoint
from tests.conftest import load_fixture

E = parse_type("un end")
LIN_IN = parse_type("lin ?(un end).un end")
LIN_OUT = parse_type("lin !(un end).un end")
UN_REC_IN = parse_type("rec a. un ?(un end).a")


def _recombines(split) -> bool:
    """Independent recombination check, written against the splitting rules
    rather than the enumerator: each entry of the origin must be explained
    by exactly one rule instance."""
    for name in split.origin.names():
        t = split.origin.get(name)
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
    extra = (split.left.names() | split.right.names()) - split.origin.names()
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
    assert all(_recombines(s) for s in splits)


def test_split_linear_pair_four_ways():
    i = DeclContext([("x", ChanType(LIN_IN, LIN_OUT))])
    splits = list(enumerate_splits(i))
    assert len(splits) == 4
    assert all(_recombines(s) for s in splits)
    shapes = {(str(s.left.get("x")), str(s.right.get("x"))) for s in splits}
    assert (str(ChanType(LIN_IN, LIN_OUT)), "None") in shapes
    assert (str(LIN_IN), str(LIN_OUT)) in shapes
    assert (str(LIN_OUT), str(LIN_IN)) in shapes


def test_split_mixed_pair_two_orientations():
    i = DeclContext([("x", ChanType(LIN_IN, E))])
    splits = list(enumerate_splits(i))
    assert len(splits) == 2
    assert all(_recombines(s) for s in splits)
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
        assert all(_recombines(s) for s in splits)


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
    assert all(_recombines(s) for s in splits)


def test_poll_search_spends_pinned_node_counts():
    # The search order is part of the contract: the same goals are decided
    # in the same order, so the node counts stay fixed.
    spent = []
    for n in range(1, 7):
        for swapped in (False, True):
            ctx, p = poll_system(n, swapped=swapped)
            res = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()))
            assert res.verdict is Verdict.DERIVABLE
            spent.append(res.spent)
    assert spent == [19, 16, 28, 21, 50, 35, 106, 75, 234, 171, 522, 395]
