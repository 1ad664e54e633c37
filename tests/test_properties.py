"""Property suites for the checker's judgment algebra: weakening and
strengthening, consumption-closure definedness, and preservation of verdicts
under single congruence rewrites."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpi import (
    VOID,
    Context,
    ChanType,
    Single,
    barendregt_rename,
    check,
    closure,
    context_equal,
    free_vars,
    parse_type,
    type_check,
    used_map,
)
from sessionpi.checker import _Checker
from sessionpi.contexts import entry_equal, is_un_entry
from sessionpi.gen import closed_session, delegation, gen_safe_entry, lin_pingpong, poll_system, un_server
from sessionpi.semantics import congruence_steps
from tests.helpers import accepted_family

LIN_OUT = parse_type("lin !(un end).un end")
E = parse_type("un end")


def _renamed_pairs(count):
    for ctx, p in accepted_family(count):
        yield ctx, barendregt_rename(p, avoid=ctx.names())


def test_weakening_with_fresh_entry():
    # A successful run is unaffected by an extra entry, which passes through.
    rng = random.Random(61)
    for ctx, p in _renamed_pairs(12):
        out = check(ctx, p)
        entry = gen_safe_entry(rng)
        extended = ctx.add("fresh_w", entry)
        out2 = check(extended, barendregt_rename(p, avoid=extended.names()))
        assert entry_equal(out2.get("fresh_w"), entry)
        assert context_equal(out2.remove("fresh_w"), out)


def test_strengthening_unchanged_linear_entry():
    # An entry that stays lin p from input to output can be dropped.
    from sessionpi import parse_process

    ctx = Context(
        [
            ("x", ChanType(parse_type("rec a. un ?(un end).a"), parse_type("rec b. un !(un end).b"))),
            ("v", Single(E)),
            ("spare", Single(LIN_OUT)),
        ]
    )
    p = barendregt_rename(parse_process("x!v.0"))
    out = check(ctx, p)
    assert out.get("spare") == Single(LIN_OUT)
    reduced = check(ctx.remove("spare"), p)
    assert context_equal(reduced, out.remove("spare"))


def test_strengthening_void_and_unused_un_entries():
    for ctx, p in _renamed_pairs(8):
        out = check(ctx, p)
        for extra in (Single(VOID), ChanType(VOID, VOID)):
            grown = ctx.add("spare", extra)
            out2 = check(grown, p)
            assert entry_equal(out2.get("spare"), extra)
            assert context_equal(out2.remove("spare"), out)
        if "unused" not in free_vars(p):
            grown = ctx.add("unused", Single(E))
            out2 = check(grown, p)
            assert entry_equal(out2.get("unused"), Single(E))
            assert context_equal(out2.remove("unused"), out)


def test_used_closure_defined_along_accepted_runs():
    for ctx, p in _renamed_pairs(12):
        run = _Checker(trace=True)
        run.check(ctx, p)
        for step in run.trace:
            if step.output_ctx is None:
                continue
            if step.input_ctx.names() != step.output_ctx.names():
                continue
            decl = used_map(closure(step.input_ctx, step.output_ctx))
            assert decl.names() == step.input_ctx.names()


def test_congruence_rewrites_preserve_verdicts():
    divergences = []
    pairs = 0
    for ctx, p in _renamed_pairs(8):
        baseline = type_check(ctx, p, trace=False)
        for step in congruence_steps(p):
            pairs += 1
            result = type_check(ctx, step.result, trace=False)
            same = result.accepted == baseline.accepted
            if same and baseline.accepted:
                same = context_equal(result.residual, baseline.residual)
            if not same:
                divergences.append((step.rule, step.direction, step.path))
    assert pairs >= 100
    assert divergences == []


_ACCEPTED_MEMBERS = st.one_of(
    st.builds(poll_system, st.integers(1, 3), st.booleans()),
    st.builds(lin_pingpong),
    st.builds(un_server, st.integers(1, 3)),
    st.builds(delegation),
    st.builds(closed_session),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(member=_ACCEPTED_MEMBERS, choices=st.lists(st.integers(0, 999), min_size=1, max_size=4))
def test_verdicts_survive_chains_of_random_congruence_rewrites(member, choices):
    # Each choice picks one rewrite of the current term, renamed apart as
    # the CLI fuzz does; the verdict and the residue stay those of the start.
    ctx, p = member
    current = barendregt_rename(p, avoid=ctx.names())
    baseline = type_check(ctx, current, trace=False)
    assert baseline.accepted
    for choice in choices:
        steps = congruence_steps(barendregt_rename(current, avoid=ctx.names()))
        current = steps[choice % len(steps)].result
        result = type_check(ctx, current, trace=False)
        assert result.accepted, (str(current), result.error)
        assert context_equal(result.residual, baseline.residual), str(current)


def test_congruence_rewrites_preserve_rejections():
    from sessionpi import parse_context, parse_process

    ctx = parse_context("x : lin !(un end).un ?(un end).un end\nv : un end")
    p = barendregt_rename(parse_process("x!v.0 | x?(y).0"), avoid=ctx.names())
    baseline = type_check(ctx, p)
    assert not baseline.accepted
    for step in congruence_steps(p):
        result = type_check(ctx, step.result)
        assert result.accepted == baseline.accepted


def test_linear_entries_never_survive_acceptance():
    for ctx, p in _renamed_pairs(10):
        result = type_check(ctx, p)
        assert result.accepted
        for _, entry in result.residual.items():
            assert is_un_entry(entry)
