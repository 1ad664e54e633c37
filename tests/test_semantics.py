import collections
import random
import time

from sessionpi import barendregt_rename, context_equal, parse_context, parse_process, parse_type, pretty, type_check
from sessionpi.gen import closed_session, delegation, gen_process, lin_pingpong, poll_system, un_server
from sessionpi.semantics import (
    _needs,
    congruence_steps,
    reduce_step,
    reduce_step_labeled,
    reduce_trace_labeled,
)
from sessionpi.syntax import New, Par, Zero
from tests.helpers import (
    accepted_family,
    gen_soup_process,
    invert,
    reference_reduce_step_labeled,
    subprocesses,
)


def _steps_by_rule(p, rule):
    return [s for s in congruence_steps(p) if s.rule == rule]


def test_unit_law_erases_trailing_zero():
    p = parse_process("x!y.0 | 0")
    erased = [s for s in _steps_by_rule(p, "par-unit") if s.direction == "LR"]
    assert any(s.result == parse_process("x!y.0") for s in erased)


def test_replication_unfolds():
    p = parse_process("!x?(y).0")
    steps = _steps_by_rule(p, "repl-unfold")
    assert any(s.result == parse_process("x?(y).0 | !x?(y).0") for s in steps)


def test_commutativity_and_associativity():
    p = parse_process("(x!a.0 | y!b.0) | z!c.0")
    results = {pretty(s.result) for s in congruence_steps(p)}
    assert "z!c.0 | (x!a.0 | y!b.0)" in results  # comm at the root
    assert "x!a.0 | (y!b.0 | z!c.0)" in results  # assoc at the root


def test_restricted_zero_collects_only_when_unrestricted():
    lin = parse_process("new x: lin end. 0")
    assert not _steps_by_rule(lin, "res-gc")
    un = parse_process("new x: un end. 0")
    assert any(s.result == Zero() for s in _steps_by_rule(un, "res-gc"))
    pair = parse_process("new x: <un end, rec b. un !(un end).b>. 0")
    assert any(s.result == Zero() for s in _steps_by_rule(pair, "res-gc-pair"))
    mixed = parse_process("new x: <lin ?(un end).un end, un end>. 0")
    assert not _steps_by_rule(mixed, "res-gc-pair")


def test_scope_extrusion_respects_freeness():
    free_in_right = parse_process("new x: un end. y!x.0 | x!z.0")
    # Here x names different things; after renaming the guard must allow it.
    renamed = barendregt_rename(free_in_right)
    assert _steps_by_rule(renamed, "scope-extrusion")
    blocked = Par(
        parse_process("new x: un end. 0"),
        parse_process("x!z.0"),
    )
    assert not _steps_by_rule(blocked, "scope-extrusion")


def test_restrictions_of_one_name_do_not_swap():
    # Swapping two restrictions of the same name would move the outer
    # annotation onto the inner scope, which turns an accepted term into a
    # rejected one.
    ctx = parse_context("v : un end")
    p = parse_process(
        "new c: un end. new c: <lin !(un end).un end, lin ?(un end).un end>. (c!v.0 | c?(u).0)"
    )
    baseline = type_check(ctx, p, trace=False)
    assert baseline.accepted
    assert not _steps_by_rule(p, "res-swap")
    for step in congruence_steps(p):
        result = type_check(ctx, step.result, trace=False)
        assert result.accepted and context_equal(result.residual, baseline.residual), step


def test_rewrites_are_invertible():
    rng = random.Random(51)
    checked = 0
    for _ in range(60):
        p = barendregt_rename(gen_process(rng, ["x", "y"], size=8))
        for step in congruence_steps(p):
            if step.rule in ("res-gc", "res-gc-pair"):
                assert invert(step, p) is None
                continue
            assert invert(step, p) == p, (step.rule, step.direction, pretty(p))
            checked += 1
    assert checked > 200


def test_basic_communication():
    p = parse_process("x!z.0 | x?(y).0")
    assert [pretty(r) for r in reduce_step(p)] == ["0 | 0"]


def test_inaction_has_no_reducts():
    assert reduce_step(parse_process("0")) == []
    assert reduce_trace_labeled(parse_process("0"), 5) == []


def test_substitution_happens_on_communication():
    p = parse_process("x!z.0 | x?(y).y!w.0")
    reducts = reduce_step(p)
    assert [pretty(r) for r in reducts] == ["0 | z!w.0"]


def test_communication_under_restriction_advances_annotation():
    ctx, p = closed_session()
    q = barendregt_rename(p, avoid=ctx.names())
    (reduct,) = reduce_step(q)
    assert isinstance(reduct, New)
    assert reduct.annot == parse_type("<un end, un end>")


def test_shadowed_restriction_advances_innermost_binder():
    p = parse_process(
        "new c: <lin !(un end).un end, lin ?(un end).un end>. "
        "new c: <lin ?(un end).un end, lin !(un end).un end>. (c!v.0 | c?(u).0)"
    )
    ((chan, reduct),) = reduce_step_labeled(p)
    # Reducts and labels are those of the renamed term, where the inner
    # binder is c1.
    assert chan == "c1"
    assert reduct.annot == p.annot
    assert reduct.cont.annot == parse_type("<un end, un end>")


def test_no_reduction_under_prefix():
    assert reduce_step(parse_process("a!b.(x!z.0 | x?(y).0)")) == []


def test_replication_unfolds_once_to_meet_its_partner():
    p = parse_process("!x?(y).0 | x!z.0")
    assert [pretty(r) for r in reduce_step(p)] == ["0 | !x?(y).0 | 0"]


def test_poll_bootstrap_fires_on_x():
    ctx, p = poll_system(2)
    q = barendregt_rename(p, avoid=ctx.names())
    labeled = reduce_step_labeled(q)
    assert labeled and {chan for chan, _ in labeled} == {"x"}


def test_raw_term_with_a_binder_named_like_a_free_name_reduces():
    # Substituting y for z under the binder y would capture it, unless the
    # term is renamed apart first.
    p = parse_process("x!y.0 | x?(z).y?(y).z!w.0")
    assert [pretty(r) for r in reduce_step(p)] == ["0 | y?(y1).y!w.0"]


def test_redexes_behind_many_rewrites_are_found():
    replicated = parse_process("!!!!x!v.0 | x?(y).0")
    assert [pretty(r) for r in reduce_step(replicated)] == [
        "0 | !x!v.0 | !!x!v.0 | !!!x!v.0 | !!!!x!v.0 | 0"
    ]
    restricted = parse_process(
        "(new b0: un end. new b1: un end. new b2: un end. new b3: un end. a!v.0) | a?(y).0"
    )
    assert [pretty(r) for r in reduce_step(restricted)] == [
        "new b0: un end. new b1: un end. new b2: un end. new b3: un end. (0 | 0)"
    ]


def test_single_extrusions_fire_soup_by_soup():
    # d comes first in preorder, but b's soup, the root, comes before d's.
    p = parse_process(
        "(new c: un end. (new d: un end. x!v.0 | x?(y).0)) | (new b: un end. y!v.0) | y?(w).0"
    )
    assert [chan for chan, _ in reduce_step_labeled(p)] == ["y", "x"]
    assert reduce_step_labeled(p) == reference_reduce_step_labeled(barendregt_rename(p))


def test_each_replica_meets_the_output_once():
    soup = " | ".join(["!x?(y).0"] * 64 + ["x!v.0"])
    start = time.perf_counter()
    reducts = reduce_step(parse_process(soup))
    elapsed = time.perf_counter() - start
    assert len(reducts) == 64
    assert elapsed < 2.0, elapsed


def test_poll_trace_delegates_then_sets_title_and_date():
    ctx, p = poll_system(1)
    q = barendregt_rename(p, avoid=ctx.names())
    trace = reduce_trace_labeled(q, 4)
    assert len(trace) == 4  # bootstrap, delegation, title, date
    _, final = trace[-1]
    # After title and date the poll annotation has advanced to its tail.
    binder = _find_new(final, "p")
    assert binder is not None
    assert binder.annot == parse_type("<rec c. un ?(un end).c, rec d. un !(un end).d>")


def _find_new(p, name):
    for q in subprocesses(p):
        if isinstance(q, New) and q.binder.rstrip("0123456789") == name:
            return q
    return None


def test_reduce_trace_two_sequential_communications():
    p = parse_process("x!v.x!v.0 | x?(a).x?(b).0")
    trace = reduce_trace_labeled(p, 5)
    assert len(trace) == 2
    assert pretty(trace[-1][1]) == "0 | 0"


def test_reduce_trace_labeled_names_each_step_channel():
    p = parse_process("x!v.y!v.0 | x?(a).y?(b).0")
    labeled = reduce_trace_labeled(p, 5)
    assert [chan for chan, _ in labeled] == ["x", "y"]
    assert reduce_trace_labeled(p, 1) == labeled[:1]


# Terms whose redexes need four rewrites or more.
_NEEDY = (
    "!!!!x!v.0 | x?(y).0",
    "(new b0: un end. new b1: un end. new b2: un end. new b3: un end. a!v.0) | a?(y).0",
    "!new b: un end. !x!b.0 | !new c: un end. !x?(y).y!v.0",
    "!(new b: un end. !x!b.0 | new c: un end. !x?(y).0) | x?(w).0",
    "new a: un end. (!!x!v.0 | new b: un end. !x?(y).0) | !new c: un end. x?(w).0",
)


def _reduct_frontier(ctx, p, steps):
    """Every term within ``steps`` reductions of ``p``, renamed apart from
    ``ctx`` as criterion 7 renames them."""
    terms = []
    frontier = [p]
    for _ in range(steps + 1):
        next_frontier = []
        for q in frontier:
            q = barendregt_rename(q, avoid=ctx.names())
            if q not in terms:
                terms.append(q)
                next_frontier += reduce_step(q)
        frontier = next_frontier
    return terms


def test_exact_reduction_agrees_with_the_radius_three_search():
    """Where the search of at most three exposing rewrites is complete, it
    finds what exact reduction finds; past that, exact reduction finds more.

    A term counts by its neediest redex: with at most one rewrite the two
    give one ordered list, with at most three one set; with more, exact
    reduction gives a superset.
    """
    rng = random.Random(17)
    terms = [barendregt_rename(gen_soup_process(rng, rng.randint(3, 9))) for _ in range(5000)]
    terms += [barendregt_rename(parse_process(text)) for text in _NEEDY]
    # Criterion 7's members, and the benchmark's retyping members that
    # accepted_family's cycle of builders skips, such as poll_system(1, swapped).
    members = accepted_family(50) + [
        poll_system(n, swapped=swapped) for n in (1, 2, 3, 4) for swapped in (False, True)
    ] + [lin_pingpong(), un_server(1), un_server(4), delegation(), closed_session()]
    for ctx, p in members:
        terms += _reduct_frontier(ctx, p, 3)
    for ctx, p in accepted_family(20):
        steps = congruence_steps(barendregt_rename(p, avoid=ctx.names()))
        terms += [barendregt_rename(step.result) for step in steps]
    by_need = collections.Counter()
    disagree = []
    for p in terms:
        exact, bounded = reduce_step_labeled(p), reference_reduce_step_labeled(p)
        rewrites = max(map(len, _needs(p)), default=0)
        by_need[min(rewrites, 4)] += 1
        if rewrites <= 1:
            agree = exact == bounded
        elif rewrites <= 3:
            agree = set(exact) == set(bounded)
        else:
            agree = set(exact) >= set(bounded)
        if not agree:
            disagree.append(pretty(p))
    assert disagree == []
    assert all(by_need[rewrites] >= 5 for rewrites in range(5)), by_need
