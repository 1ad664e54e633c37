import random

from sessionpi import barendregt_rename, parse_process, parse_type, pretty
from sessionpi.gen import closed_session, gen_process, poll_system
from sessionpi.semantics import (
    congruence_steps,
    reduce_step,
    reduce_step_labeled,
    reduce_trace_labeled,
)
from sessionpi.syntax import New, Par, Zero
from tests.helpers import invert, subprocesses


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
    assert chan == "c"
    assert reduct.annot == p.annot
    assert reduct.cont.annot == parse_type("<un end, un end>")


def test_no_reduction_under_prefix_or_bare_replication():
    assert reduce_step(parse_process("a!b.(x!z.0 | x?(y).0)"), radius=0) == []
    # Replication needs one unfolding step, so radius 0 finds nothing.
    p = parse_process("!x?(y).0 | x!z.0")
    assert reduce_step(p, radius=0) == []
    assert reduce_step(p, radius=1)


def test_poll_bootstrap_fires_within_radius_two():
    ctx, p = poll_system(2)
    q = barendregt_rename(p, avoid=ctx.names())
    labeled = reduce_step_labeled(q, radius=2)
    assert labeled and {chan for chan, _ in labeled} == {"x"}


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
