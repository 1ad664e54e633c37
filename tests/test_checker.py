import functools
import gc
import hashlib
import json
import random
import tracemalloc
import weakref
from pathlib import Path

import pytest

from sessionpi import (
    VOID,
    ChanType,
    CheckError,
    Context,
    ErrorKind,
    Par,
    Single,
    barendregt_rename,
    check,
    check_var,
    context_equal,
    entry_of_type,
    nabla,
    parse_context,
    parse_process,
    parse_type,
    type_check,
)
from sessionpi.checker import _Checker, _completed, _outcome
from sessionpi.gen import (
    delegation,
    gen_process,
    gen_safe_context,
    lin_pingpong,
    poll_system,
    un_server,
)
from tests.conftest import fixture_names, load_fixture
from tests.test_acceptance import U6, _exhaustive_procs, criterion_04_contexts, criterion_04_pairs
from tests.helpers import (
    UN_CHANNEL_CTX,
    ReferenceParChecker,
    accepted_family,
    deep_inputs,
    reference_var_matches,
    shadowing_procs,
    subprocesses,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "check_trace_audit.json"

LIN_IN = parse_type("lin ?(un end).un end")
LIN_OUT = parse_type("lin !(un end).un end")
E = parse_type("un end")
UN_PAIR = parse_type("<rec a. un ?(un end).a, rec b. un !(un end).b>")


# ---------------------------------------------------------------------------
# Variable rules
# ---------------------------------------------------------------------------

def test_var_consumes_linear_endpoint():
    g = Context([("x", Single(LIN_OUT))])
    assert check_var(g, "x", LIN_OUT) == Context([("x", Single(VOID))])


def test_var_unrestricted_lookup_keeps_context():
    g = Context([("x", Single(E))])
    assert check_var(g, "x", E) == g


def test_var_consumes_whole_linear_pair_commuted():
    g = Context([("x", ChanType(LIN_IN, LIN_OUT))])
    requested = parse_type("<lin !(un end).un end, lin ?(un end).un end>")
    assert check_var(g, "x", requested) == Context([("x", ChanType(VOID, VOID))])


def test_var_consumed_slot_has_no_pattern():
    g = Context([("x", Single(VOID))])
    with pytest.raises(CheckError) as err:
        check_var(g, "x", parse_type("lin end"))
    assert err.value.kind is ErrorKind.NO_PATTERN


def test_var_pair_side_consumption():
    g = Context([("x", ChanType(LIN_OUT, E))])
    assert check_var(g, "x", LIN_OUT) == Context([("x", ChanType(VOID, E))])
    g2 = Context([("x", ChanType(E, LIN_OUT))])
    assert check_var(g2, "x", LIN_OUT) == Context([("x", ChanType(E, VOID))])


def test_var_unrestricted_side_needs_disequality():
    # <un end, un end> read at un end resolves through the dedicated
    # end/end rule, not the one-sided unrestricted rules.
    g = Context([("x", ChanType(E, E))])
    assert check_var(g, "x", E) == g
    un_in = parse_type("rec a. un ?(un end).a")
    g2 = Context([("x", ChanType(un_in, E))])
    assert check_var(g2, "x", un_in) == g2


def test_var_requesting_linear_from_unrestricted_fails():
    g = Context([("x", Single(E))])
    with pytest.raises(CheckError) as err:
        check_var(g, "x", parse_type("lin end"))
    assert err.value.kind is ErrorKind.NO_PATTERN


def test_var_missing_name():
    with pytest.raises(CheckError) as err:
        check_var(Context(), "x", E)
    assert err.value.kind is ErrorKind.NO_PATTERN


def _var_cases():
    """(entry, type) for every entry of the U6 contexts, their ``∇`` and 200
    seeded safe entries, at every U6 type, at each side of the entry and at
    each ordered pair of its sides."""
    from tests.test_acceptance import U6

    u6_entries = [entry_of_type(t) for t in U6]
    rng = random.Random(14)
    entries = u6_entries + [nabla(Context([("x", e)])).get("x") for e in u6_entries]
    entries += [gen_safe_context(rng, ["x"]).get("x") for _ in range(200)]
    for entry in entries:
        sides = [m for m in ((entry.item,) if isinstance(entry, Single) else (entry.left, entry.right))
                 if m is not VOID]
        for t in [*U6, *sides, *(ChanType(a, b) for a in sides for b in sides)]:
            yield entry, t


def test_variable_rules_agree_with_the_reference():
    from sessionpi.checker import AuditRecord, _Checker

    matched = unmatched = 0
    for entry, t in _var_cases():
        g = Context([("y", Single(E)), ("x", entry)])
        for name in ("x", "w"):  # "w" is not in the context
            want = reference_var_matches(g, name, t)
            # Twice: the second run reads the rules the first one kept.
            for _ in range(2):
                run = _Checker(trace=True, audit=True)
                try:
                    out = run.check_var(g, name, t)
                except CheckError as err:
                    assert not want and err.kind is ErrorKind.NO_PATTERN, (str(entry), str(t))
                    unmatched += 1
                else:
                    rule, residual = want[0]
                    assert run.trace[-1].rule == rule, (str(entry), str(t))
                    assert list(out.items()) == list(residual.items()), (str(entry), str(t))
                    matched += 1
                assert run.audits == [AuditRecord(f"{name} : {t}", len(want))]
    assert matched > 500 and unmatched > 500, (matched, unmatched)


# ---------------------------------------------------------------------------
# Process rules
# ---------------------------------------------------------------------------

def test_inaction_returns_context_unchanged():
    g = Context([("x", Single(LIN_OUT)), ("y", Single(VOID))])
    assert check(g, parse_process("0")) == g


def test_output_on_linear_endpoint():
    g = Context([("x", Single(LIN_OUT)), ("v", Single(E))])
    out = check(g, parse_process("x!v.0"))
    assert out == Context([("x", Single(VOID)), ("v", Single(E))])


def test_linear_residual_detected_under_replication():
    ctx = parse_context("x : <lin ?(un end).un end, lin !(un end).un end>\nv : un end")
    result = type_check(ctx, parse_process("!x!v.0"))
    assert not result.accepted
    assert result.error.kind is ErrorKind.LINEAR_RESIDUAL


def test_unsafe_restriction_annotation():
    p = parse_process("new c: <lin !(un end).un end, lin !(un end).un end>. 0")
    result = type_check(Context(), p)
    assert not result.accepted
    assert result.error.kind is ErrorKind.UNSAFE_ANNOTATION


def test_unsafe_initial_context_rejected_immediately():
    g = Context([("x", ChanType(LIN_OUT, LIN_OUT))])
    result = type_check(g, parse_process("0"))
    assert not result.accepted
    assert result.error.kind is ErrorKind.UNSAFE_ANNOTATION
    assert result.trace == []
    # Nothing is checked, but the result still gives the renamed process.
    assert result.process == parse_process("0")


def test_leftover_linear_entry_rejected():
    g = Context([("x", Single(LIN_OUT))])
    result = type_check(g, parse_process("0"))
    assert not result.accepted
    assert result.error.kind is ErrorKind.NON_UNRESTRICTED_RESULT
    assert "x" in result.error.location


def test_restriction_requires_finished_linear_usage():
    p = parse_process("new c: <lin ?(un end).un end, lin !(un end).un end>. c?(u).0")
    result = type_check(parse_context("v : un end"), p)
    assert not result.accepted
    assert result.error.kind is ErrorKind.LINEAR_RESIDUAL


# ---------------------------------------------------------------------------
# Protocol fixtures
# ---------------------------------------------------------------------------

def test_poll_system_accepted_in_both_orders():
    for swapped in (False, True):
        ctx, p = poll_system(2, swapped=swapped)
        result = type_check(ctx, p, runtime_audits=True)
        assert result.accepted
        from sessionpi import is_un_context

        assert is_un_context(result.residual)


def test_poll_trace_shows_session_delegation():
    ctx, p = poll_system(1)
    result = type_check(ctx, p, runtime_audits=True)
    rules = [step.rule for step in result.trace]
    assert "A-Res" in rules
    assert "A-Out-L" in rules
    assert "A-In-Un-l" in rules and "A-Out-Un-r" in rules
    assert rules.count("A-Repl") >= 2  # the service and its inner date loop

    # Delegating the send end voids the right slot of the poll entry while
    # the service keeps receiving on the left.
    delegated = [
        step
        for step in result.trace
        if step.rule == "A-V-L-r" and isinstance(step.input_ctx.get("p"), ChanType)
    ]
    assert delegated, "expected the poll send end to be consumed by name lookup"
    after = delegated[0].output_ctx.get("p")
    assert after.right == VOID and after.left != VOID


def test_poll_replication_keeps_context_fixed():
    ctx, p = poll_system(1)
    result = type_check(ctx, p)
    repl_steps = [s for s in result.trace if s.rule == "A-Repl"]
    assert repl_steps
    for step in repl_steps:
        assert context_equal(step.input_ctx, step.output_ctx)


def test_remark_misuse_rejected_on_second_thread():
    ctx, p, expected = load_fixture("lin_then_un_misuse")
    result = type_check(ctx, p)
    assert not result.accepted
    assert result.error.kind.value == expected["error_kind"]
    assert "x?(y)" in result.error.location


def test_remark_unrestricted_channel_accepted():
    ctx, p, _ = load_fixture("unrestricted_channel")
    result = type_check(ctx, p, runtime_audits=True)
    assert result.accepted
    assert context_equal(result.residual, ctx)


def test_witnesses_rejected():
    for name in ("witness_input_then_output", "witness_self_delegation"):
        ctx, p, expected = load_fixture(name)
        result = type_check(ctx, p)
        assert not result.accepted
        assert result.error.kind.value == expected["error_kind"]


def test_accepted_family_all_accepted_with_audits():
    for ctx, p in accepted_family(12):
        result = type_check(ctx, p, runtime_audits=True)
        assert result.accepted, result.error


# ---------------------------------------------------------------------------
# Pattern audit
# ---------------------------------------------------------------------------

def test_audit_reports_zero_on_consumed_channel():
    g = Context([("x", Single(VOID)), ("y", Single(E))])
    records = type_check(g, parse_process("x!y.0"), trace=False, audit=True).audits
    assert records[-1].count == 0


def test_audit_poll_run_is_deterministic():
    ctx, p = poll_system(2)
    records = type_check(ctx, p, trace=False, audit=True).audits
    assert records and all(r.count <= 1 for r in records)


def test_audit_on_random_safe_pairs():
    rng = random.Random(31)
    unsafe = 0
    for _ in range(200):
        ctx = gen_safe_context(rng, ["x", "y", "z"])
        p = gen_process(rng, list(ctx.names()), size=7)
        result = type_check(ctx, p, trace=False, audit=True)
        if result.audits is None:
            # A generated pair ending in lin end is not safe, and its context
            # is rejected before any rule runs.
            unsafe += 1
            assert result.error.kind is ErrorKind.UNSAFE_ANNOTATION
        else:
            assert all(r.count <= 1 for r in result.audits)
    assert unsafe == 11


def test_audit_sites_render_when_read(monkeypatch):
    # An audited run keeps each call's subject, so reading the counts
    # builds no location: on a left-nested ``|`` each site renders the
    # whole left spine, which made the audit quadratic.
    import sessionpi.checker

    calls = []
    monkeypatch.setattr(sessionpi.checker, "_loc", lambda p: calls.append(p))
    g = parse_context("c : rec a. un !(un end).a\nv : un end")
    result = type_check(g, parse_process(" | ".join(["c!v.0"] * 400)), trace=False, audit=True)
    assert result.accepted and [r.count for r in result.audits] == [1] * 1599
    assert calls == []
    monkeypatch.undo()
    sites = [r.site for r in result.audits]
    assert sites[0] == "c!v.0 | c!v.0 | c!v.0 | c!v.0 | c!v.0 | c!v.0 | c!v.0 | c... (line 1, col 3191)"
    assert sites[-3:] == ["c!v.0 (line 1, col 3193)", "v : un end", "0 (line 1, col 3197)"]
    # The texts the records built when they were made, as measured before
    # sites were rendered on demand.
    digest = hashlib.sha256("\n".join(sites).encode()).hexdigest()
    assert digest == "c4ef15e6763443689e949d20cd8f6ef349f4693fe68db00ef56bd6cde604d613"


# ---------------------------------------------------------------------------
# Trace structure
# ---------------------------------------------------------------------------

def test_trace_steps_preserve_domains():
    # Binders are added and pruned inside a rule, so at the judgment level
    # every recorded step has equal input and output domains.
    for builder in (lin_pingpong, delegation, lambda: un_server(2)):
        ctx, p = builder()
        result = type_check(ctx, p)
        assert result.accepted
        for step in result.trace:
            assert step.input_ctx.names() == step.output_ctx.names()


def test_trace_serializes_renamed_process():
    ctx, p = lin_pingpong()
    result = type_check(ctx, p)
    assert result.process is not None
    assert result.process == barendregt_rename(p, avoid=ctx.names())


def test_accepting_run_builds_no_location_strings(monkeypatch):
    # With the trace and the audit off, a run keeps no location string, so
    # it must not build one: an accepting run never needs one, and a
    # rejecting run builds its error's texts only when they are read.
    import sessionpi.checker

    calls = []
    monkeypatch.setattr(sessionpi.checker, "_loc", lambda p: calls.append(p))
    accepting, errors = 0, {}
    for name in fixture_names():
        g, p, expected = load_fixture(name)
        result = type_check(g, p, trace=False)
        assert result.accepted == (expected["check"] == "accepted"), name
        if result.accepted:
            accepting += 1
        else:
            errors[name] = result.error
    assert accepting >= 4 and len(errors) >= 3
    g, p = poll_system(3)
    assert type_check(g, p, trace=False).accepted
    rng = random.Random(29)
    rejected = 0
    for _ in range(300):
        ctx = gen_safe_context(rng, ["x", "y"])
        rejected += not type_check(ctx, gen_process(rng, ["x", "y"], size=6), trace=False).accepted
    assert rejected > 100
    assert calls == []

    # Read later, the texts are the ones the CLI printed before errors were
    # formatted on demand.
    monkeypatch.undo()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, err in errors.items():
        want = golden[name]["report"]["error"]
        assert err.kind.value == want["kind"], name
        assert (err.location, err.detail) == (want["location"], want["detail"]), name
        assert str(err) == f"{want['kind']} at {want['location']}: {want['detail']}", name


_PAIR_LIN_END = "<lin !(un end).lin end, lin ?(un end).lin end>"
_PAIR_UN_END = "<lin !(un end).un end, lin ?(un end).un end>"

# One rejection per place the checker raises: (context, process, kind,
# location, detail), the texts verbatim.
REJECTIONS = [
    # NoPattern on a process: its channel absent, or no rule for its entry.
    (
        "x : lin !(un end).un end",
        "y!x.0",
        "NoPattern",
        "y!x.0 (line 1, col 1)",
        "y is not in the context",
    ),
    (
        "x : lin ?(un end).un end\nv : un end",
        "x!v.0",
        "NoPattern",
        "x!v.0 (line 1, col 1)",
        "no pattern for output on x with entry lin ?(un end).un end",
    ),
    (
        "x : lin !(un end).un end\nv : un end",
        "(x!v.0 | x!v.0)",
        "NoPattern",
        "x!v.0 (line 1, col 10)",
        "no pattern for output on x with entry ◦",
    ),
    # NoPattern on a variable, absent and present.
    ("x : lin !(un end).un end", "x!v.0", "NoPattern", "v : un end", "v is not in the context"),
    (
        "x : lin !(un end).un end\nv : lin ?(un end).un end",
        "x!v.0",
        "NoPattern",
        "v : un end",
        "cannot use v (entry lin ?(un end).un end) at type un end",
    ),
    # UnsafeAnnotation on a restriction and on the initial context.
    (
        "",
        f"new c: {_PAIR_LIN_END}. 0",
        "UnsafeAnnotation",
        f"new c: {_PAIR_LIN_END}. 0 (line 1, col 1)",
        f"annotation {_PAIR_LIN_END} is not safe",
    ),
    (
        f"c : {_PAIR_LIN_END}\nd : un end\ne : {_PAIR_LIN_END}",
        "0",
        "UnsafeAnnotation",
        "initial context",
        "context is not safe at c, e",
    ),
    # LinearResidual in the continuation, in a scope, and under replication.
    (
        "x : lin !(un end).lin !(un end).un end\nv : un end",
        "x!v.0",
        "LinearResidual",
        "x!v.0 (line 1, col 1)",
        "linear usage of x not finished in the continuation (residue lin !(un end).un end)",
    ),
    (
        "x : lin ?(lin ?(un end).un end).un end",
        "x?(y).0",
        "LinearResidual",
        "x?(y).0 (line 1, col 1)",
        "linear usage of y not finished in the continuation (residue lin ?(un end).un end)",
    ),
    (
        "x : rec a. un ?(lin ?(un end).un end).a",
        "x?(y).0",
        "LinearResidual",
        "x?(y).0 (line 1, col 1)",
        "linear usage of y not finished in its scope (residue lin ?(un end).un end)",
    ),
    (
        "",
        f"new c: {_PAIR_UN_END}. 0",
        "LinearResidual",
        f"new c: {_PAIR_UN_END}. 0 (line 1, col 1)",
        f"linear usage of c not finished in its scope (residue {_PAIR_UN_END})",
    ),
    (
        "x : lin !(un end).un end\nv : un end",
        "!(x!v.0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0)",
        "LinearResidual",
        "!(x!v.0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 |... (line 1, col 1)",
        "a linear resource was consumed under replication",
    ),
    # NonUnrestrictedResult.
    (
        "x : lin !(un end).un end\nv : un end\ny : lin ?(un end).un end",
        "0",
        "NonUnrestrictedResult",
        "x, y",
        "linear entries survive at top level: x, y",
    ),
    # Raw terms whose renaming changes the texts: a binder that shadows a
    # context entry is renamed, and the location shows the new name.
    (
        "x : un end",
        f"new x: {_PAIR_UN_END}. y!x.0",
        "NoPattern",
        "y!x1.0 (line 1, col 54)",
        "y is not in the context",
    ),
    (
        "x : un end",
        f"new x: {_PAIR_UN_END}. x!x.0",
        "NoPattern",
        "x1 : un end",
        "cannot use x1 (entry ◦) at type un end",
    ),
]


@pytest.mark.parametrize("trace", [False, True])
def test_every_rejection_text_is_pinned(trace):
    # With the trace off the raw term is checked and the texts come from the
    # renamed term when read; with it on the renamed term is checked.
    for context, process, kind, location, detail in REJECTIONS:
        err = type_check(parse_context(context), parse_process(process), trace=trace).error
        assert (err.kind.value, err.location, err.detail) == (kind, location, detail), process
        assert str(err) == f"{kind} at {location}: {detail}", process
    # The bare kernel raises the same texts on a term that renaming keeps.
    with pytest.raises(CheckError) as caught:
        check(parse_context("x : lin !(un end).un end"), parse_process("x!v.0"))
    assert str(caught.value) == "NoPattern at v : un end: v is not in the context"
    with pytest.raises(CheckError) as caught:
        check_var(parse_context("v : un end"), "v", LIN_OUT)
    assert str(caught.value) == (
        "NoPattern at v : lin !(un end).un end: cannot use v (entry un end) at type lin !(un end).un end"
    )


# ---------------------------------------------------------------------------
# Scoped binding
# ---------------------------------------------------------------------------

def _outputs(result) -> tuple:
    """Everything a caller reads of a result but its trace and audits."""
    err = result.error
    texts = (err.kind, err.location, err.detail) if err is not None else None
    return result.accepted, texts, result.residual, result.process


def _agrees_with_renaming(g, p) -> tuple:
    """The outputs of checking ``p`` itself, asserted equal to those of
    checking it renamed first, as a traced check does."""
    raw = type_check(g, p, trace=False, runtime_audits=True)
    assert _outputs(raw) == _outputs(type_check(g, p)), (str(g), str(p))
    return _outputs(raw)


def test_scoped_binding_agrees_with_renaming_on_criterion_04():
    renamed = [
        (ctx, p) for ctx, _, p in criterion_04_pairs() if barendregt_rename(p, avoid=ctx.names()) is not p
    ]
    # 704 of the exhaustive sweep's 800,690 pairs, 22 of its 520 random ones.
    print(f"{len(renamed)} criterion-4 pairs need renaming")
    assert len(renamed) == 726
    accepted = sum(_agrees_with_renaming(ctx, p)[0] for ctx, p in renamed)
    assert 0 < accepted < len(renamed)


def test_scoped_binding_agrees_with_renaming_on_shadowing_terms():
    # No criterion-4 pair has a binder that shadows a name in scope.
    procs = list(shadowing_procs(3, ("x", "y"), U6))
    checked = accepted = 0
    for ctx in criterion_04_contexts():
        for p in procs:
            if barendregt_rename(p, avoid=ctx.names()) is not p:
                checked += 1
                accepted += _agrees_with_renaming(ctx, p)[0]
    assert checked == 7528 and 0 < accepted < checked


SHADOWING = {
    # x?(x).P: the binder hides its own channel.
    "binder hides a lin channel": (
        "x : lin ?(lin ?(un end).un end).un end", "x?(x).x?(z).0", "x : ◦"),
    "hidden binder left linear": (
        "x : lin ?(lin ?(un end).un end).un end", "x?(x).0", ErrorKind.LINEAR_RESIDUAL),
    "hidden channel left linear": (
        "x : lin ?(un end).lin !(un end).un end", "x?(x).0", ErrorKind.LINEAR_RESIDUAL),
    "binder hides a pair": (
        "x : <lin ?(un end).un end, lin !(un end).un end>\nv : un end",
        "x?(x).0 | x!v.0",
        "x : <◦, ◦>\nv : un end",
    ),
    "binder hides an un channel": (
        "x : rec a. un ?(lin !(un end).un end).a\ne : un end",
        "x?(x).x!e.0",
        "x : rec a. un ?(lin !(un end).un end).a\ne : un end",
    ),
    # A restriction hides a context name, which is used again after it.
    "new hides a context name": (
        "v : lin !(un end).un end\ne : un end",
        "(new v: <lin ?(un end).un end, lin !(un end).un end>. (v?(z).0 | v!e.0)) | v!e.0",
        "v : ◦\ne : un end",
    ),
    "hidden name misused in scope": (
        "v : lin !(un end).un end\ne : un end",
        "new v: <lin ?(un end).un end, lin !(un end).un end>. v!e.v!e.0",
        ErrorKind.NO_PATTERN,
    ),
    # The same binder nested twice.
    "binder nested twice": (
        "x : lin ?(lin !(un end).un end).lin ?(lin !(un end).un end).un end\ne : un end",
        "x?(y).y!e.x?(y).y!e.0",
        "x : ◦\ne : un end",
    ),
    "outer of a nested binder left linear": (
        "x : lin ?(lin !(un end).un end).lin ?(lin !(un end).un end).un end\ne : un end",
        "x?(y).x?(y).y!e.0",
        ErrorKind.LINEAR_RESIDUAL,
    ),
    "new x under x?(y)": (
        "x : lin ?(un end).un end",
        "x?(y).new x: <lin ?(un end).un end, lin !(un end).un end>. (x!y.0 | x?(z).0)",
        "x : ◦",
    ),
}


@pytest.mark.parametrize("name", sorted(SHADOWING))
def test_shadowing_binder_is_checked_as_its_renaming(name):
    ctx_text, proc_text, want = SHADOWING[name]
    g, p = parse_context(ctx_text), parse_process(proc_text)
    assert barendregt_rename(p, avoid=g.names()) is not p
    accepted, texts, residual, _ = _agrees_with_renaming(g, p)
    if isinstance(want, ErrorKind):
        assert not accepted and texts[0] is want
        with pytest.raises(CheckError) as raised:
            check(g, p)
        assert raised.value.kind is want
    else:
        assert accepted and residual == parse_context(want)
        # The bare kernel never renamed its input: the scope alone gives
        # the residue that type_check gets.
        assert check(g, p) == residual


def test_trace_off_check_renames_only_when_the_term_is_read(monkeypatch):
    import sessionpi.checker

    calls = []

    def counted(p, avoid=frozenset()):
        calls.append(p)
        return barendregt_rename(p, avoid=avoid)

    monkeypatch.setattr(sessionpi.checker, "barendregt_rename", counted)
    pair = parse_context("x : <lin ?(un end).un end, lin !(un end).un end>\nv : un end")
    lin = parse_context("x : lin ?(lin ?(un end).un end).un end")
    accepted = type_check(pair, parse_process("x?(x).0 | x!v.0"), trace=False)
    rejected = type_check(lin, parse_process("x?(x).0"), trace=False)
    assert accepted.accepted and accepted.residual == parse_context("x : <◦, ◦>\nv : un end")
    assert not rejected.accepted and rejected.error.kind is ErrorKind.LINEAR_RESIDUAL
    assert rejected.residual is None
    assert calls == []
    # One renaming for the process, however often it is read, and one for
    # both texts of an error.
    assert str(accepted.process) == "x?(x1).0 | x!v.0"
    assert str(accepted.process) == "x?(x1).0 | x!v.0"
    assert len(calls) == 1
    assert rejected.error.location == "x?(x1).0 (line 1, col 1)"
    assert "of x1 not finished" in rejected.error.detail
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Traced checking of deep inputs
# ---------------------------------------------------------------------------

# One trace step per rule instance, whatever layout the contexts use.
DEEP_TRACE_LENGTHS = {"chain": 601, "poll": 1419, "wide": 1399}


@pytest.mark.parametrize("name", sorted(deep_inputs()))
def test_deep_inputs_check_with_the_trace_on(name):
    ctx_text, proc_text = deep_inputs()[name]
    result = type_check(parse_context(ctx_text), parse_process(proc_text))
    assert result.accepted, result.error
    assert len(result.trace) == DEEP_TRACE_LENGTHS[name]
    for step in result.trace:
        node = step.node
        assert step.subject == (f"{node[0]} : {node[1]}" if isinstance(node, tuple) else str(node))
    assert result.trace[0].subject == str(result.process)


# ---------------------------------------------------------------------------
# Wide soups: ``check`` threads the context through a ``|`` soup in a loop
# ---------------------------------------------------------------------------

WIDE = 10_000


def _wide_soup(nesting: str) -> Par:
    """A ``WIDE``-way soup on an unrestricted channel, half sends and half
    receives: left-nested as the parser builds it, or right-nested."""
    texts = ["c!v.0" if i % 2 else f"c?(b{i}).0" for i in range(WIDE)]
    if nesting == "left":
        return parse_process(" | ".join(texts))
    threads = [parse_process(text) for text in reversed(texts)]
    return functools.reduce(lambda rest, thread: Par(thread, rest), threads[1:], threads[0])


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_wide_soups_check_with_the_trace_off_and_on(nesting):
    g, p = parse_context(UN_CHANNEL_CTX), _wide_soup(nesting)
    untraced = type_check(g, p, trace=False)
    assert untraced.accepted, untraced.error
    traced = type_check(g, p)
    assert traced.accepted, traced.error
    assert traced.residual == untraced.residual
    # One A-Par step per ``|``; a send takes three steps, a receive two.
    rules = [step.rule for step in traced.trace]
    assert rules.count("A-Par") == WIDE - 1
    assert len(rules) == 3.5 * WIDE - 1


def _run(run: _Checker, g: Context, p) -> tuple:
    """The residue, error texts, completed trace and audits of ``run`` on ``p``."""
    out, err = _outcome(run, g, p)
    texts = None if err is None else (err.kind, err.location, err.detail)
    return out, texts, _completed(run), run.audits


def test_par_steps_come_in_the_order_of_the_recursive_rule():
    # The loop leaves the trace, audits, error and residue of A-Par's two
    # recursive calls, also when a soup rejects in a later thread: the
    # steps of the threads before it completed, those of the open ``|``
    # above it not.
    procs = [p for p in _exhaustive_procs(5, ("x", "y")) if any(isinstance(q, Par) for q in subprocesses(p))]
    contexts = criterion_04_contexts()
    flags = dict(trace=True, audit=True, runtime_audits=True)
    accepted = later_thread = 0
    for g in (contexts[7], contexts[8]):
        for p in procs:
            got = _run(_Checker(**flags), g, p)
            assert got == _run(ReferenceParChecker(**flags), g, p), (str(g), str(p))
            _, texts, trace, _ = got
            accepted += texts is None
            done = {id(step.node) for step in trace}
            later_thread += texts is not None and any(
                id(q.left) in done for q in subprocesses(p) if isinstance(q, Par) and id(q) not in done
            )
    assert len(procs) == 1337
    assert 0 < accepted and 0 < later_thread


def test_traced_poll_system_keeps_little_memory():
    # Contexts along a trace share their name index and every chunk of
    # entries a step did not change, and steps keep their subjects as
    # nodes: a step over n names holds about 32 + n / 32 new pointers.
    # Copying all n entries per step, as a flat tuple does, retained
    # 3.5 MB here; chunks retain 0.8 MB.
    ctx_text, proc_text = deep_inputs()["poll"]
    g, p = parse_context(ctx_text), parse_process(proc_text)
    gc.collect()
    tracemalloc.start()
    try:
        result = type_check(g, p)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.accepted
    assert retained < 2_000_000


def test_rejected_result_is_freed_without_the_garbage_collector():
    # The error a result keeps holds no traceback.  A traceback reaches the
    # frame of its caller, which holds the result, which holds the error:
    # a reference cycle that only the garbage collector frees.
    # With the trace off the error's texts also keep the renaming they are
    # read from, which holds no result either.
    g, p, _ = load_fixture("lin_then_un_misuse")

    def rejected_error(trace):
        result = type_check(g, p, trace=trace)
        assert not result.accepted and result.error.location
        return weakref.ref(result.error)

    gc.collect()
    gc.disable()
    try:
        assert rejected_error(True)() is None
        assert rejected_error(False)() is None
    finally:
        gc.enable()
