"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Budgets are asserted as upper bounds on wall time.
"""

import random
import time

from sessionpi import (
    ChanType,
    ErrorKind,
    barendregt_rename,
    parse_type,
    type_check,
)
from sessionpi.contexts import (
    Context,
    decl_to_context,
    entry_of_type,
    is_safe_type,
    is_un_context,
    to_decl_context,
)
from sessionpi.declarative import Verdict, derivable
from sessionpi.gen import (
    gen_process,
    gen_safe_context,
    gen_type,
    poll_system,
)
from sessionpi.semantics import congruence_steps, reduce_step_labeled
from sessionpi.syntax import Input, New, Output, Par, Repl, Zero
from sessionpi.table import evaluate_table
from sessionpi.equality import type_equal, unfold
from sessionpi import context_equal
from tests.conftest import load_fixture
from tests.helpers import accepted_family, expansion_equal, retyped


def _verdict(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_poll_protocol_accepted_both_orders():
    budget = 1.0
    timings = []
    for swapped in (False, True):
        ctx, p = poll_system(2, swapped=swapped)
        start = time.perf_counter()
        result = type_check(ctx, p, runtime_audits=True)
        timings.append(time.perf_counter() - start)
        assert result.accepted and is_un_context(result.residual)
    ok = max(timings) < budget
    _verdict(
        1,
        ok,
        f"poll system accepted in both thread orders, unrestricted residual, "
        f"max {max(timings) * 1000:.0f} ms (< {budget:.0f} s each)",
    )


def test_criterion_02_misuse_rejected_unrestricted_accepted():
    start = time.perf_counter()
    ctx, p, expected = load_fixture("lin_then_un_misuse")
    bad = type_check(ctx, p)
    ctx2, p2, _ = load_fixture("unrestricted_channel")
    good = type_check(ctx2, p2, runtime_audits=True)
    elapsed = time.perf_counter() - start
    ok = (
        not bad.accepted
        and bad.error.kind.value == expected["error_kind"]
        and "x?(y)" in bad.error.location
        and good.accepted
        and elapsed < 1.0
    )
    _verdict(
        2,
        ok,
        "linear-then-unrestricted misuse rejected with NoPattern on the second "
        f"thread; plain unrestricted channel accepted ({elapsed * 1000:.0f} ms)",
    )


def test_criterion_03_pattern_determinism_audit():
    budget = 120.0
    rng = random.Random(1003)
    start = time.perf_counter()
    violations = 0
    call_sites = 0
    unsafe = 0
    for k in range(1000):
        names = ["x", "y", "z", "w"][: 1 + k % 4]
        ctx = gen_safe_context(rng, names)
        p = gen_process(rng, names, size=4 + k % 5)
        result = type_check(ctx, p, trace=False, audit=True)
        if result.audits is None:
            # Some generated pairs end in lin end, which is not safe: such a
            # context is rejected before any rule runs.
            unsafe += 1
            violations += result.error.kind is not ErrorKind.UNSAFE_ANNOTATION
            continue
        call_sites += len(result.audits)
        violations += sum(1 for r in result.audits if r.count > 1)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < budget
    _verdict(
        3,
        ok,
        f"{1000 - unsafe} safe (context, process) pairs ({unsafe} unsafe contexts rejected unchecked), "
        f"{call_sites} recursive calls, "
        f"{violations} sites with more than one matching pattern ({elapsed:.1f} s)",
    )


U6 = [
    parse_type("un end"),
    parse_type("lin !(un end).un end"),
    parse_type("lin ?(un end).un end"),
    parse_type("<lin ?(un end).un end, lin !(un end).un end>"),
    parse_type("<rec a. un ?(un end).a, rec b. un !(un end).b>"),
    parse_type("<un end, un end>"),
]
_BINDERS = ("u", "w")


def _exhaustive_procs(size, names, depth=0):
    if size >= 1:
        yield Zero()
    if size >= 2:
        for cont in _exhaustive_procs(size - 1, names, depth):
            yield Repl(cont)
        for chan in names:
            for arg in names:
                for cont in _exhaustive_procs(size - 1, names, depth):
                    yield Output(chan, arg, cont)
        if depth < len(_BINDERS):
            binder = _BINDERS[depth]
            extended = names + (binder,)
            for chan in names:
                for cont in _exhaustive_procs(size - 1, extended, depth + 1):
                    yield Input(chan, binder, cont)
            for annot in U6:
                for cont in _exhaustive_procs(size - 1, extended, depth + 1):
                    yield New(binder, annot, cont)
    if size >= 3:
        for k in range(1, size - 1):
            for left in _exhaustive_procs(k, names, depth):
                for right in _exhaustive_procs(size - 1 - k, names, depth):
                    yield Par(left, right)


def criterion_04_contexts():
    contexts = [Context([("x", entry_of_type(t))]) for t in U6]
    for a, b in [(3, 0), (4, 0), (1, 2), (4, 5), (5, 0)]:
        contexts.append(
            Context([("x", entry_of_type(U6[a])), ("y", entry_of_type(U6[b]))])
        )
    return contexts


def _criterion_04_exhaustive(contexts, procs):
    """Every process of ``procs`` under each context, with its declared context."""
    for ctx in contexts:
        decl = to_decl_context(ctx)
        for p in procs:
            yield ctx, decl, p


def _criterion_04_random():
    """At least 500 random larger instances on top of the exhaustive sweep."""
    rng = random.Random(1004)
    for k in range(520):
        if k % 2 == 0:
            pool = [U6[0], U6[1], U6[2], U6[3], U6[4], U6[5]]
            decl_entries = [(n, rng.choice(pool)) for n in ("x", "y", "z")]
            from sessionpi.contexts import DeclContext

            decl = DeclContext(decl_entries)
            ctx = decl_to_context(decl)
            p = gen_process(rng, ["x", "y", "z"], size=6 + k % 4)
        else:
            ctx, p = accepted_family(1)[0] if k % 4 == 1 else poll_system(1 + k % 3)
            decl = to_decl_context(ctx)
            steps = congruence_steps(barendregt_rename(p, avoid=ctx.names()))
            if steps:
                p = steps[k % len(steps)].result
        yield ctx, decl, p


def criterion_04_pairs():
    """The (context, declared context, process) pairs of criterion 4."""
    yield from _criterion_04_exhaustive(criterion_04_contexts(), list(_exhaustive_procs(5, ("x", "y"))))
    yield from _criterion_04_random()


def test_criterion_04_soundness_differential():
    budget = 600.0
    start = time.perf_counter()
    contexts = criterion_04_contexts()
    procs = list(_exhaustive_procs(5, ("x", "y")))
    checked = accepted_count = 0
    failures = []
    for ctx, decl, p in _criterion_04_exhaustive(contexts, procs):
        checked += 1
        result = type_check(ctx, p, trace=False, runtime_audits=True)
        if not result.accepted:
            continue
        accepted_count += 1
        oracle = derivable(decl, result.process)
        if oracle.verdict is not Verdict.DERIVABLE:
            failures.append((str(ctx), str(p), oracle.verdict.value))

    random_accepted = 0
    for ctx, decl, p in _criterion_04_random():
        result = type_check(ctx, p, trace=False, runtime_audits=True)
        checked += 1
        if not result.accepted:
            continue
        accepted_count += 1
        random_accepted += 1
        oracle = derivable(decl, result.process)
        if oracle.verdict is not Verdict.DERIVABLE:
            failures.append((str(ctx), str(p), oracle.verdict.value))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget and random_accepted > 0
    _verdict(
        4,
        ok,
        f"{checked} instances ({len(procs)} exhaustive processes x {len(contexts)} "
        f"contexts + 520 random), {accepted_count} accepted, "
        f"{len(failures)} acceptance/derivability disagreements ({elapsed:.1f} s)",
    )
    assert failures == [], failures[:5]


def test_criterion_05_incompleteness_witnesses():
    outcomes = []
    for name in ("witness_input_then_output", "witness_self_delegation"):
        ctx, p, expected = load_fixture(name)
        rejected = not type_check(ctx, p).accepted
        oracle = derivable(to_decl_context(ctx), barendregt_rename(p, avoid=ctx.names()))
        outcomes.append(rejected and oracle.verdict is Verdict.DERIVABLE)
    ok = all(outcomes)
    _verdict(
        5,
        ok,
        "both witness typings are derivable by the split-based oracle and "
        "rejected by the deterministic checker",
    )


def test_criterion_06_congruence_preservation():
    budget = 300.0
    start = time.perf_counter()
    pairs = 0
    divergences = []
    fixtures = accepted_family(24)
    rng = random.Random(1006)
    while pairs < 500:
        for ctx, p in fixtures:
            q = barendregt_rename(p, avoid=ctx.names())
            baseline = type_check(ctx, q, trace=False, runtime_audits=True)
            assert baseline.accepted
            for step in congruence_steps(q):
                pairs += 1
                result = type_check(ctx, step.result, trace=False, runtime_audits=True)
                agree = result.accepted == baseline.accepted
                if agree and result.accepted:
                    agree = context_equal(result.residual, baseline.residual)
                if not agree:
                    divergences.append((str(step.rule), step.direction, step.path))
            if pairs >= 500:
                break
        fixtures = [
            (ctx, congruence_steps(barendregt_rename(p, avoid=ctx.names()))[0].result)
            for ctx, p in fixtures[:4]
        ] + accepted_family(8 + rng.randint(0, 4))
    elapsed = time.perf_counter() - start
    ok = not divergences and pairs >= 500 and elapsed < budget
    _verdict(
        6,
        ok,
        f"{pairs} one-step rewrite pairs re-checked, {len(divergences)} verdict or "
        f"residual divergences ({elapsed:.1f} s)",
    )


def test_criterion_07_subject_reduction_search():
    budget = 600.0
    start = time.perf_counter()
    fixtures = accepted_family(50)
    reducts_checked = 0
    inconclusive = []
    failures = []
    for index, (ctx, p) in enumerate(fixtures):
        assert type_check(ctx, p, trace=False).accepted
        renamed = barendregt_rename(p, avoid=ctx.names())
        frontier = [(to_decl_context(ctx), renamed)]
        seen = {renamed}
        for _ in range(3):
            next_frontier = []
            for decl, q in frontier:
                for chan, reduct in reduce_step_labeled(barendregt_rename(q, avoid=ctx.names())):
                    if reduct in seen:
                        continue
                    seen.add(reduct)
                    # The one context the step names: only ``chan`` moved.
                    after = retyped(decl, chan)
                    next_frontier.append((after, reduct))
                    reducts_checked += 1
                    result = derivable(after, barendregt_rename(reduct, avoid=after.names()))
                    if result.verdict is Verdict.INCONCLUSIVE:
                        inconclusive.append((index, str(reduct), result.bound))
                    elif not (result and all(is_safe_type(t) for _, t in after.items())):
                        failures.append((index, str(reduct), str(after)))
            frontier = next_frontier
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget and reducts_checked >= 50
    detail = (
        f"{len(fixtures)} accepted fixtures, {reducts_checked} reducts within 3 steps, "
        f"{len(failures)} not derivable under the safe context their step names"
    )
    if inconclusive:
        detail += f", {len(inconclusive)} inconclusive (bound reported)"
    _verdict(7, ok, detail + f" ({elapsed:.1f} s)")
    assert failures == [], failures[:5]


def test_criterion_08_context_algebra_table():
    start = time.perf_counter()
    outcomes = evaluate_table()
    elapsed = time.perf_counter() - start
    bad = [o for o in outcomes if not o.ok]
    ok = not bad and len(outcomes) == 24 and elapsed < 1.0
    _verdict(
        8,
        ok,
        f"{len(outcomes) - len(bad)}/{len(outcomes)} algebra rows reproduced, "
        f"both linear-system equations per row ({elapsed * 1000:.0f} ms)",
    )


def test_criterion_09_runtime_invariant_audits():
    # Domain preservation, output safety and used-closure definedness are
    # asserted inside every check call when runtime_audits is on; this sweep
    # exercises accepted runs, rejected runs and random safe instances.
    from sessionpi.checker import AuditViolation

    rng = random.Random(1009)
    runs = 0
    try:
        for ctx, p in accepted_family(20):
            type_check(ctx, p, runtime_audits=True)
            runs += 1
        for name in (
            "lin_then_un_misuse",
            "witness_input_then_output",
            "witness_self_delegation",
        ):
            ctx, p, _ = load_fixture(name)
            type_check(ctx, p, runtime_audits=True)
            runs += 1
        for _ in range(300):
            ctx = gen_safe_context(rng, ["x", "y"])
            p = gen_process(rng, ["x", "y"], size=7)
            type_check(ctx, p, trace=False, runtime_audits=True)
            runs += 1
    except AuditViolation as err:
        _verdict(9, False, f"invariant audit failed after {runs} runs: {err}")
        return
    _verdict(9, True, f"{runs} audited runs, zero invariant violations")


def test_criterion_10_equality_engine_against_expansion():
    budget = 30.0
    start = time.perf_counter()
    t1 = parse_type("<rec a. lin !(un end).lin ?(un end).a, un end>")
    t2 = parse_type("<un end, lin !(un end).rec b. lin ?(un end).lin !(un end).b>")
    interchangeable = type_equal(t1, t2)
    rng = random.Random(1010)
    disagreements = 0
    for k in range(200):
        a = gen_type(rng)
        if k % 3 == 0:
            b = a if isinstance(a, ChanType) else unfold(a)
        elif k % 3 == 1:
            b = ChanType(a.right, a.left) if isinstance(a, ChanType) else a
        else:
            b = gen_type(rng)
        if type_equal(a, b) != expansion_equal(a, b, depth=12):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = interchangeable and disagreements == 0 and elapsed < budget
    _verdict(
        10,
        ok,
        f"200 random pairs agree with depth-12 tree expansion, interchangeable "
        f"recursive pair validated ({elapsed:.1f} s)",
    )
