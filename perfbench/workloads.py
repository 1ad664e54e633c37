"""The benchmark's three workloads.

Each workload has a ``build`` step (set-up: generate and parse its inputs
from the seed) and a ``run`` step (one pass over its fixed list of items,
closed loop, one client).  ``run`` hands every item to a ``Pass``, which
times the library call alone, then checks the verdict against its known
answer outside the timed region.

Known answers never come from the checker under test: the oracle for
accepted differential items, ``expected.json`` for fixtures, construction
for the protocol families and the large inputs, and a found retyping for
every reduct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

import corpus
import golden
import hostspeed

FIXTURES = (
    "lin_then_un_misuse",
    "ping",
    "poll",
    "poll_swapped",
    "unrestricted_channel",
    "witness_input_then_output",
    "witness_self_delegation",
)

# Unrestricted channel pair used by the large prefix chains and compositions.
UN_CHANNEL = "<rec a. un ?(un end).a, rec b. un !(un end).b>"


@dataclass
class Outcome:
    """What one item's verdict was, and whether it matched the known answer."""

    record: str  # deterministic text of the verdict, folded into the digest
    ok: bool
    queries: int = 0  # oracle queries made
    decided: int = 0  # of which not INCONCLUSIVE
    accepted: int = 0  # 1 when the checker accepted the item


# Host speed is calibrated after a stretch of at least this many seconds of
# items, and the stretch's times are scaled by the calibrations at its ends.
STRETCH_S = 0.1


class Pass:
    """One pass over a workload's items.

    Times each item's library call alone, then checks its verdict at once
    (outside the timed region) and keeps only a compact outcome, so that
    results do not pile up on the heap and lengthen garbage collections.

    The pass is cut into stretches of about ``STRETCH_S``.  Between two
    stretches, outside both, the host's speed is calibrated
    (``hostspeed``); each stretch's wall time and item times are also kept
    scaled to the nominal host by the calibrations at its two ends.
    """

    def __init__(self, over_limit: frozenset = frozenset()):
        self.over_limit = over_limit
        self.seconds: list[float] = []
        self.scaled: list[float] = []  # item times on the nominal host
        self.wall = self.scaled_wall = 0.0  # the pass's time, without checks and calibrations
        self.references: list[float] = [hostspeed.calibrate()]
        self._excluded = 0.0  # time spent checking verdicts in this stretch
        self._first = 0  # first item of this stretch
        self._began = time.perf_counter()
        self.failed = self.queries = self.decided = self.accepted = 0
        self.wrong: list[tuple[str, str]] = []  # failed items outside the over-limit set
        self.over_limit_failed: list[tuple[str, str]] = []
        self._digest = hashlib.sha256()

    @property
    def items(self) -> int:
        return len(self.seconds)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def item(self, ident: str, thunk: Callable[[], object], check: Callable[[object], Outcome]):
        start = time.perf_counter()
        try:
            value = thunk()
        except Exception as err:  # a raising item is a failed item; the pass goes on
            value, outcome = None, Outcome(f"raised {type(err).__name__}", False)
        else:
            outcome = None
        checked = time.perf_counter()
        self.seconds.append(checked - start)
        if outcome is None:
            try:
                outcome = check(value)
            except Exception as err:  # a malformed result is a wrong verdict
                outcome = Outcome(f"unreadable result: {type(err).__name__}: {err}", False)
        self._digest.update(f"{ident}|{outcome.record}\n".encode("utf-8"))
        self.accepted += outcome.accepted
        self.queries += outcome.queries
        self.decided += outcome.decided
        if not outcome.ok:
            self.failed += 1
            # Over-limit inputs are expected to fail today (known depth
            # defect): they count as failed but do not make the run
            # incorrect.  Any other failure does.
            failures = self.over_limit_failed if ident in self.over_limit else self.wrong
            failures.append((ident, outcome.record))
        ended = time.perf_counter()
        self._excluded += ended - checked
        if ended - self._began >= STRETCH_S:
            self.end_stretch()
        return value

    def end_stretch(self):
        """Close the current stretch: calibrate, and scale its times by the
        calibrations at its two ends."""
        wall = time.perf_counter() - self._began - self._excluded
        before, after = self.references[-1], hostspeed.calibrate()
        self.references.append(after)
        self.wall += wall
        self.scaled_wall += hostspeed.scale(wall, before, after)
        self.scaled += [hostspeed.scale(t, before, after) for t in self.seconds[self._first :]]
        self._first, self._excluded = len(self.seconds), 0.0
        self._began = time.perf_counter()


def check_record(sp, result) -> str:
    kind = result.error.kind.value if result.error is not None else "-"
    residual = sp.pretty(result.residual) if result.residual is not None else "-"
    return f"{'accepted' if result.accepted else 'rejected'}|{kind}|{residual}"


def load_fixture(sp, root, name: str):
    base = root / "fixtures" / name
    ctx = sp.parse_context((base / "context.ctx").read_text(encoding="utf-8"))
    process = sp.parse_process((base / "process.pi").read_text(encoding="utf-8"))
    expected = json.loads((base / "expected.json").read_text(encoding="utf-8"))
    return base, ctx, process, expected


# ---------------------------------------------------------------------------
# differential_sweep: checker traffic of the soundness differential
# ---------------------------------------------------------------------------

EXHAUSTIVE_SAMPLE = 16_000
RANDOM_SAMPLE = 4_000


def build_differential(sp, seed: int, root):
    rng = random.Random(seed)
    u6 = corpus.universe(sp)
    contexts = corpus.differential_contexts(sp, u6)
    decls = [sp.to_decl_context(ctx) for ctx in contexts]
    procs = list(corpus.exhaustive_procs(sp, u6, 5, ("x", "y")))
    recorded = golden.load()
    if (recorded["procs"], recorded["contexts"]) != (len(procs), len(contexts)):
        raise ValueError(f"{golden.FILE.name} does not match the criterion-4 enumeration")
    kinds = recorded["kinds"]
    items = []
    for k in rng.sample(range(len(procs) * len(contexts)), EXHAUSTIVE_SAMPLE):
        c, p = k % len(contexts), k // len(contexts)
        items.append((f"c4:{p}:{c}", contexts[c], decls[c], procs[p], recorded["codes"][k], kinds))
    for j in range(RANDOM_SAMPLE):
        names = ["x", "y", "z"][: 1 + j % 3]
        ctx = sp.gen.gen_safe_context(rng, names)
        while corpus.has_void(sp, ctx):  # the oracle is defined on void-free contexts only
            ctx = sp.gen.gen_safe_context(rng, names)
        p = sp.gen.gen_process(rng, names, size=4 + j % 6)
        items.append((f"gen:{j}", ctx, sp.to_decl_context(ctx), p, None, None))
    rng.shuffle(items)
    return items


def run_differential(sp, items, rec: Pass):
    def check(value, code, kinds) -> Outcome:
        result, oracle = value
        # A criterion-4 pair must get the verdict recorded on the seed
        # commit; a generated instance has no recorded verdict.
        ok = code is None or golden.verdict_code(result, kinds) == code
        if oracle is None:
            return Outcome(check_record(sp, result) + "|-", ok, accepted=int(result.accepted))
        # Accepted: the oracle must derive the renamed process.
        decided = oracle.verdict is not sp.Verdict.INCONCLUSIVE
        ok = ok and oracle.verdict is not sp.Verdict.NOT_DERIVABLE
        return Outcome(f"{check_record(sp, result)}|{oracle.verdict.value}", ok, 1, int(decided), accepted=1)

    for ident, ctx, decl, p, code, kinds in items:
        rec.item(ident, lambda: _differential(sp, ctx, decl, p), lambda v: check(v, code, kinds))


def _differential(sp, ctx, decl, p):
    result = sp.type_check(ctx, p, trace=False, runtime_audits=True)
    oracle = sp.derivable(decl, result.process) if result.accepted else None
    return result, oracle


# ---------------------------------------------------------------------------
# oracle_search: split enumeration and the retyping search
# ---------------------------------------------------------------------------

POLL_SIZES = range(1, 7)
# (family member, reduction steps explored for retyping)
RETYPING = (
    (("poll_system", 1, False), 3),
    (("poll_system", 1, True), 3),
    (("poll_system", 2, False), 3),
    (("poll_system", 2, True), 3),
    (("poll_system", 3, False), 1),
    (("poll_system", 3, True), 1),
    (("poll_system", 4, False), 1),
    (("poll_system", 4, True), 1),
    (("lin_pingpong",), 3),
    (("un_server", 1), 3),
    (("un_server", 4), 3),
    (("delegation",), 3),
    (("closed_session",), 3),
)


def build_oracle(sp, seed: int, root):
    units = []
    for n in POLL_SIZES:
        for swapped in (False, True):
            ctx, p = sp.gen.poll_system(n, swapped=swapped)
            units.append(("poll", f"poll:{n}:{int(swapped)}", ctx, p, None))
    for name in FIXTURES:
        _, ctx, p, expected = load_fixture(sp, root, name)
        units.append(("fixture", f"fixture:{name}", ctx, p, expected))
    for (family, *params), steps in RETYPING:
        ctx, p = getattr(sp.gen, family)(*params)
        label = ":".join(str(x) for x in (family, *params))
        units.append(("retype", f"retype:{label}", ctx, p, steps))
    # The content is fixed; the seed sets the order the units run in.
    random.Random(seed).shuffle(units)
    return units


def run_oracle(sp, units, rec: Pass):
    for kind, ident, ctx, p, extra in units:
        if kind == "poll":
            rec.item(ident, lambda: _poll_query(sp, ctx, p), lambda v: _poll_outcome(sp, v))
        elif kind == "fixture":
            rec.item(ident, lambda: _fixture_query(sp, ctx, p), lambda v: _fixture_outcome(sp, v, extra))
        else:
            _explore(sp, rec, ident, ctx, p, extra)


def _poll_query(sp, ctx, p):
    result = sp.type_check(ctx, p, trace=False)
    oracle = sp.derivable(sp.to_decl_context(ctx), result.process) if result.accepted else None
    return result, oracle


def _poll_outcome(sp, value) -> Outcome:
    result, oracle = value
    verdict = oracle.verdict.value if oracle is not None else "-"
    record = f"{check_record(sp, result)}|{verdict}|{oracle.spent if oracle else 0}"
    queries = 1 if oracle is not None else 0
    decided = int(oracle is not None and oracle.verdict is not sp.Verdict.INCONCLUSIVE)
    # The family is accepted and derivable by construction.
    ok = result.accepted and oracle.verdict is sp.Verdict.DERIVABLE
    return Outcome(record, ok, queries, decided, int(result.accepted))


def _fixture_query(sp, ctx, p):
    result = sp.type_check(ctx, p)
    oracle = sp.derivable(sp.to_decl_context(ctx), sp.barendregt_rename(p, avoid=ctx.names()))
    return result, oracle


def _fixture_outcome(sp, value, expected: dict) -> Outcome:
    result, oracle = value
    ok = (
        result.accepted == (expected["check"] == "accepted")
        and (result.error.kind.value if result.error else None) == expected.get("error_kind")
        and oracle.verdict.value == expected["oracle"]
    )
    record = f"{check_record(sp, result)}|{oracle.verdict.value}|{oracle.spent}"
    decided = int(oracle.verdict is not sp.Verdict.INCONCLUSIVE)
    return Outcome(record, ok, 1, decided, int(result.accepted))


def _explore(sp, rec: Pass, ident: str, ctx, p, steps: int):
    """Criterion 7 on one family member: every reduct within ``steps``
    reduction steps must be derivable under some safe retyping."""
    decl = sp.to_decl_context(ctx)
    frontier = [sp.barendregt_rename(p, avoid=ctx.names())]
    seen = set(frontier)
    for step in range(steps):
        next_frontier = []
        for i, q in enumerate(frontier):
            reducts = rec.item(
                f"{ident}:reduce:{step}:{i}",
                lambda: sp.reduce_step(sp.barendregt_rename(q, avoid=ctx.names())),
                lambda v: Outcome(f"{len(v)} reducts", True),
            )
            for reduct in reducts or ():
                if reduct in seen:
                    continue
                seen.add(reduct)
                next_frontier.append(reduct)
                rec.item(
                    f"{ident}:retype:{step}:{len(next_frontier)}",
                    lambda: corpus.find_retyping(sp, decl, reduct),
                    lambda v: _retype_outcome(sp, v, reduct),
                )
        frontier = next_frontier


def _retype_outcome(sp, value, reduct) -> Outcome:
    found, info, queries = value
    decided = sum(1 for q in queries if q.verdict is not sp.Verdict.INCONCLUSIVE)
    verdict = "found" if found is not None else (info.verdict.value if info else "none")
    record = f"{reduct}|{verdict}|{found}"
    return Outcome(record, found is not None, len(queries), decided)


# ---------------------------------------------------------------------------
# large_inputs: text in, verdict out, with the trace on
# ---------------------------------------------------------------------------

# Sizes are fixed so that every seed costs the same; the seed draws names,
# which half of the prefixes receive and which half of the poll systems
# put the client first.  A client-first poll system checks about 20% faster,
# so the seed picks which ones, not how many.
CHAIN_SIZES = range(10, 301, 10)  # prefix chains and |-compositions
POLL_SIZES_LARGE = range(20, 301, 20)
# Just past the depth that passes today; each raises RecursionError.
OVER_LIMIT = (("chain", 400), ("wide", 400), ("poll", 350))
OVER_LIMIT_IDENTS = frozenset(f"over:{shape}:{size}" for shape, size in OVER_LIMIT)


def _name(rng, prefix: str) -> str:
    return f"{prefix}{rng.randint(1000, 9999)}"


def _receives(rng, k: int) -> set:
    """Which of ``k`` positions receive: exactly half, drawn by the seed."""
    return set(rng.sample(range(k), k // 2))


def _chain(rng, k: int) -> tuple[str, str]:
    chan, val = _name(rng, "c"), _name(rng, "v")
    receives = _receives(rng, k)
    prefixes = "".join(f"{chan}?(b{i})." if i in receives else f"{chan}!{val}." for i in range(k))
    return f"{chan} : {UN_CHANNEL}\n{val} : un end", prefixes + "0"


def _wide(rng, k: int) -> tuple[str, str]:
    chan, val = _name(rng, "c"), _name(rng, "v")
    receives = _receives(rng, k)
    parts = (f"{chan}?(b{i}).0" if i in receives else f"{chan}!{val}.0" for i in range(k))
    return f"{chan} : {UN_CHANNEL}\n{val} : un end", " | ".join(parts)


def _poll(sp, n: int, client_first: bool) -> tuple[str, str]:
    service, client = sp.gen.poll_service_text(), sp.gen.poll_client_text(n)
    system = f"{client} | {service}" if client_first else f"{service} | {client}"
    return sp.gen.poll_context_text(n), system


def build_large(sp, seed: int, root):
    rng = random.Random(seed)
    texts = []
    for k in CHAIN_SIZES:
        texts.append((f"chain:{k}", *_chain(rng, k)))
        texts.append((f"wide:{k}", *_wide(rng, k)))
    client_first = set(rng.sample(POLL_SIZES_LARGE, len(POLL_SIZES_LARGE) // 2))
    for n in POLL_SIZES_LARGE:
        texts.append((f"poll:{n}", *_poll(sp, n, n in client_first)))
    for shape, size in OVER_LIMIT:
        make = {"chain": _chain, "wide": _wide}.get(shape)
        ctx_text, proc_text = make(rng, size) if make else _poll(sp, size, rng.random() < 0.5)
        texts.append((f"over:{shape}:{size}", ctx_text, proc_text))
    items = [("text", ident, ctx_text, proc_text, None) for ident, ctx_text, proc_text in texts]
    for name in FIXTURES:
        base, _, _, expected = load_fixture(sp, root, name)
        argv = ["check", str(base / "process.pi"), "--ctx", str(base / "context.ctx"), "--trace", "--json"]
        items.append(("cli", f"cli:{name}", argv, expected, None))
    rng.shuffle(items)
    return items


def run_large(sp, items, rec: Pass):
    def text_outcome(result) -> Outcome:
        # Every text input is well typed by construction.
        ok = result.accepted and len(result.trace) > 0
        return Outcome(f"{check_record(sp, result)}|{len(result.trace)}", ok, accepted=int(result.accepted))

    for kind, ident, a, b, _ in items:
        if kind == "text":
            rec.item(ident, lambda: _parse_and_check(sp, a, b), text_outcome)
        else:
            rec.item(ident, lambda: _cli_check(sp, a), lambda v: _cli_outcome(v, b))


def _parse_and_check(sp, ctx_text: str, proc_text: str):
    ctx = sp.parse_context(ctx_text)
    p = sp.parse_process(proc_text)
    return sp.type_check(ctx, p, trace=True)


def _cli_check(sp, argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sp.cli.main(argv)
    return code, out.getvalue()


def _cli_outcome(value, expected: dict) -> Outcome:
    code, text = value
    report = json.loads(text)
    accepted = expected["check"] == "accepted"
    kind = report["error"]["kind"] if "error" in report else None
    ok = (
        code == (0 if accepted else 1)
        and report["accepted"] is accepted
        and kind == expected.get("error_kind")
    )
    record = f"{code}|{report['accepted']}|{kind}|{report.get('residual', '-')}|{len(report['trace'])}"
    return Outcome(record, ok, accepted=int(report["accepted"] is True))


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    over_limit: frozenset = frozenset()


WORKLOADS = {
    "differential_sweep": Workload(build_differential, run_differential),
    "oracle_search": Workload(build_oracle, run_oracle),
    "large_inputs": Workload(build_large, run_large, OVER_LIMIT_IDENTS),
}
