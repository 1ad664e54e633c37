"""Benchmark for the sessionpi checker, oracle and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop with one client.  Passes over the
workload's fixed item list run for ``--seconds``, and at least MIN_PASSES
of them.  Set-up (import the package, generate and parse the workload's
inputs from the seed) runs once before the passes and again between them,
within the same time.  Times are scaled to a host of steady speed
(``hostspeed``) and reported as medians over their repetitions.  Every
verdict is checked against a known answer that does not come from the
checker under test.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, measured after untraced passes of the same run so that the
tracing overhead can be reported.  Lines before it describe the run: the
verdict digest, the tail percentile used and its sample count, and any
failed items.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = (3, 40)  # at least, at most
SETUP_SHARE = 0.2  # of the measuring window that repeated set-ups may take, beyond the minimum
MIN_PASSES = 3
TAIL_LADDER = (50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def import_library():
    """Import ``sessionpi`` afresh from the sources next to this benchmark."""
    for name in [n for n in sys.modules if n == "sessionpi" or n.startswith("sessionpi.")]:
        del sys.modules[name]
    sp = importlib.import_module("sessionpi")
    importlib.import_module("sessionpi.gen")
    importlib.import_module("sessionpi.cli")
    return sp


def rank(samples: int, q: float) -> int:
    """Nearest rank of percentile ``q``; rounding drops the binary error of
    ``q``, so that p99.95 of 20,000 samples is rank 19,990, not 19,991."""
    return max(1, math.ceil(round(samples * q / 100, 9)))


def tail_level(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    fitting = [q for q in TAIL_LADDER if samples - rank(samples, q) >= 10]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[rank(len(sorted_values), q) - 1]


def set_up(workload, seed: int):
    """Import the library afresh, then generate and parse the workload's
    inputs.  Returns the package, the inputs and the seconds it took,
    unscaled and scaled to the nominal host by calibrations on either side."""
    gc.collect()
    before = hostspeed.calibrate()
    began = time.perf_counter()
    sp = import_library()
    inputs = workload.build(sp, seed, ROOT)
    took = time.perf_counter() - began
    return sp, inputs, (took, hostspeed.scale(took, before, hostspeed.calibrate()))


def run_passes(workload, state: dict, seconds: float, min_passes: int, before_pass=None):
    """Run at least ``min_passes`` passes over ``state["inputs"]``, and more
    while another one is expected to end within ``seconds``.

    ``before_pass(passes done, seconds elapsed)`` runs before each pass,
    inside the time window.  Returns each pass's summary.
    """
    summaries, steps = [], []
    start = time.perf_counter()
    while len(summaries) < min_passes or time.perf_counter() - start + statistics.median(steps) <= seconds:
        step_began = time.perf_counter()
        if before_pass is not None:
            before_pass(len(summaries), time.perf_counter() - start)
        record = workloads.Pass(workload.over_limit)
        workload.run(state["sp"], state["inputs"], record)
        record.end_stretch()
        steps.append(time.perf_counter() - step_began)
        summaries.append(record)
    return summaries


def describe(name: str, seed: int, summaries: list) -> bool:
    """Print what the passes did; return whether every verdict was right
    and every pass gave the same verdicts."""
    first = summaries[0]
    digests = {s.digest for s in summaries}
    print(f"# workload {name} seed {seed}: {len(summaries)} passes of {first.items} items")
    print(f"# verdict digest {first.digest}" + ("" if len(digests) == 1 else f" (NOT STABLE: {len(digests)} digests)"))
    print(f"# accepted {first.accepted} of {first.items} items per pass")
    print(f"# fail_share {sum(s.failed for s in summaries) / sum(s.items for s in summaries):.6f}"
          f" ({first.failed} failed per pass, of which {len(first.over_limit_failed)} over-limit)")
    for ident, record in first.over_limit_failed:
        print(f"#   over-limit input failed (known depth defect): {ident}: {record}")
    for ident, record in first.wrong[:20]:
        print(f"#   WRONG: {ident}: {record}")
    return len(digests) == 1 and not any(s.wrong for s in summaries)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(summaries: list, setups: list, peak_rss_mb: float) -> dict:
    """End-to-end metrics of the untraced passes.

    Times are scaled to the nominal host (``hostspeed``) and are medians
    over their repetitions: ``wall_s`` the median pass, ``setup_s`` the
    median set-up.  ``verdict_p50_ms`` is the median of every verdict timed
    in the run.  ``verdict_tail_ms`` ranks each item's median over the
    passes, so that its sample count, and with it the percentile, is the
    item count whatever the number of passes.
    """
    walls = [s.scaled_wall for s in summaries]
    typical = sorted(statistics.median(times) for times in zip(*(s.scaled for s in summaries)))
    verdicts = [t for s in summaries for t in s.scaled]
    items = sum(s.items for s in summaries)
    queries = sum(s.queries for s in summaries)
    level = tail_level(len(typical))
    tail = percentile(typical, level)
    beyond = sum(1 for t in typical if t > tail)
    references = [r for s in summaries for r in s.references]
    print(f"# set-up {len(setups)} times, {len(summaries)} passes; unscaled medians:"
          f" set-up {statistics.median(t for t, _ in setups):.4f} s,"
          f" pass {statistics.median(s.wall for s in summaries):.4f} s")
    print(f"# host reference: median {statistics.median(references) * 1000:.3f} ms"
          f" of {len(references)} calibrations, nominal {hostspeed.NOMINAL_S * 1000:g} ms")
    print(f"# verdict_p50_ms is the median of {len(verdicts)} verdicts;"
          f" verdict_tail_ms is p{level:g} of {len(typical)} items ({beyond} beyond it)")
    return {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdicts_per_s": (len(typical) / statistics.median(walls), "1/s"),
        "verdict_p50_ms": (statistics.median(verdicts) * 1000, "ms"),
        "verdict_tail_ms": (tail * 1000, "ms"),
        "pass_share": (1 - sum(s.failed for s in summaries) / items, "share"),
        "decided_share": (sum(s.decided for s in summaries) / queries if queries else 1.0, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sessionpi" / "__init__.py").is_file():
        print(f"run.py: no sessionpi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    sp, inputs, first_setup = set_up(workload, args.seed)
    if not Path(sp.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported sessionpi from {sp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    state = {"sp": sp, "inputs": inputs}
    del sp, inputs
    # The inputs live for the whole run: keep the collector from rescanning
    # them, so collections cost what the library's own garbage costs.
    gc.collect()
    gc.freeze()

    if not args.trace:
        setups = [first_setup]
        peak_rss = []

        def repeat_set_up(passes: int, elapsed: float):
            """Set up again between passes while set-up has had less than
            SETUP_SHARE of the time so far, so that its repetitions are
            spread over the run like the passes.  The new package and
            inputs, equal to the old ones, replace them.

            The first pass runs on the first set-up alone, and peak memory
            is read after it: each repeated set-up leaves some of the old
            package alive, with its filled caches, so memory read later
            would grow with the number of repetitions."""
            if passes == 0:
                return
            if passes == 1:
                peak_rss.append(max_rss_mb())
            while len(setups) < SETUP_REPEATS[1] and (
                len(setups) < SETUP_REPEATS[0] or sum(t for t, _ in setups[1:]) < SETUP_SHARE * elapsed
            ):
                state.clear()  # the old package and inputs go first, as in the first set-up
                gc.unfreeze()
                state["sp"], state["inputs"], took = set_up(workload, args.seed)
                setups.append(took)
                gc.collect()
                gc.freeze()

        summaries = run_passes(workload, state, args.seconds, MIN_PASSES, repeat_set_up)
        correct = describe(args.workload, args.seed, summaries)
        metrics = end_to_end(summaries, setups, peak_rss[0])
    else:
        summaries = run_passes(workload, state, args.seconds / 2, 1)
        plain_walls = [s.scaled_wall for s in summaries]
        tracer = tracing.Tracer()
        tracer.install(state["sp"])
        per_pass = []

        def next_pass(passes: int, elapsed: float):
            if tracer.calls:
                per_pass.append(tracer.layer_metrics())
            tracer.reset()

        try:
            traced = run_passes(workload, state, args.seconds / 2, 1, next_pass)
            per_pass.append(tracer.layer_metrics())
        finally:
            tracer.uninstall()
        summaries += traced
        traced_walls = [s.scaled_wall for s in traced]
        correct = describe(args.workload, args.seed, summaries)
        metrics = {
            name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"# traced pass {statistics.median(traced_walls):.4f} s, untraced {statistics.median(plain_walls):.4f} s")

    result = {
        "correct": correct,
        "attempted": sum(s.items for s in summaries),
        "failed": sum(s.failed for s in summaries),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
