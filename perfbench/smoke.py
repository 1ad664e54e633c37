"""Smoke test of the benchmark: ``python3 perfbench/smoke.py`` from the repository root.

Checks that the tracer reproduces the exact oracle node counts of the
baseline (106 nodes for ``poll_system(4)``, 522 for ``poll_system(6)``) and
that a traced pass of each workload gives the same verdicts as an untraced
one.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import random
import sys

import run
import tracing
import workloads

BASELINE_NODES = {4: 106, 6: 522}
SMOKE_SEED = 1


def oracle_nodes(sp, tracer: tracing.Tracer, n: int) -> int:
    ctx, p = sp.gen.poll_system(n)
    tracer.reset()
    result = sp.type_check(ctx, p, trace=False)
    sp.derivable(sp.to_decl_context(ctx), result.process)
    return tracer.layer_metrics()["declarative.nodes"][0]


def smaller(name: str, inputs):
    """A subset of a workload's items that still has every kind of item."""
    if name == "differential_sweep":
        return random.Random(SMOKE_SEED).sample(inputs, len(inputs) // 10)
    if name == "oracle_search":
        return [u for u in inputs if not (u[0] == "poll" and u[1].split(":")[1] in ("5", "6"))]
    return [u for u in inputs if u[0] == "cli" or u[1].startswith("over:") or int(u[1].split(":")[-1]) <= 60]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    sp = run.import_library()
    problems = []
    tracer = tracing.Tracer()
    tracer.install(sp)
    try:
        for n, expected in BASELINE_NODES.items():
            got = oracle_nodes(sp, tracer, n)
            print(f"poll_system({n}): {got} oracle nodes (baseline {expected})")
            if got != expected:
                problems.append(f"poll_system({n}) took {got} nodes, baseline {expected}")
    finally:
        tracer.uninstall()

    for name, workload in workloads.WORKLOADS.items():
        inputs = smaller(name, workload.build(sp, SMOKE_SEED, run.ROOT))
        plain = workloads.Pass(workload.over_limit)
        workload.run(sp, inputs, plain)
        tracer = tracing.Tracer()
        tracer.install(sp)
        try:
            traced = workloads.Pass(workload.over_limit)
            workload.run(sp, inputs, traced)
        finally:
            tracer.uninstall()
        print(f"{name}: {plain.items} items, {plain.failed} failed, digest {plain.digest[:16]}")
        if plain.wrong or traced.wrong:
            problems.append(f"{name}: wrong verdicts {(plain.wrong or traced.wrong)[:3]}")
        if plain.digest != traced.digest:
            problems.append(f"{name}: traced verdicts differ from untraced ones")
        if tracer.calls.get("checker.type_check", 0) == 0:
            problems.append(f"{name}: the tracer saw no checker calls")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
