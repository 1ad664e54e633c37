"""Command-line interface.

Subcommands: ``check`` (run the type checker), ``oracle`` (compare the
checker against the split-based derivability search), ``reduce`` (print a
reduction trace), ``congruence`` (fuzz the checker with random one-step
congruence rewrites), ``table`` (recompute the context-algebra regression
table).  A subcommand's report is one JSON object: ``--json`` prints it as
is, and the default output prints it for people.

Exit codes: 0 accept/agree, 1 reject/diverge/mismatch, 2 usage, parse or
input error (a missing or unreadable file, a file that is not UTF-8, a
context error such as a void entry given to ``oracle``, or input too deep to
process), 3 inconclusive oracle verdict.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional

from .checker import CheckError, CheckResult, type_check
from .contexts import (
    Context,
    ContextAlgebraError,
    context_equal,
    context_file_text,
    pretty,
    to_decl_context,
)
from .declarative import Verdict, derivable
from .parser import ParseError, parse_context, parse_process
from .semantics import congruence_steps, reduce_trace_labeled
from .syntax import render
from .table import evaluate_table, expected_rows


def _report(command: str, started: float, **fields) -> dict:
    """The JSON object of a run: ``command``, the milliseconds since
    ``started``, then ``fields``; a command adds its other keys in order."""
    return {"command": command, "timing_ms": (time.perf_counter() - started) * 1000, **fields}


def _error_dict(err: CheckError) -> dict:
    return {"kind": err.kind.value, "location": err.location, "detail": err.detail}


def _trace_dicts(result: CheckResult) -> list[dict]:
    return [
        {
            "rule": step.rule,
            "input": str(step.input_ctx),
            "subject": step.subject,
            "output": str(step.output_ctx),
        }
        for step in result.trace
    ]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_problem(args) -> tuple[Context, "Process"]:
    process = parse_process(_read(args.process_file))
    ctx = parse_context(_read(args.ctx)) if args.ctx else Context()
    return ctx, process


def cmd_check(args) -> tuple[dict, int]:
    started = time.perf_counter()
    ctx, process = _load_problem(args)
    result = type_check(ctx, process, trace=args.trace, audit=args.audit)
    report = _report("check", started, accepted=result.accepted)
    if result.residual is not None:
        report["residual"] = context_file_text(result.residual)
    if result.error is not None:
        report["error"] = _error_dict(result.error)
    if args.trace:
        report["trace"] = _trace_dicts(result)
    if args.audit and result.audits is not None:
        report["audits"] = [{"site": a.site, "count": a.count} for a in result.audits]
    return report, 0 if result.accepted else 1


def cmd_oracle(args) -> tuple[dict, int]:
    started = time.perf_counter()
    ctx, process = _load_problem(args)
    decl = to_decl_context(ctx)  # rejects void entries
    result = type_check(ctx, process, trace=False)
    oracle = derivable(decl, process, bound=args.bound)
    report = _report("oracle", started, accepted=result.accepted)
    if result.error is not None:
        report["error"] = _error_dict(result.error)
    report["oracle_verdict"] = oracle.verdict.value
    if oracle.verdict is Verdict.INCONCLUSIVE:
        agreement, code = "inconclusive", 3
    elif result.accepted == bool(oracle):
        agreement, code = "agree", 0
    else:
        agreement, code = "disagree", 1
    report["agreement"] = agreement
    report["oracle_bound"] = args.bound
    return report, code


def cmd_reduce(args) -> tuple[dict, int]:
    started = time.perf_counter()
    process = parse_process(_read(args.process_file))
    steps = [{"step": 0, "rule": "-", "term": pretty(process)}]
    labeled = reduce_trace_labeled(process, args.steps)
    for number, (chan, reduct) in enumerate(labeled, start=1):
        steps.append({"step": number, "rule": f"R-Com on {chan}", "term": pretty(reduct)})
    return _report("reduce", started, steps=steps), 0


def cmd_congruence(args) -> tuple[dict, int]:
    started = time.perf_counter()
    ctx, process = _load_problem(args)
    rng = random.Random(args.seed)
    current = process
    baseline = type_check(ctx, current, trace=False)
    size_cap = 400
    runs = 0
    divergence = None
    for iteration in range(args.iterations):
        steps = congruence_steps(current)
        if len(render(current, limit=size_cap + 1)) > size_cap:
            trimmed = [
                s for s in steps if not (s.rule == "par-unit" and s.direction == "RL")
                and not (s.rule == "repl-unfold" and s.direction == "LR")
            ]
            steps = trimmed or steps
        if not steps:
            break
        step = rng.choice(steps)
        rewritten = step.result
        result = type_check(ctx, rewritten, trace=False)
        if result.accepted != baseline.accepted or (
            result.accepted and not context_equal(result.residual, baseline.residual)
        ):
            divergence = {
                "iteration": iteration,
                "rule": step.rule,
                "direction": step.direction,
                "path": list(step.path),
                "before": pretty(current),
                "after": pretty(rewritten),
                "baseline_accepted": baseline.accepted,
                "rewritten_accepted": result.accepted,
            }
            break
        current = rewritten
        runs = iteration + 1
    report = _report("congruence", started, accepted=divergence is None)
    if divergence is not None:
        report["divergence"] = divergence
    report["iterations_run"] = runs
    return report, 0 if divergence is None else 1


def cmd_table(args) -> tuple[dict, int]:
    started = time.perf_counter()
    outcomes = evaluate_table()
    rows = []
    for row, outcome in zip(expected_rows(), outcomes):
        rows.append(
            {
                "row": outcome.index,
                "g1": str(row.g1),
                "g2": str(row.g2),
                "g3": str(row.g3),
                "ok": outcome.ok,
                "mismatches": outcome.mismatches,
            }
        )
    matched = sum(1 for r in rows if r["ok"])
    report = _report("table", started, rows=rows, matched=f"{matched}/{len(rows)}")
    return report, 0 if matched == len(rows) else 1


def _print_human(report: dict):
    command, ms = report["command"], report["timing_ms"]
    error, divergence = report.get("error"), report.get("divergence")
    if command == "check":
        verdict = "accepted" if report["accepted"] else "rejected"
        print(f"check: {verdict} ({ms:.1f} ms)")
        if "residual" in report:
            print(f"residual context: {report['residual']}")
        if error is not None:
            print(f"error: {error['kind']} at {error['location']}: {error['detail']}")
        for step in report.get("trace", ()):
            print(f"  [{step['rule']}] {step['subject']}")
            print(f"      in:  {step['input']}")
            print(f"      out: {step['output']}")
        if "audits" in report:
            worst = max((a["count"] for a in report["audits"]), default=0)
            print(f"pattern audit: {len(report['audits'])} call sites, max matches {worst}")
    elif command == "oracle":
        print(
            f"oracle: checker={'accept' if report['accepted'] else 'reject'} "
            f"oracle={report['oracle_verdict']} -> {report['agreement']} ({ms:.1f} ms)"
        )
        if error is not None:
            print(f"checker error: {error['kind']}: {error['detail']}")
    elif command == "reduce":
        for step in report["steps"]:
            print(f"{step['step']:3d} {step['rule']:<16} {step['term']}")
    elif command == "congruence":
        if divergence is None:
            print(f"congruence: no divergence in {report['iterations_run']} rewrites ({ms:.1f} ms)")
        else:
            d = divergence
            print(f"congruence: DIVERGENCE at iteration {d['iteration']} "
                  f"({d['rule']} {d['direction']} at {d['path']})")
            print(f"  before: {d['before']}")
            print(f"  after:  {d['after']}")
    elif command == "table":
        for row in report["rows"]:
            mark = "ok" if row["ok"] else "MISMATCH"
            print(f"row {row['row']:2d}: {row['g1']} / {row['g2']} / {row['g3']} -> {mark}")
            for miss in row["mismatches"]:
                print(f"    {miss}")
        print(f"table: {report['matched']} rows match")


def build_parser() -> argparse.ArgumentParser:
    # The docstring without its reST markup.
    parser = argparse.ArgumentParser(prog="sessionpi", description=__doc__.replace("``", ""))
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type check a process against a context")
    check.add_argument("process_file")
    check.add_argument("--ctx", help="context file", default=None)
    check.add_argument("--trace", action="store_true", help="include the derivation trace")
    check.add_argument("--audit", action="store_true", help="include pattern-match counts")
    check.add_argument("--json", action="store_true")

    oracle = sub.add_parser("oracle", help="compare checker and derivability search")
    oracle.add_argument("process_file")
    oracle.add_argument("--ctx", default=None)
    oracle.add_argument("--bound", type=int, default=200_000, help="search node budget")
    oracle.add_argument("--json", action="store_true")

    reduce = sub.add_parser("reduce", help="print a reduction trace")
    reduce.add_argument("process_file")
    reduce.add_argument("--steps", type=int, default=10)
    reduce.add_argument("--json", action="store_true")

    cong = sub.add_parser("congruence", help="fuzz with random one-step rewrites")
    cong.add_argument("process_file")
    cong.add_argument("--ctx", default=None)
    cong.add_argument("--iterations", type=int, default=100)
    cong.add_argument("--seed", type=int, default=0)
    cong.add_argument("--json", action="store_true")

    table = sub.add_parser("table", help="recompute the context-algebra table")
    table.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "check": cmd_check,
    "oracle": cmd_oracle,
    "reduce": cmd_reduce,
    "congruence": cmd_congruence,
    "table": cmd_table,
}


# The least value of each numeric option.
_LEAST = {"bound": 1, "steps": 0, "iterations": 0}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for option, least in _LEAST.items():
        value = getattr(args, option, least)
        if value < least:
            print(f"usage error: --{option} must be at least {least}, not {value}", file=sys.stderr)
            return 2
    try:
        report, code = _HANDLERS[args.command](args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ContextAlgebraError as err:
        print(f"context error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"input is not UTF-8: {err}", file=sys.stderr)
        return 2
    except RecursionError as err:
        # Checking and the oracle recurse on prefix chains, reduction on soups too.
        print(f"input too deep: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        _print_human(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
