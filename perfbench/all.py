"""Run every workload in turn and print its metrics by name and unit.

Usage, from the repository root:

    python3 perfbench/all.py --seed N --seconds S [--trace 0|1]

Each workload runs in its own process, as ``run.py`` is run by itself, so
set-up time and peak memory stay per workload.  Exits non-zero when a run
fails or reports an incorrect verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run = subprocess.run(command, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{name}: exit code {run.returncode}\n{run.stderr}", file=sys.stderr)
            status = 1
            continue
        *notes, last = run.stdout.splitlines()
        result = json.loads(last)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for line in notes:
            print(f"  {line}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
