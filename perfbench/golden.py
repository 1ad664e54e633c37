"""Record the checker's verdict on every criterion-4 pair.

Usage, from the repository root:

    python3 perfbench/golden.py

Checks all 72,790 size-<=5 processes against each of the 11 criterion-4
contexts, as ``differential_sweep`` does, and writes one code per pair to
``perfbench/c4_verdicts.json.xz``: ``A`` for accepted, otherwise the
digit of the error kind in the file's ``kinds`` table.  The file was
written on the seed commit.  ``differential_sweep`` compares every sampled
pair with it, so a checker change that rejects what the seed accepted, or
rejects it for another reason, counts as a wrong verdict.  Regenerate it
only when a verdict change is intended.
"""

from __future__ import annotations

import json
import lzma
import sys
from pathlib import Path

import corpus

FILE = Path(__file__).resolve().parent / "c4_verdicts.json.xz"


def verdict_code(result, kinds: dict) -> str:
    """``kinds`` maps an error kind's value to its digit."""
    return "A" if result.accepted else kinds[result.error.kind.value]


def load() -> dict:
    """The recorded codes, indexed by ``process * contexts + context``."""
    return json.loads(lzma.decompress(FILE.read_bytes()))


def main() -> int:
    import run  # run imports this module through workloads

    sys.path.insert(0, str(run.SRC))
    sp = run.import_library()
    u6 = corpus.universe(sp)
    contexts = corpus.differential_contexts(sp, u6)
    kinds = {kind.value: str(digit) for digit, kind in enumerate(sp.ErrorKind)}
    codes = []
    procs = 0
    for p in corpus.exhaustive_procs(sp, u6, 5, ("x", "y")):
        procs += 1
        for ctx in contexts:
            codes.append(verdict_code(sp.type_check(ctx, p, trace=False, runtime_audits=True), kinds))
    record = {"procs": procs, "contexts": len(contexts), "kinds": kinds, "codes": "".join(codes)}
    FILE.write_bytes(lzma.compress(json.dumps(record).encode("utf-8")))
    counts = {code: codes.count(code) for code in sorted(set(codes))}
    print(f"{procs} processes x {len(contexts)} contexts: {counts}; wrote {FILE.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
