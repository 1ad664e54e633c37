"""Host speed, measured by a fixed reference loop.

The benchmark runs on a shared host whose speed drifts: the same code can
run 1.5 times slower for tens of seconds at a time, and no statistic over a
single run removes a slow spell that covers it.  The benchmark therefore
times a fixed reference loop, pure Python in this file and independent of
the library, in between the timed work, and scales each timed stretch by
``NOMINAL_S / reference time`` measured next to it.  Timings then read as
seconds on a host whose speed is steady: the host on which the reference
takes ``NOMINAL_S``, about the fastest it takes on a quiet 2-CPU container
with Python 3.11.

The reference does the kinds of work the library does: calls, recursion
over small trees of tuples, hashing them into dicts and sets, and building
strings.  It allocates only short-lived objects.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.0015  # the reference's time on the nominal host
REPEATS = 3  # a calibration is the fastest of this many runs of the reference


def _tree(depth: int, label: int):
    if depth == 0:
        return ("leaf", label)
    return ("node", label, _tree(depth - 1, 2 * label), _tree(depth - 1, 2 * label + 1))


def _walk(tree, seen: set, names: dict) -> int:
    if tree[0] == "leaf":
        names[f"v{tree[1]}"] = tree
        return 1
    seen.add(tree)
    return 1 + _walk(tree[2], seen, names) + _walk(tree[3], seen, names)


def reference() -> int:
    """The fixed unit of work; its result depends on nothing outside it."""
    total = 0
    for round_ in range(12):
        seen: set = set()
        names: dict = {}
        total += _walk(_tree(7, round_), seen, names)
        total += len(" | ".join(f"{k}:{v[1]}" for k, v in names.items()))
        total += sum(1 for t in seen if t[1] & 1)
    return total


def calibrate() -> float:
    """Seconds the reference takes now: the fastest of ``REPEATS`` runs, so
    that a brief interruption does not count as a slow host.  The garbage
    collector is off meanwhile: the reference frees all it allocates by
    reference counting, and a collection would time the library's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            began = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - began)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds: float, *references: float) -> float:
    """``seconds`` timed next to the given reference times, expressed as
    seconds on the nominal host."""
    return seconds * NOMINAL_S / (sum(references) / len(references))
