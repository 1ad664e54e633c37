"""The benchmark's verdicts stay those of its reference table.

One pass of seed 401 of each workload in ``perfbench/workloads.py`` must
give a pinned verdict digest and accepted count.  A change that alters any
verdict, residual, trace length or oracle node count in those passes fails
here, inside the test suite.

``differential_sweep`` is its row of the table in ``perfbench/NOTES.md``.
The ``oracle_search`` digest records the oracle's node counts, which
relevance-directed splits and the soup search lowered: the table's digest
is asserted with the binary search over exhaustive splits patched in, and
the default search's own digest is pinned next to it.  ``large_inputs``
differs from the table, which was made while its three over-limit items
failed: they are accepted now, with the trace on, and its digest and count
(82 accepted, 3 more than the table's 79) are those of that pass.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sessionpi
import sessionpi.cli  # noqa: F401  (the workloads reach both submodules)
import sessionpi.gen  # noqa: F401
from tests.helpers import use_exhaustive_splits

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Seed 401: digest prefix and accepted count.
EXPECTED = {
    "differential_sweep": ("2900e24711e8889f", 186),
    "oracle_search": ("2edd82fe97075d11", 16),
    "large_inputs": ("92a8f7e6701a1263", 82),
}

# The table's oracle_search row, reproduced by the exhaustive split search.
REFERENCE = {"oracle_search": ("8cbee30f68bc8714", 16)}


@pytest.fixture(scope="module")
def workloads():
    # The workloads import their sibling modules by bare name, and their
    # dataclasses need the module registered while it runs.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    yield module
    del sys.modules[spec.name]


def _seed_401_pass(workloads, name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(sessionpi, 401, ROOT)
    record = workloads.Pass(workload.over_limit)
    workload.run(sessionpi, inputs, record)
    assert record.wrong == [] and record.over_limit_failed == []
    return record.digest[:16], record.accepted


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_seed_401_verdict_digest_matches_the_table(workloads, name):
    assert _seed_401_pass(workloads, name) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_seed_401_digest_with_exhaustive_splits_matches_the_table(workloads, name, monkeypatch):
    use_exhaustive_splits(monkeypatch)
    assert _seed_401_pass(workloads, name) == REFERENCE[name]
