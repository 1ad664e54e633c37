"""The benchmark in ``perfbench/`` reaches the library only through
``sp.<name>[.<name>...]`` chains on the imported package.  Each chain must
resolve, so that removing a name the benchmark needs fails here."""

import re
from pathlib import Path

import sessionpi
import sessionpi.cli  # noqa: F401  (the benchmark imports both submodules)
import sessionpi.gen  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHAIN = re.compile(r"\bsp((?:\.[A-Za-z_]\w*)+)")


def benchmark_chains() -> set[str]:
    return {
        match.group(1)[1:]
        for path in sorted(PERFBENCH.glob("*.py"))
        for match in CHAIN.finditer(path.read_text(encoding="utf-8"))
    }


def test_benchmark_chains_resolve_on_the_package():
    chains = benchmark_chains()
    assert {"DeclContext", "to_decl_context", "entry_of_type", "pretty"} <= chains
    missing = []
    for chain in sorted(chains):
        value = sessionpi
        for part in chain.split("."):
            if not hasattr(value, part):
                missing.append(chain)
                break
            value = getattr(value, part)
    assert not missing, missing
