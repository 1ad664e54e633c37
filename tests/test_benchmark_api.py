"""The benchmark in ``perfbench/`` reaches the library only through
``sp.<name>[.<name>...]`` chains on the imported package.  Each chain must
resolve, so that removing a name the benchmark needs fails here."""

import importlib
import importlib.util
import inspect
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


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_the_tracer_reads_are_public_in_their_layer():
    # The tracer finds layer metrics by function name; a renamed, private or
    # moved function would turn its metric into 0 without an error.
    tracing = _perfbench("tracing")
    names = {"equality.unfold", "equality.type_equal", "equality.io_head", "contexts.is_un_entry"}
    names.add("declarative.enumerate_splits")
    names |= set(tracing._HOOKS)
    names |= {f"{layer}.{fn}" for layer, fns in tracing.PARTS.values() for fn in fns}
    for name in sorted(names):
        layer, fn = name.split(".")
        module = importlib.import_module(f"sessionpi.{layer}")
        value = getattr(module, fn, None)
        assert inspect.isfunction(value) and value.__module__ == module.__name__, name
        assert not fn.startswith("_"), name
    assert inspect.isgeneratorfunction(sessionpi.declarative.enumerate_splits)


def test_the_benchmark_reads_voids_in_entries_of_either_shape():
    # ``corpus.has_void`` reads a ``Single``'s ``item`` and any other
    # entry's ``left`` and ``right``; a change to what an entry is must
    # keep those reads right.
    has_void = _perfbench("corpus").has_void
    out = "lin !(un end).un end"
    for entry, void in (
        ("◦", True),
        (f"<◦, {out}>", True),
        (f"<{out}, ◦>", True),
        (f"<lin ?(un end).un end, {out}>", False),
    ):
        ctx = sessionpi.parse_context(f"x : {entry}\ny : {out}\n")
        assert has_void(sessionpi, ctx) is void, entry
