"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever a ``sessionpi`` module namespace holds the
original, so calls between modules and recursive calls inside one module
both pass through it.  Each wrapper opens a span (name, start, parent) and
closes it with its end time.  A closed span is folded at once into per-name
totals: its duration minus the time covered by its child spans is added to
its name's self time.  Folding instead of keeping every span bounds memory;
a differential pass closes millions of spans.

Generator functions get one span per resumption, and their yields are
counted.  Groups of names (a layer, or a named part of one) count their
outermost calls, those with no ancestor span in the same group.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("parser", "syntax", "contexts", "equality", "checker", "declarative", "semantics", "cli")

# Named parts of layers: group name -> function names in that layer's module.
PARTS = {
    "syntax.rename": ("syntax", {"barendregt_rename"}),
    "contexts.safety": ("contexts", {"is_safe_context", "is_safe_entry", "is_safe_type"}),
    "contexts.audit": ("contexts", {"closure", "used_map"}),
    "declarative.derivable": ("declarative", {"derivable"}),
    "semantics.reduce": ("semantics", {"reduce_step", "reduce_step_labeled"}),
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, start, child time, outermost groups]
        self._patches: list[tuple[dict, str, object]] = []
        self.reset()

    def reset(self):
        """Forget all totals; the next pass starts from zero."""
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.yields: dict[str, int] = {}
        self.outer_calls: dict[str, int] = {}
        self.outer_s: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.counts: dict[str, float] = {
            "parser.bytes": 0,
            "checker.accepted": 0,
            "checker.trace_steps": 0,
            "declarative.nodes": 0,
            "declarative.derivable": 0,
            "semantics.reducts": 0,
        }

    # -- installation -------------------------------------------------------

    def install(self, sp):
        """Wrap the layer modules of the imported package ``sp``."""
        modules = [m for name, m in sys.modules.items() if name == "sessionpi" or name.startswith("sessionpi.")]
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = getattr(sp, layer)
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                groups = [layer] + [g for g, (lay, names) in PARTS.items() if lay == layer and name in names]
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", groups, fn))
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(namespace, key, wrappers[id(value)][1])
                elif isinstance(value, dict) and not key.startswith("__"):
                    # Dispatch tables such as the CLI's handler map.
                    for k, v in list(value.items()):
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            self._patch(value, k, wrappers[id(v)][1])

    def _patch(self, namespace: dict, key, wrapper):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, groups: list) -> list:
        outer = []
        active = self.active
        for g in groups:
            if not active.get(g):
                outer.append(g)
                self.outer_calls[g] = self.outer_calls.get(g, 0) + 1
            active[g] = active.get(g, 0) + 1
        span = [name, time.perf_counter(), 0.0, outer]
        self._stack.append(span)
        return span

    def _exit(self, span: list, groups: list):
        duration = time.perf_counter() - span[1]
        self._stack.pop()
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - span[2]
        if self._stack:
            self._stack[-1][2] += duration
        active = self.active
        for g in groups:
            active[g] -= 1
        for g in span[3]:
            self.outer_s[g] = self.outer_s.get(g, 0.0) + duration

    def _wrap(self, name: str, groups: list, fn):
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        span = self._enter(name, groups)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(span, groups)
                        self.yields[name] = self.yields.get(name, 0) + 1
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            span = self._enter(name, groups)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, groups)
            if hook is not None:
                hook(self, span[3], args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures for everything recorded since ``reset``."""

        def group_self(layer: str, names=None) -> float:
            prefix = layer + "."
            return sum(
                s for n, s in self.self_s.items()
                if n.startswith(prefix) and (names is None or n[len(prefix):] in names)
            )

        parser_self = group_self("parser")
        type_checks = self.calls.get("checker.type_check", 0)
        derivables = self.calls.get("declarative.derivable", 0)
        oracle_s = self.outer_s.get("declarative.derivable", 0.0)
        c = self.counts
        return {
            "parser.calls": (self.outer_calls.get("parser", 0), "count"),
            "parser.self_s": (parser_self, "s"),
            "parser.bytes_per_s": (c["parser.bytes"] / parser_self if parser_self else 0.0, "B/s"),
            "syntax.rename.calls": (self.outer_calls.get("syntax.rename", 0), "count"),
            "syntax.rename.self_s": (group_self("syntax", PARTS["syntax.rename"][1]), "s"),
            "syntax.self_s": (group_self("syntax"), "s"),
            "contexts.safety.calls": (self.outer_calls.get("contexts.safety", 0), "count"),
            "contexts.safety.self_s": (group_self("contexts", PARTS["contexts.safety"][1]), "s"),
            "contexts.audit.self_s": (group_self("contexts", PARTS["contexts.audit"][1]), "s"),
            "contexts.self_s": (group_self("contexts"), "s"),
            "equality.unfold.calls": (self.calls.get("equality.unfold", 0), "count"),
            "equality.type_equal.calls": (self.calls.get("equality.type_equal", 0), "count"),
            "equality.self_s": (group_self("equality"), "s"),
            "checker.calls": (type_checks, "count"),
            "checker.self_s": (group_self("checker"), "s"),
            "checker.accept_ratio": (c["checker.accepted"] / type_checks if type_checks else 0.0, "ratio"),
            "checker.trace_steps": (c["checker.trace_steps"], "count"),
            "declarative.calls": (derivables, "count"),
            "declarative.self_s": (group_self("declarative"), "s"),
            "declarative.nodes": (c["declarative.nodes"], "count"),
            "declarative.splits": (self.yields.get("declarative.enumerate_splits", 0), "count"),
            "declarative.nodes_per_s": (c["declarative.nodes"] / oracle_s if oracle_s else 0.0, "1/s"),
            "declarative.derivable_ratio": (
                c["declarative.derivable"] / derivables if derivables else 0.0, "ratio"),
            "semantics.reduce.calls": (self.outer_calls.get("semantics.reduce", 0), "count"),
            "semantics.reduce.self_s": (group_self("semantics", PARTS["semantics.reduce"][1]), "s"),
            "semantics.reducts": (c["semantics.reducts"], "count"),
            "cli.calls": (self.outer_calls.get("cli", 0), "count"),
            "cli.self_s": (group_self("cli"), "s"),
        }


# Result hooks: (tracer, groups this call is outermost in, args, result).

def _parsed(tracer: Tracer, outer: list, args: tuple, result):
    if "parser" in outer and args and isinstance(args[0], str):
        tracer.counts["parser.bytes"] += len(args[0].encode("utf-8"))


def _checked(tracer: Tracer, outer: list, args: tuple, result):
    tracer.counts["checker.accepted"] += bool(result.accepted)
    tracer.counts["checker.trace_steps"] += len(result.trace)


def _searched(tracer: Tracer, outer: list, args: tuple, result):
    tracer.counts["declarative.nodes"] += result.spent
    tracer.counts["declarative.derivable"] += bool(result)


def _reduced(tracer: Tracer, outer: list, args: tuple, result):
    if "semantics.reduce" in outer:
        tracer.counts["semantics.reducts"] += len(result)


_HOOKS = {
    "parser.parse_process": _parsed,
    "parser.parse_type": _parsed,
    "parser.parse_entry": _parsed,
    "parser.parse_context": _parsed,
    "checker.type_check": _checked,
    "declarative.derivable": _searched,
    "semantics.reduce_step": _reduced,
    "semantics.reduce_step_labeled": _reduced,
}
