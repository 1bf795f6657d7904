"""Layer spans recorded from outside the program.

Each traced function is replaced, in every ``nerongraph`` module that
binds it, by a wrapper that records a span: name, parent span, start and
end.  ``invariants`` imports ``thickness_subdivision`` by name, for
example, so patching ``graph`` alone would miss its calls.  A generator
function gets one span per ``next()``.  Spans stay in memory until the
pass ends; a layer's self time is its spans' total minus the part of it
that child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# The public functions whose spans the benchmark records, by module.
LAYERS = {
    "cli": ("cmd_analyze", "parse_input_document", "report_document"),
    "graph": ("thickness_subdivision", "fundamental_cycle_basis",
              "is_nonseparating", "enumerate_circuits"),
    "homology": ("intersection_matrix", "smith_normal_form", "solve_mod",
                 "kernel_generators_mod"),
    "component_group": ("phi_group", "phi_r_torsion", "homological_criterion",
                        "is_full_r_torsion"),
    "invariants": ("circuit_invariant_c", "thickness_invariant_t",
                   "torsor_neron_finite", "analyze"),
    "enumeration": ("connected_multigraphs",),
}


class Tracer:
    """Installs the span-recording wrappers and undoes them."""

    def __init__(self) -> None:
        self.names: list[str] = []      # span name id -> "module.function"
        self.spans: list[tuple[int, int, float, float]] = []  # (name, parent, start, end)
        self.results: dict[str, list] = defaultdict(list)  # for the layer counters
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def install(self, observe: frozenset[str] = frozenset()) -> None:
        """Wrap every function in LAYERS that exists; a name that no
        longer exists is reported in ``missing`` and otherwise skipped.
        Results of the functions named in ``observe`` are kept."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nerongraph" or n.startswith("nerongraph."))]
        for module, functions in LAYERS.items():
            home = sys.modules.get(f"nerongraph.{module}")
            for function in functions:
                name = f"{module}.{function}"
                original = getattr(home, function, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, name in observe)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn, observe: bool):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        kept = self.results[name] if observe else None
        clock = time.perf_counter

        def timed(call):
            parent = stack[-1]
            stack.append(len(spans))
            spans.append(None)
            start = clock()
            try:
                return call()
            finally:
                end = clock()
                index = stack.pop()
                spans[index] = (name_id, parent, start, end)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(gen.__next__)
                    except StopIteration:
                        return
                    if kept is not None:
                        kept.append(item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                result = timed(lambda: fn(*args, **kwargs))
                if kept is not None:
                    kept.append((args, result))
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: number of spans and self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names
        }
        for (name_id, _, start, end), inner in zip(self.spans, child):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, (name_id, parent, start, end) in enumerate(self.spans):
                handle.write(f"{i}\t{parent}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\n")
