"""Spans around the calls into each layer of ``projlind``, from outside.

The package imports functions by name (``analysis`` and ``cli`` import from
``propagators``, which imports from ``model`` and ``linalg``), so wrapping
the defining module alone would miss most calls. :meth:`Tracer.install`
therefore replaces every binding of the original function object in every
loaded ``projlind`` module, and :meth:`Tracer.uninstall` puts them back.

Spans (name, start, end, parent) are kept in memory. A span's self time is
its duration minus the durations of its direct children; calls nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

# (layer name, defining module, functions reported together).
TARGETS = (
    ("cli.main", "projlind.cli", ("main",)),
    ("config.load_config", "projlind.config", ("load_config",)),
    ("model.validate_family", "projlind.model", ("validate_family",)),
    ("model.superop_build", "projlind.model", ("hamiltonian_superop", "dissipator_superop")),
    ("linalg.matexp", "projlind.linalg", ("matexp",)),
    ("propagators.exact_propagate", "projlind.propagators", ("exact_propagate",)),
    ("propagators.approx_propagate_closed", "projlind.propagators", ("approx_propagate_closed",)),
    ("propagators.bch_error_indicator", "projlind.propagators", ("bch_error_indicator",)),
    ("analysis.sweep", "projlind.analysis", ("sweep",)),
    ("analysis.trace_distance", "projlind.analysis", ("trace_distance",)),
)

# Computed work per call: N^3 for the side N of the matrix passed in.
WORK = {"linalg.matexp": lambda args: np.shape(args[0])[0] ** 3}


class Tracer:
    """Create after projlind is imported; install() and uninstall() may
    alternate any number of times, and spans accumulate across them."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.work = {}
        self.absent = []      # "module.function" names that no longer exist
        self.present = []     # layer names with at least one function wrapped
        self._stack = []
        self._patches = []    # (module, attribute, original)
        self._wrappers = {}   # id(original) -> (original, wrapper)
        for name, module_name, functions in TARGETS:
            home = sys.modules.get(module_name)
            for fname in functions:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{fname}")
                    continue
                self._wrappers[id(original)] = (original, self._wrap(name, original))
                if name not in self.present:
                    self.present.append(name)

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def install(self) -> None:
        for key, module in sorted(sys.modules.items()):
            if module is None or not (key == "projlind" or key.startswith("projlind.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def span_cost(self, calls=20000) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op against a
        bare one, median of five batches."""
        def noop():
            return None
        wrapped = self._wrap("calibration", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(5):
            mark = len(self.spans)
            t0 = clock()
            for _ in range(calls):
                wrapped()
            t1 = clock()
            for _ in range(calls):
                noop()
            t2 = clock()
            del self.spans[mark:]
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
        return statistics.median(costs)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """Per present layer: calls, self seconds and, where defined, work."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.present}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered
        for name, total in self.work.items():
            out[name]["work_n3"] = total
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
