"""Span recording around the public functions of the clusterembed modules.

The tracer wraps functions from outside the package: it replaces every
module attribute that *is* one of the traced functions, because the
package imports its public functions by name into several modules
(``pairwise_distances`` lives in five namespaces, ``margin`` in three,
and ``nmi`` reaches ``same_partition`` through the ``metrics`` globals).
Patching only the defining module would miss most calls.

Each call records one span ``[name, start, end, parent, step]`` in an
in-memory list; ``parent`` is the index of the enclosing span (-1 for a
root) and ``step`` the training iteration, advanced whenever
``data.sample_batch`` starts. Spans are written out after each traced
session, never while one is timed.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (defining module, function) pairs whose spans the benchmark records.
TRACED = (
    ("metrics", "margin"),
    ("metrics", "nmi"),
    ("metrics", "same_partition"),
    ("metrics", "recall_at_k"),
    ("inference", "greedy_inference"),
    ("inference", "pam_refine"),
    ("facility", "assign"),
    ("facility", "oracle_score"),
    ("embedding_ops", "pairwise_distances"),
    ("cluster_loss", "clustering_loss"),
    ("baselines", "triplet_semihard_loss"),
    ("baselines", "lifted_struct_loss"),
    ("baselines", "npairs_loss"),
    ("mlp", "forward"),
    ("mlp", "backward"),
    ("optim", "rmsprop_step"),
    ("data", "sample_batch"),
    ("data", "load_csv"),
    ("train", "evaluate_model"),
    ("train", "train"),
)

PACKAGE = "clusterembed"


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def attribute_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded package module."""
    return {
        (mod.__name__, attr): id(value)
        for mod in package_modules()
        for attr, value in vars(mod).items()
    }


class Patch:
    """Replaces every package-module attribute that is ``original`` by
    ``replacement`` while the ``with`` block runs, then puts them back."""

    def __init__(self, replacements: dict) -> None:
        self.replacements = replacements  # original function -> replacement
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        # by identity: module attributes need not be hashable, and the
        # originals stay alive in self.replacements, so ids are unique
        by_id = {id(fn): new for fn, new in self.replacements.items()}
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, by_id[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self.saved):
            setattr(mod, attr, value)
        self.saved.clear()


def originals() -> dict[str, object]:
    """``"module.function"`` -> the unwrapped function, for every traced name."""
    out = {}
    for module, func in TRACED:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        out[f"{module}.{func}"] = getattr(mod, func)
    return out


class Tracer:
    """In-memory span recorder plus the per-layer counters that need a
    function's arguments or result rather than its timing."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.step = -1
        self.sweeps = 0
        self.refine_improved = 0
        self.hinge_active = 0
        self.temp_mb = 0.0
        self._greedy_objective = None

    def patch(self) -> Patch:
        return Patch({fn: self._wrap(name, fn) for name, fn in originals().items()})

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        observe = getattr(self, "_observe_" + name.split(".")[1], None)
        new_step = name == "data.sample_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_step:
                self.step += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_pairwise_distances(self, args, result) -> None:
        batch = args[0]
        # the m x m x d difference tensor the function materializes
        self.temp_mb = max(self.temp_mb, batch.m * batch.m * batch.dim * 8 / 1e6)

    def _observe_greedy_inference(self, args, result) -> None:
        self._greedy_objective = result.objective

    def _observe_pam_refine(self, args, result) -> None:
        self.sweeps += len(result.trace)
        if self._greedy_objective is not None and result.objective > self._greedy_objective:
            self.refine_improved += 1

    def _observe_clustering_loss(self, args, result) -> None:
        self.hinge_active += result.hinge_arg > 0.0

    def self_times(self) -> dict[str, float]:
        """Per name: total span time minus the time of direct child spans."""
        if not self.spans:
            return {}
        names = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        totals: dict[str, float] = defaultdict(float)
        for name, value in zip(names, dur - covered):
            totals[name] += float(value)
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def root_time(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[3] == -1)

    def write(self, path, session: int, append: bool) -> None:
        with gzip.open(path, "at" if append else "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            if not append:
                out.writerow(("session", "index", "name", "start", "end", "parent", "step"))
            for index, (name, start, end, parent, step) in enumerate(self.spans):
                out.writerow((session, index, name, repr(start), repr(end), parent, step))
