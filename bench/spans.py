"""Per-layer spans, recorded from outside the package.

While installed, a Tracer replaces selected public functions of the
package's modules with timing wrappers.  A function is replaced in every
module namespace that binds it (delta_matrix is bound in cli and phm as
well as pmc, stream in four modules), so calls made through any binding
are seen.  Spans are aggregated in memory per name: calls, total time and
self time, which is the span's duration minus the part of it that child
spans cover.  Spans opened on worker threads take the innermost open span
of the main thread, which is waiting on them, as their parent.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "distinguish"
SPANS = (
    "cli.main",
    "preprocess.load_csv",
    "rng.stream",
    "models.mixture",
    "models.MixtureModel.log_component_densities",
    "pmc.sample_mixture",
    "pmc.cluster_posterior_matrix",
    "pmc.pmc_from_sample",
    "pmc.pmc_mc",
    "pmc.delta_matrix",
    "pmc.pmc_quadrature",
    "phm.phm_run",
    "phm.build_dendrogram",
    "estimators.select_gmm_bic",
    "estimators.fit_gmm_em",
    "estimators.fit_kmeans",
    "estimators.fit_hclust",
    "estimators.cut_tree",
    "estimators.partition_to_gaussians",
    "hyptest.pmc_statistic",
    "hyptest.null_distribution",
    "hyptest.pvalue_bootstrap",
    "selection.selection_table",
    "selection.gap_statistic",
    "selection.silhouette",
    "selection.lange_stability",
    "selection.prediction_strength",
)

# Work done per call, read from the call's result.
WORK = {
    "models.MixtureModel.log_component_densities": ("evals",
                                                    lambda out: out.size),
    "pmc.sample_mixture": ("rows", lambda out: len(out[0])),
    "phm.phm_run": ("merges", lambda out: len(out[0].steps)),
    "estimators.fit_gmm_em": ("iterations", lambda out: out.iterations),
    "estimators.fit_kmeans": ("restarts", lambda out: out.restarts_used),
}

# Spans that run a worker pool: their process CPU time over wall time shows
# how many workers were busy.
CPU_SPANS = ("hyptest.null_distribution", "hyptest.pvalue_bootstrap",
             "selection.gap_statistic")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    work: int = 0


@dataclass
class _Frame:
    start: float
    cpu_start: float
    children: list = field(default_factory=list)


def _covered(children: list, start: float, end: float) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Timing wrappers around SPANS, installed and removed as a context
    manager."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[_Frame]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        work = WORK.get(name)
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1]
                if stack is not self._main_stack and self._main_stack
                else None)
            frame = _Frame(time.perf_counter(),
                           time.process_time() if cpu else 0.0)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                own = duration - _covered(frame.children, frame.start, end)
                with self._lock:
                    stats.calls += 1
                    stats.total_s += duration
                    stats.self_s += own
                    if cpu:
                        stats.cpu_s += time.process_time() - frame.cpu_start
                if parent is not None:
                    parent.children.append((frame.start, end))
            if work is not None:
                with self._lock:
                    stats.work += work[1](out)
            return out
        return traced

    # ---------------------------------------------------------- installing

    def _modules(self) -> list:
        return [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        for name in SPANS:
            modname, *path = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- results

    def mean_total_s(self, name: str) -> float:
        s = self.stats[name]
        return s.total_s / s.calls if s.calls else 0.0

    def per_op(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics normalised per op: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = (s.calls / ops, "count")
            out[f"{name}.self_s"] = (s.self_s / ops, "s")
            if name in WORK:
                out[f"{name}.{WORK[name][0]}"] = (s.work / ops, "count")
            if name in CPU_SPANS:
                out[f"{name}.cpu_per_wall"] = (
                    s.cpu_s / s.total_s if s.total_s else 0.0, "ratio")
        return out
