"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the tailshape package at the module
attribute where their callers look them up (``tailshape.pot.estimate_gpd_mle``
is the attribute ``pot_estimate`` calls) and records one span per call: name,
start, end and the index of the enclosing span.  Nothing inside the package is
edited; the originals are put back after each traced pass.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# layer (module of the package) -> the functions whose calls are spans of it;
# emit_csv is the benchmark's own emit_table(...).to_csv() step
LAYERS = {
    "distributions": (
        "RngStream",
        "sample_gpd",
        "sample_student_t",
        "sample_symmetric_stable",
    ),
    "estimators": (
        "estimate_zhang_stephens",
        "estimate_pwm",
        "estimate_gpd_mle",
        "estimate_hill",
        "estimate_pareto_ml",
    ),
    "transform": ("iterate_transform", "transformed_shape_estimate"),
    "pot": ("pot_estimate", "select_threshold", "excesses"),
    "montecarlo": ("run_experiment", "emit_csv"),
    "cli": ("main", "read_data_file"),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}


def _observations(name: str, result) -> dict[str, float]:
    """Counts read from a traced call's FitResult diagnostics."""
    if name == "estimate_gpd_mle":
        return {
            "gpd_mle_iterations": result.diagnostics["optimizer_iterations"],
            "gpd_mle_converged": result.diagnostics["converged"],
        }
    if name == "transformed_shape_estimate":
        return {"clamp_count": result.diagnostics["clamp_count"]}
    return {}


class Tracer:
    """Wraps the functions named in LAYERS and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.observed: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, observed = self.spans, self._stack, self.observed

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for key, value in _observations(name, result).items():
                observed[key].append(value)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap every LAYERS function found in ``modules`` for the ``with`` body."""
        saved = []
        for module in modules:
            for name in LAYER_OF:
                if name in vars(module):
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
        try:
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def summary(self, wall_s: float) -> dict:
        """Calls, inclusive and self seconds per function, and observations.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - covered[i]
        return {
            "wall_s": wall_s,
            "calls": calls,
            "total_s": total_s,
            "self_s": self_s,
            "observed": {k: (sum(v), len(v)) for k, v in self.observed.items()},
        }
