"""Span tracing around the calls into each distreg layer.

While a :class:`Tracer` is installed, the public functions of every layer
module are replaced by wrappers that record a span (name, start, end,
parent) in memory.  The replacement covers every distreg module that bound
the same function object with ``from .x import y``, so a call from
``experiments`` to its own imported ``predict_distribution`` is traced
like a call through ``regressor``.  Uninstalling restores the originals.

A span's self time is its duration minus the durations of its direct
children; summed by layer these add up, with the time spent outside any
layer, to the wall time of the traced round.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "experiments",
    "regressor",
    "weights",
    "measures",
    "ot",
    "functionals",
    "synth",
    "cli",
)

# layer -> public functions timed (plus the per-replication worker, whose
# call count is the number of replications)
FUNCTIONS = {
    "experiments": (
        "rate_study",
        "risk_estimate",
        "bound_vs_risk",
        "functional_study",
        "fit_loglog_slope",
        "_risk_replication",
        "_functional_replication",
    ),
    "regressor": ("fit", "predict_distribution", "predict_mean", "weights_at"),
    "weights": ("evaluate_weights", "kernel_weights", "knn_weights", "stone_diagnostics"),
    "measures": (
        "make_discrete",
        "dirac",
        "cdf_eval",
        "quantile_eval",
        "moment",
        "dispersion",
        "gaussian_law",
        "uniform_law",
    ),
    "ot": (
        "w1_cdf",
        "wp_quantile",
        "w1_vs_analytic",
        "wp_exact",
        "wp_bruteforce",
        "sliced_wp",
        "max_sliced_wp",
    ),
    "functionals": (
        "evaluate_functional",
        "conditional_functional",
        "quantile_functional",
        "tail_expectation",
        "pwm",
        "covariance_functional",
    ),
    "synth": ("make_preset", "certify_class"),
    "cli": ("main", "read_distribution", "read_dataset", "read_queries", "write_distribution"),
}

SYNTH_CLASSES = (
    "BinaryModel",
    "GaussianLocationModel",
    "UniformLocationModel",
    "IndependentGaussianPair",
)
SYNTH_METHODS = ("sample", "conditional_law")

# span name -> sub-group reported on its own
OT_GROUPS = {
    "ot.wp_exact": "exact",
    "ot.w1_cdf": "line",
    "ot.wp_quantile": "line",
    "ot.w1_vs_analytic": "analytic",
    "ot.sliced_wp": "sliced",
    "ot.max_sliced_wp": "sliced",
}
REPLICATION_SPANS = ("experiments._risk_replication", "experiments._functional_replication")


def _support_size(dist) -> int:
    return int(np.shape(dist.atoms)[0])


def _count_weights(counters, args, kwargs, result):
    counters["weights.points_scanned"] += result.values.shape[0]
    counters["weights.nonzero"] += int(np.count_nonzero(result.values))


def _count_make_discrete(counters, args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["atoms"])
    counters["measures.atoms_in"] += shape[0] if shape else 1


def _count_exact(counters, args, kwargs, result):
    counters["ot.exact.cells"] += _support_size(args[0]) * _support_size(args[1])


def _count_functional(counters, args, kwargs, result):
    counters["functionals.atoms"] += _support_size(args[0] if args else kwargs["dist"])


def _count_sample(counters, args, kwargs, result):
    counters["synth.rows_sampled"] += int(result.covariates.shape[0])


COUNTERS = {
    "weights.kernel_weights": _count_weights,
    "weights.knn_weights": _count_weights,
    "measures.make_discrete": _count_make_discrete,
    "ot.wp_exact": _count_exact,
    "functionals.quantile_functional": _count_functional,
    "functionals.tail_expectation": _count_functional,
    "functionals.pwm": _count_functional,
    "functionals.covariance_functional": _count_functional,
    "synth.sample": _count_sample,
}


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "distreg" or key.startswith("distreg.")
        ]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"distreg.{layer}")
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        synth = importlib.import_module("distreg.synth")
        for cls_name in SYNTH_CLASSES:
            cls = getattr(synth, cls_name)
            for method in SYNTH_METHODS:
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(f"synth.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls and self times, sub-group figures and counters."""
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for group in ("exact", "line", "analytic", "sliced"):
            out[f"ot.{group}.self_s"] = 0.0
        out["ot.exact.calls"] = 0
        out["experiments.replications"] = 0
        top_level = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            group = OT_GROUPS.get(name)
            if group is not None:
                out[f"ot.{group}.self_s"] += own
            if name == "ot.wp_exact":
                out["ot.exact.calls"] += 1
            if name in REPLICATION_SPANS:
                out["experiments.replications"] += 1
            if parent < 0:
                top_level += end - start
        c = self.counters
        for key in (
            "weights.points_scanned",
            "measures.atoms_in",
            "ot.exact.cells",
            "functionals.atoms",
            "synth.rows_sampled",
        ):
            out[key] = c[key]
        scanned = c["weights.points_scanned"]
        out["weights.kept_share"] = c["weights.nonzero"] / scanned if scanned else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.outside_s"] = wall_s - top_level
        return out
