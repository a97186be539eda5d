"""Monte-Carlo harness: risk curves, rate-slope fits, bound comparisons.

Every replication is keyed by (grid index, replication index) through a
counter-based stream, and results are reduced in key order, so a study is
bit-reproducible for a fixed plan regardless of how many workers run it.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import stream
from .bounds import kernel_bound, knn_bound
from .functionals import FunctionalSpec, evaluate_functional
from .measures import DiscreteDistribution, MeasureBatch
from .ot import w1_cdf, w1_cdf_batch, w1_vs_analytic, w1_vs_analytic_batch, wp_quantile
from .regressor import fit, predict_many
from .synth import make_preset
from .weights import KernelScheme, KnnScheme

_TAG_TRAIN = 11
_TAG_TEST = 12


# ---------------------------------------------------------------------------
# Schedules (picklable so studies can run in worker processes)


@dataclass(frozen=True)
class BandwidthPowerSchedule:
    """h(n) = coef * n^exponent."""

    coef: float = 1.0
    exponent: float = -1.0 / 3.0

    def __call__(self, n: int) -> float:
        return self.coef * float(n) ** self.exponent


@dataclass(frozen=True)
class NeighborPowerSchedule:
    """kappa(n) = ceil(coef * n^exponent), capped at n."""

    coef: float = 1.0
    exponent: float = 0.5

    def __post_init__(self):
        if not 0 < self.coef < np.inf:
            raise ValueError(f"kappa coefficient must be positive and finite, got {self.coef}")

    def __call__(self, n: int) -> int:
        return min(n, int(np.ceil(self.coef * float(n) ** self.exponent)))


@dataclass(frozen=True)
class FixedNeighborSchedule:
    """kappa(n) = const, capped at n; deliberately not a consistent schedule."""

    kappa: int = 5

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")

    def __call__(self, n: int) -> int:
        return min(n, self.kappa)


@dataclass(frozen=True)
class ExperimentPlan:
    """A full study: model, scheme family with schedule, grid and budgets."""

    model: object
    family: str  # "kernel" | "knn"
    schedule: Callable[[int], float]
    n_grid: tuple[int, ...]
    replications: int
    test_points: int = 32
    seed: int = 0
    p: float = 1.0
    target_exponent: float | None = None
    tolerance: float = 0.08

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing with >= 2 points")
        if grid[0] < 1:
            raise ValueError(f"sample sizes must be >= 1, got {grid[0]}")
        if self.replications < 2:
            raise ValueError("need at least 2 replications")
        if self.test_points < 1:
            raise ValueError(f"need at least 1 test point, got {self.test_points}")
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")
        if self.family not in ("kernel", "knn"):
            raise ValueError(f"unknown scheme family {self.family!r}")
        for n in grid:
            if self.schedule(n) <= 0:
                raise ValueError(f"schedule is nonpositive at n = {n}")
        object.__setattr__(self, "n_grid", grid)

    def scheme_at(self, n: int):
        if self.family == "kernel":
            return KernelScheme(bandwidth=float(self.schedule(n)))
        return KnnScheme(kappa=int(self.schedule(n)))


@dataclass(frozen=True)
class RiskPoint:
    n: int
    param: float  # bandwidth or neighbor count used at this n
    mean: float
    stderr: float


@dataclass(frozen=True)
class RateReport:
    points: tuple[RiskPoint, ...]
    slope: float
    slope_stderr: float
    theoretical: float | None
    tolerance: float
    passed: bool

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "param", "risk_mean", "risk_stderr"])
        for pt in self.points:
            writer.writerow(
                [pt.n, _fmt(pt.param), _fmt(pt.mean), _fmt(pt.stderr)]
            )
        return buf.getvalue()

    def json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "theoretical": self.theoretical,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "points": [
                {"n": pt.n, "param": pt.param, "mean": pt.mean, "stderr": pt.stderr}
                for pt in self.points
            ],
        }

    def write(self, prefix: str) -> tuple[str, str]:
        csv_path, json_path = prefix + ".csv", prefix + ".json"
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(self.csv_text())
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(self.json_dict(), handle, indent=2)
            handle.write("\n")
        return csv_path, json_path


def _fmt(x: float) -> str:
    """17 significant digits, so a double round-trips through CSV."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Replication workers (module level so they pickle)


def _prediction_error(pred: DiscreteDistribution, law, p: float) -> float:
    if isinstance(law, DiscreteDistribution):
        if p == 1.0:
            return w1_cdf(pred, law)
        return wp_quantile(pred, law, p) ** p
    if p != 1.0:
        raise NotImplementedError(
            "orders p > 1 are only evaluated against discrete conditional laws"
        )
    return w1_vs_analytic(pred, law)


def _fit_and_predict(model, scheme, n, test_points, seed, n_index, rep):
    """One replication's fresh training sample, fit and predictions at fresh
    test covariates; returns the covariates and the predictions."""
    ds = model.sample(n, seed=(seed, _TAG_TRAIN, n_index, rep))
    queries = stream(seed, _TAG_TEST, n_index, rep).random((test_points, model.k))
    return queries, predict_many(fit(ds, scheme), queries)


def _risk_replication(payload) -> float:
    *setting, p = payload
    model = setting[0]
    queries, preds = _fit_and_predict(*setting)
    if p != 1.0:  # no preset uses it: one pair at a time
        errs = [
            _prediction_error(pred, model.conditional_law(q), p)
            for pred, q in zip(preds, queries)
        ]
        return float(np.mean(errs))
    laws = model.conditional_laws(queries)
    if isinstance(laws, MeasureBatch):
        return float(np.mean(w1_cdf_batch(preds, laws)))
    return float(np.mean(w1_vs_analytic_batch(preds, *laws)))


def _functional_replication(payload) -> float:
    *setting, spec = payload
    model = setting[0]
    queries, preds = _fit_and_predict(*setting)
    estimates = np.array([evaluate_functional(pred, spec) for pred in preds])
    return float(np.mean(np.abs(estimates - model.true_functional(spec, queries))))


def _run_payloads(worker, payloads, workers: int):
    if workers <= 1:
        return [worker(pl) for pl in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _aggregate(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.shape[0]))
    return mean, se


def _grid_study(
    worker, model, grid, replications, test_points, seed, extra, workers
) -> list[tuple[float, float]]:
    """Run ``worker`` on every replication at every ``(n_index, n, scheme)``
    of ``grid`` and reduce each grid point's values to (mean, stderr)."""
    payloads = [
        (model, scheme, n, test_points, seed, n_index, rep, extra)
        for n_index, n, scheme in grid
        for rep in range(replications)
    ]
    flat = np.array(_run_payloads(worker, payloads, workers))
    return [_aggregate(chunk) for chunk in flat.reshape(len(grid), replications)]


def _plan_study(plan: ExperimentPlan, worker, extra, workers: int):
    grid = [(n_index, n, plan.scheme_at(n)) for n_index, n in enumerate(plan.n_grid)]
    return _grid_study(
        worker, plan.model, grid, plan.replications, plan.test_points, plan.seed,
        extra, workers,
    )


# ---------------------------------------------------------------------------
# Studies


def risk_estimate(
    model,
    scheme,
    n: int,
    replications: int,
    test_points: int = 32,
    seed: int = 0,
    n_index: int = 0,
    p: float = 1.0,
    workers: int = 1,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the expected prediction error at size n.

    Each replication draws a fresh training set and fresh test covariates,
    averages the W1 error (or the p-th power of the Wp error) between the
    prediction and the exact conditional law over the test points, and the
    mean and standard error over replications are returned.
    """
    grid = [(n_index, n, scheme)]
    return _grid_study(
        _risk_replication, model, grid, replications, test_points, seed, p, workers
    )[0]


def _risk_curve(plan: ExperimentPlan, workers: int) -> list[RiskPoint]:
    stats = _plan_study(plan, _risk_replication, plan.p, workers)
    return [
        RiskPoint(n=n, param=float(plan.schedule(n)), mean=mean, stderr=se)
        for n, (mean, se) in zip(plan.n_grid, stats)
    ]


def fit_loglog_slope(ns, means) -> tuple[float, float]:
    """Ordinary least squares slope of log(mean) on log(n), with its
    standard error from the residual scatter."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    if dof > 0:
        slope_se = float(np.sqrt((resid @ resid) / dof / (xc @ xc)))
    else:
        slope_se = float("nan")
    return slope, slope_se


def rate_study(plan: ExperimentPlan, workers: int = 1) -> RateReport:
    """Risk curve over the n grid plus a log-log slope and a verdict.

    The verdict compares the fitted slope to the plan's target exponent at
    the plan's tolerance; with no target the study always passes.
    """
    points = _risk_curve(plan, workers)
    slope, slope_se = fit_loglog_slope(
        [pt.n for pt in points], [pt.mean for pt in points]
    )
    if plan.target_exponent is None:
        passed = True
    else:
        passed = abs(slope - plan.target_exponent) <= plan.tolerance
    return RateReport(
        points=tuple(points),
        slope=slope,
        slope_stderr=slope_se,
        theoretical=plan.target_exponent,
        tolerance=plan.tolerance,
        passed=passed,
    )


@dataclass(frozen=True)
class BoundRow:
    n: int
    param: float
    risk_mean: float
    risk_stderr: float
    bound: float
    violated: bool  # mean - 3 stderr exceeds the bound


def bound_vs_risk(
    plan: ExperimentPlan,
    neighbor_const: float | None = None,
    covering_const: float | None = None,
    workers: int = 1,
) -> list[BoundRow]:
    """Monte-Carlo risk next to the closed-form bound, row per grid point.

    A row is flagged when mean - 3 stderr exceeds the bound, which should
    never happen for a certified model.
    """
    params = plan.model.params
    if params is None:
        raise ValueError("bound comparison needs a model with declared class params")
    points = _risk_curve(plan, workers)
    rows = []
    for pt in points:
        if plan.family == "kernel":
            bound = kernel_bound(params, pt.n, pt.param, covering_const)
        else:
            bound = knn_bound(params, pt.n, int(pt.param), neighbor_const)
        rows.append(
            BoundRow(
                n=pt.n,
                param=pt.param,
                risk_mean=pt.mean,
                risk_stderr=pt.stderr,
                bound=bound,
                violated=pt.mean - 3.0 * pt.stderr > bound,
            )
        )
    return rows


def bound_rows_csv(rows: list[BoundRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "param", "risk_mean", "risk_stderr", "bound", "violated"])
    for row in rows:
        writer.writerow(
            [
                row.n,
                _fmt(row.param),
                _fmt(row.risk_mean),
                _fmt(row.risk_stderr),
                _fmt(row.bound),
                int(row.violated),
            ]
        )
    return buf.getvalue()


@dataclass(frozen=True)
class FunctionalPoint:
    n: int
    mean_abs_error: float
    stderr: float


def functional_study(
    plan: ExperimentPlan, spec: FunctionalSpec, workers: int = 1
) -> list[FunctionalPoint]:
    """Mean absolute plug-in error of a functional along the n grid."""
    stats = _plan_study(plan, _functional_replication, spec, workers)
    return [
        FunctionalPoint(n=n, mean_abs_error=mean, stderr=se)
        for n, (mean, se) in zip(plan.n_grid, stats)
    ]


# ---------------------------------------------------------------------------
# Named study presets (used by the CLI)


def _geometric_grid(lo_pow: int, hi_pow: int) -> tuple[int, ...]:
    return tuple(2**e for e in range(lo_pow, hi_pow + 1))


def make_experiment_preset(name: str, seed: int = 1) -> ExperimentPlan:
    presets = {
        "binary-k1-kernel": dict(
            model="binary-k1",
            family="kernel",
            schedule=BandwidthPowerSchedule(1.0, -1.0 / 3.0),
            n_grid=_geometric_grid(9, 15),
            replications=40,
            test_points=32,
            target_exponent=-1.0 / 3.0,
        ),
        "binary-k2-knn": dict(
            model="binary-k2",
            family="knn",
            schedule=NeighborPowerSchedule(1.0, 0.5),
            n_grid=_geometric_grid(9, 15),
            replications=40,
            test_points=32,
            target_exponent=-0.25,
        ),
        "binary-k1-knn": dict(
            model="binary-k1",
            family="knn",
            schedule=NeighborPowerSchedule(1.0, 0.5),
            n_grid=_geometric_grid(9, 15),
            replications=40,
            test_points=32,
            target_exponent=-0.25,
        ),
        "binary-k1-knn-fixed": dict(
            model="binary-k1",
            family="knn",
            schedule=FixedNeighborSchedule(5),
            n_grid=_geometric_grid(9, 14),
            replications=24,
            test_points=32,
            target_exponent=-1.0 / 3.0,
        ),
        "gaussian-k1-kernel": dict(
            model="gaussian-k1",
            family="kernel",
            schedule=BandwidthPowerSchedule(1.0, -1.0 / 3.0),
            n_grid=_geometric_grid(8, 13),
            replications=24,
            test_points=16,
            target_exponent=-1.0 / 3.0,
        ),
        "uniform-k1-knn": dict(
            model="uniform-k1",
            family="knn",
            schedule=NeighborPowerSchedule(1.0, 0.5),
            n_grid=_geometric_grid(8, 13),
            replications=24,
            test_points=16,
            target_exponent=-0.25,
        ),
    }
    try:
        cfg = dict(presets[name])
    except KeyError:
        raise ValueError(
            f"unknown experiment preset {name!r}; available: {sorted(presets)}"
        ) from None
    cfg["model"] = make_preset(cfg["model"])
    return ExperimentPlan(seed=seed, **cfg)
