"""Monte-Carlo harness: risk curves, rate-slope fits, bound comparisons.

Every replication is keyed by (grid index, replication index) through a
counter-based stream and run by :func:`distreg._rng.grid_study`, which
reduces results in key order, so a study is bit-reproducible for a fixed
plan regardless of how many workers run it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._rng import grid_study, stream
from ._table import table_text
from .bounds import kernel_bound, knn_bound
from .functionals import FunctionalSpec, evaluate_functional
from .measures import MeasureBatch
from .ot import _quantile_power, w1_cdf, w1_vs_analytic
from .regressor import fit, predict_many
from .synth import make_preset
from .weights import BandwidthPowerSchedule, NeighborPowerSchedule, study_grid

_TAG_TRAIN = 11
_TAG_TEST = 12


@dataclass(frozen=True)
class ExperimentPlan:
    """A full study: model, schedule (which fixes the weights), grid and budgets."""

    model: object
    schedule: BandwidthPowerSchedule | NeighborPowerSchedule
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
        # the checks of every study and of the schedule at each n, made
        # before anything is sampled
        study_grid(self.schedule, grid, self.replications, self.test_points)
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1.0 <= self.p < np.inf:
            raise ValueError("order p must be finite and >= 1")
        object.__setattr__(self, "n_grid", grid)


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
    slope_stderr: float | None  # None with 2 grid points: no residual dof
    theoretical: float | None
    tolerance: float
    passed: bool

    def csv_text(self) -> str:
        fields = ("n", "param", "mean", "stderr")
        return table_text(
            ["n", "param", "risk_mean", "risk_stderr"],
            [[getattr(pt, name) for pt in self.points] for name in fields],
        )

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
        # strict JSON: a non-finite value raises here, before a file is opened
        text = json.dumps(self.json_dict(), indent=2, allow_nan=False)
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(self.csv_text())
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return csv_path, json_path


# ---------------------------------------------------------------------------
# Replication workers (module level so they pickle)


def _fit_and_predict(model, scheme, n, test_points, seed, n_index, rep):
    """One replication's fresh training sample, fit and predictions at fresh
    test covariates; returns the covariates and the predictions."""
    ds = model.sample(n, seed=(seed, _TAG_TRAIN, n_index, rep))
    queries = stream(seed, _TAG_TEST, n_index, rep).random((test_points, model.k))
    return queries, predict_many(fit(ds, scheme), queries)


def _risk_laws(model, queries, p):
    """The conditional laws at ``queries`` that an order-p risk is measured
    against; a model without scalar laws raises, and so does p > 1 with
    laws that are not discrete."""
    laws = model.conditional_laws(queries)
    if p != 1.0 and not isinstance(laws, MeasureBatch):
        raise NotImplementedError(
            "orders p > 1 are only evaluated against discrete conditional laws"
        )
    return laws


def _risk_replication(payload) -> float:
    *setting, p = payload
    queries, preds = _fit_and_predict(*setting)
    laws = _risk_laws(setting[0], queries, p)
    if not isinstance(laws, MeasureBatch):
        return float(np.mean(w1_vs_analytic(preds, *laws)))
    if p != 1.0:  # no preset uses it: one pair of rows at a time
        errs = [
            _quantile_power(pred.xs, pred.cum_weights, law.xs, law.cum_weights, p)[0]
            for pred, law in zip(preds, laws)
        ]
        return float(np.mean(errs))
    return float(np.mean(w1_cdf(preds, laws)))


def _functional_replication(payload) -> float:
    *setting, spec = payload
    model = setting[0]
    queries, preds = _fit_and_predict(*setting)
    estimates = evaluate_functional(preds, spec)
    return float(np.mean(np.abs(estimates - model.true_functional(spec, queries))))


def _plan_study(plan: ExperimentPlan, worker, extra, workers: int):
    grid = study_grid(plan.schedule, plan.n_grid, plan.replications, plan.test_points)
    return grid_study(
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
    return grid_study(
        _risk_replication, model, grid, replications, test_points, seed, p, workers
    )[0]


def _risk_curve(plan: ExperimentPlan, workers: int) -> list[RiskPoint]:
    stats = _plan_study(plan, _risk_replication, plan.p, workers)
    return [
        RiskPoint(n=n, param=float(plan.schedule(n)), mean=mean, stderr=se)
        for n, (mean, se) in zip(plan.n_grid, stats)
    ]


def fit_loglog_slope(ns, means) -> tuple[float, float | None]:
    """Ordinary least squares slope of log(mean) on log(n), with its
    standard error from the residual scatter, or None when two points
    leave no residual degree of freedom."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    if dof < 1:
        return slope, None
    return slope, float(np.sqrt((resid @ resid) / dof / (xc @ xc)))


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
    never happen for a certified model.  Only the plan's own family's
    constant may be given: ``covering_const`` for kernel weights,
    ``neighbor_const`` for k-NN weights.
    """
    params, family = plan.model.params, plan.schedule.family
    if params is None:
        raise ValueError("bound comparison needs a model with declared class params")
    if (covering_const if family == "knn" else neighbor_const) is not None:
        unread = "covering_const" if family == "knn" else "neighbor_const"
        raise ValueError(f"{unread} is not read by the {family} bound")
    # the bounds come first, so a constant they reject costs no study
    bounds = [
        kernel_bound(params, n, plan.schedule(n), covering_const)
        if family == "kernel"
        else knn_bound(params, n, plan.schedule(n), neighbor_const)
        for n in plan.n_grid
    ]
    return [
        BoundRow(
            n=pt.n,
            param=pt.param,
            risk_mean=pt.mean,
            risk_stderr=pt.stderr,
            bound=bound,
            violated=pt.mean - 3.0 * pt.stderr > bound,
        )
        for pt, bound in zip(_risk_curve(plan, workers), bounds)
    ]


def bound_rows_csv(rows: list[BoundRow]) -> str:
    header = ["n", "param", "risk_mean", "risk_stderr", "bound", "violated"]
    return table_text(header, [[getattr(row, name) for row in rows] for name in header])


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
# Rate-study configs: ``key=value`` pairs, of which a named preset is one


def _parse(convert, text: str, name: str, expected: str):
    """``convert(text)``; malformed text raises ValueError naming ``name``."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"cannot parse {name} {text!r}: expected {expected}") from None


def finite(text: str, name: str = "value") -> float:
    """Parse a float; malformed text, nan and infinities raise ValueError."""
    value = _parse(float, text, name, "a number")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def whole(text: str, name: str) -> int:
    """Parse a whole number; malformed text raises ValueError naming ``name``."""
    return _parse(int, text, name, "a whole number")


def whole_list(text: str, name: str) -> list[int]:
    """Parse comma-separated whole numbers, as :func:`whole` does one."""
    return _parse(lambda t: [int(v) for v in t.split(",")], text, name,
                  "comma-separated whole numbers")


_SCHEDULE_FORMS = {"h": "h:COEF:EXP", "kappa": "kappa:COEF:EXP", "kappa-fixed": "kappa-fixed:K"}


def parse_schedule(text: str):
    """The schedule ``h:COEF:EXP``, ``kappa:COEF:EXP`` or ``kappa-fixed:K``;
    a fixed count K is ``kappa:K:0``, capped at n like any other."""
    parts = text.split(":")
    form = _SCHEDULE_FORMS.get(parts[0])
    if form is None:
        raise ValueError(f"unknown schedule form {text!r}")
    try:
        if len(parts) != form.count(":") + 1:
            raise ValueError(f"expected {form}")
        if parts[0] == "h":
            return BandwidthPowerSchedule(finite(parts[1], "COEF"), finite(parts[2], "EXP"))
        if parts[0] == "kappa":
            return NeighborPowerSchedule(finite(parts[1], "COEF"), finite(parts[2], "EXP"))
        kappa = whole(parts[1], "K")
        if kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {kappa}")
        # a K beyond the double range overflows here, as kappa:1e400:0 fails
        return NeighborPowerSchedule(float(kappa), 0.0)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"cannot parse schedule {text!r}: {exc}") from exc


# a preset config is its preset's keys updated by the config's own keys
STUDY_PRESETS = {
    "binary-k1-kernel": "model=binary-k1 schedule=h:1:-0.3333333333333333 "
    "n_grid=512,1024,2048,4096,8192,16384,32768 replications=40 test_points=32 "
    "target=-0.3333333333333333",
    "binary-k2-knn": "model=binary-k2 schedule=kappa:1:0.5 "
    "n_grid=512,1024,2048,4096,8192,16384,32768 replications=40 test_points=32 "
    "target=-0.25",
    "binary-k1-knn": "model=binary-k1 schedule=kappa:1:0.5 "
    "n_grid=512,1024,2048,4096,8192,16384,32768 replications=40 test_points=32 "
    "target=-0.25",
    "binary-k1-knn-fixed": "model=binary-k1 schedule=kappa-fixed:5 "
    "n_grid=512,1024,2048,4096,8192,16384 replications=24 test_points=32 "
    "target=-0.3333333333333333",
    "gaussian-k1-kernel": "model=gaussian-k1 schedule=h:1:-0.3333333333333333 "
    "n_grid=256,512,1024,2048,4096,8192 replications=24 test_points=16 "
    "target=-0.3333333333333333",
    "uniform-k1-knn": "model=uniform-k1 schedule=kappa:1:0.5 "
    "n_grid=256,512,1024,2048,4096,8192 replications=24 test_points=16 "
    "target=-0.25",
}

# keys a preset config may set; a spelled-out study also takes the rest
_PRESET_KEYS = {"preset", "n_grid", "replications", "test_points", "seed", "tolerance",
                "out_prefix"}
_STUDY_KEYS = _PRESET_KEYS - {"preset"} | {"model", "schedule", "order", "target"}


def plan_from_config(cfg: dict[str, str], seed: int) -> ExperimentPlan:
    """The plan of a rate-study config; ``seed`` applies when it sets none."""
    allowed = _PRESET_KEYS if "preset" in cfg else _STUDY_KEYS
    rejected = sorted(set(cfg) - allowed)
    if rejected:
        raise ValueError(
            f"unknown or ignored rates config key(s) {', '.join(rejected)}; "
            f"this config takes {', '.join(sorted(allowed))}"
        )
    if "preset" in cfg:
        try:
            preset = STUDY_PRESETS[cfg["preset"]]
        except KeyError:
            raise ValueError(
                f"unknown experiment preset {cfg['preset']!r}; "
                f"available: {sorted(STUDY_PRESETS)}"
            ) from None
        cfg = dict(item.split("=", 1) for item in preset.split()) | cfg
    required = ("model", "schedule", "n_grid")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"config must set preset= or the keys {missing}")
    plan = ExperimentPlan(
        model=make_preset(cfg["model"]),
        schedule=parse_schedule(cfg["schedule"]),
        n_grid=whole_list(cfg["n_grid"], "n_grid"),
        replications=whole(cfg.get("replications", "16"), "replications"),
        test_points=whole(cfg.get("test_points", "16"), "test_points"),
        seed=whole(cfg["seed"], "seed") if "seed" in cfg else seed,
        p=finite(cfg.get("order", "1"), "order"),
        target_exponent=finite(cfg["target"], "target") if "target" in cfg else None,
        tolerance=finite(cfg.get("tolerance", "0.08"), "tolerance"),
    )
    # the laws at the centre of the cube, before anything is sampled
    _risk_laws(plan.model, np.full((1, plan.model.k), 0.5), plan.p)
    return plan


def make_experiment_preset(name: str, seed: int = 1) -> ExperimentPlan:
    return plan_from_config({"preset": name}, seed)
