"""Plug-in summary statistics of (estimated) conditional distributions.

Each functional is evaluated exactly on discrete measures, row by row over
a batch of them, through the quantile representation, and numerically on
analytic laws.  The probability weighted moment relies on scipy's
regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import AnalyticDistribution1D, MeasureBatch
from .measures import _per_row, _require_dim, _row_sums
from .regressor import FittedRegressor, predict_distribution


_SPEC_FORMS = {"quantile": "quantile:ALPHA", "cte": "cte:ALPHA", "pwm": "pwm:P:Q", "cov": "cov"}


@dataclass(frozen=True)
class FunctionalSpec:
    """A named conditional summary statistic with its parameters.

    kinds: ``quantile`` (level alpha), ``cte`` (tail expectation above
    alpha), ``pwm`` (probability weighted moment of orders p, q > 0) and
    ``cov`` (covariance between the two response components, d = 2 only).
    """

    kind: str
    alpha: float | None = None
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind in ("quantile", "cte"):
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"{self.kind} needs alpha in (0, 1)")
        elif self.kind == "pwm":
            if self.p is None or self.q is None or not (
                0.0 < self.p < math.inf and 0.0 < self.q < math.inf
            ):
                raise ValueError(
                    f"pwm needs finite orders p > 0 and q > 0, got {self.p}, {self.q}"
                )
            if not beta_function(self.p + 1.0, self.q + 1.0) > 0.0:
                raise ValueError(
                    f"pwm orders p = {self.p:g}, q = {self.q:g} are too large: "
                    "B(p + 1, q + 1) underflows to 0"
                )
        elif self.kind != "cov":
            raise ValueError(f"unknown functional kind: {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "FunctionalSpec":
        """Parse CLI notation: quantile:0.5, cte:0.9, pwm:1:2, cov."""
        parts = text.strip().split(":")
        kind = parts[0]
        form = _SPEC_FORMS.get(kind)
        if form is None:
            raise ValueError(f"unknown functional kind in {text!r}")
        try:
            if len(parts) != form.count(":") + 1:
                raise ValueError(f"expected {form}")
            if kind == "pwm":
                return cls(kind=kind, p=float(parts[1]), q=float(parts[2]))
            if kind == "cov":
                return cls(kind="cov")
            return cls(kind=kind, alpha=float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"cannot parse functional spec {text!r}: {exc}") from exc

    def label(self) -> str:
        if self.kind in ("quantile", "cte"):
            return f"{self.kind}:{self.alpha:g}"
        if self.kind == "pwm":
            return f"pwm:{self.p:g}:{self.q:g}"
        return "cov"


# ---------------------------------------------------------------------------
# Incomplete beta


def regularized_incomplete_beta(a: float, b: float, x):
    """I_x(a, b) for a, b > 0, with x clamped to [0, 1]; x may be an array."""
    from scipy.special import betainc

    if a <= 0 or b <= 0:
        raise ValueError("incomplete beta needs a, b > 0")
    out = betainc(a, b, np.clip(x, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def beta_function(a: float, b: float) -> float:
    """B(a, b) for a, b > 0, accurate for large arguments too."""
    from scipy.special import beta

    return float(beta(a, b))


# ---------------------------------------------------------------------------
# Functionals on discrete measures, row by row over a batch


def _previous(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each entry's predecessor within its row, and 0 at each row start."""
    out = np.empty_like(values)
    out[1:] = values[:-1]
    out[offsets[:-1]] = 0.0
    return out


def quantile_functional(dist, alpha: float):
    """Generalized-inverse quantile at level alpha.

    Like every functional here, it takes a DiscreteDistribution, giving a
    float, or a MeasureBatch, giving an array with one value per row.  A
    row's quantile is its atom after the cumulative weights below alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _require_dim(dist, 1, "the quantile")
    below = np.concatenate(([0], np.cumsum(dist.cum_weights < alpha)))
    first, ends = dist.offsets[:-1], dist.offsets[1:]
    return _per_row(dist.atoms[first + below[ends] - below[first], 0], dist)


def tail_expectation(dist, alpha: float):
    """Average of the quantile function over (alpha, 1), i.e. the mean of the
    upper tail beyond the alpha-quantile.

    Exact on discrete measures: each cumulative-weight segment contributes
    its atom times the part of the segment above alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _require_dim(dist, 1, "tail expectation")
    cum = dist.cum_weights
    lengths = np.maximum(cum - np.maximum(_previous(cum, dist.offsets), alpha), 0.0)
    sums = _row_sums(dist.atoms[:, 0] * lengths, dist.offsets)
    return _per_row(sums / (1.0 - alpha), dist)


def pwm(dist, p: float, q: float):
    """Probability weighted moment int_0^1 Q(u) u^p (1-u)^q du.

    Exact per segment: the quantile function is constant on each cumulative
    weight segment, and the u-integral over a segment is an incomplete beta
    difference.  Zero orders are allowed here (p = q = 0 recovers the mean);
    the CLI-facing FunctionalSpec keeps the strict p, q > 0 contract.
    """
    if not (0.0 <= p < math.inf and 0.0 <= q < math.inf):
        raise ValueError("pwm needs finite orders p >= 0 and q >= 0")
    _require_dim(dist, 1, "pwm")
    full = beta_function(p + 1.0, q + 1.0)
    upper = full * regularized_incomplete_beta(p + 1.0, q + 1.0, dist.cum_weights)
    masses = upper - _previous(upper, dist.offsets)
    return _per_row(_row_sums(dist.atoms[:, 0] * masses, dist.offsets), dist)


def covariance_functional(dist):
    """Covariance between the two components of a 2-d discrete measure."""
    _require_dim(dist, 2, "covariance")
    y1, y2 = dist.atoms.T
    mean = lambda values: _row_sums(dist.weights * values, dist.offsets)  # noqa: E731
    return _per_row(mean(y1 * y2) - mean(y1) * mean(y2), dist)


# ---------------------------------------------------------------------------
# Dispatch over discrete measures and analytic laws


def evaluate_functional(dist, spec: FunctionalSpec):
    """The functional ``spec`` of ``dist``: an array with one value per row
    of a MeasureBatch, and a float for a DiscreteDistribution (a batch of
    one row) or for an analytic law."""
    if isinstance(dist, MeasureBatch):
        if spec.kind == "quantile":
            return quantile_functional(dist, spec.alpha)
        if spec.kind == "cte":
            return tail_expectation(dist, spec.alpha)
        if spec.kind == "pwm":
            return pwm(dist, spec.p, spec.q)
        return covariance_functional(dist)
    if isinstance(dist, AnalyticDistribution1D):
        return _evaluate_on_law(dist, spec)
    raise TypeError(f"unsupported distribution type: {type(dist).__name__}")


def _evaluate_on_law(law: AnalyticDistribution1D, spec: FunctionalSpec) -> float:
    from scipy.integrate import quad

    if spec.kind == "quantile":
        return float(law.quantile(spec.alpha))
    if spec.kind == "cte":
        val, _ = quad(
            lambda u: float(law.quantile(u)), spec.alpha, 1.0, epsabs=1e-10, limit=400
        )
        return val / (1.0 - spec.alpha)
    if spec.kind == "pwm":
        val, _ = quad(
            lambda u: float(law.quantile(u)) * u**spec.p * (1.0 - u) ** spec.q,
            0.0,
            1.0,
            epsabs=1e-10,
            limit=400,
        )
        return val
    raise ValueError("covariance is undefined for a scalar law")


def conditional_functional(model: FittedRegressor, spec: FunctionalSpec, x) -> float:
    """Plug-in estimate: the functional applied to the predicted distribution."""
    return evaluate_functional(predict_distribution(model, x), spec)
