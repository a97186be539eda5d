"""Closed-form risk bounds and minimax schedules for the W1 error.

The bounds split the expected estimation error at a query point into an
approximation part (how fast the conditional law moves with the covariate)
and a sampling part controlled by the effective sample size 1 / sum(W_i^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _whole_count, _whole_number
from .regressor import FittedRegressor, weights_at
from .weights import BandwidthPowerSchedule, NeighborPowerSchedule


@dataclass(frozen=True)
class ClassParams:
    """Smoothness class parameters: Hoelder exponent, Lipschitz-type scale,
    dispersion ceiling and covariate dimension."""

    holder: float
    lipschitz: float
    dispersion: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.holder <= 1.0:
            raise ValueError("holder exponent must lie in (0, 1]")
        if self.lipschitz <= 0 or self.dispersion <= 0:
            raise ValueError("lipschitz and dispersion scales must be positive")
        if not (self.lipschitz < math.inf and self.dispersion < math.inf):  # nan too
            raise ValueError("lipschitz and dispersion scales must be finite")
        object.__setattr__(self, "dim", _whole_count(self.dim, "covariate dimension"))


@dataclass(frozen=True)
class BoundReport:
    """Approximation + estimation split of a pointwise risk bound."""

    approximation: float
    estimation: float
    x: np.ndarray
    scheme: str

    def __post_init__(self):
        if self.approximation < 0 or self.estimation < 0:
            raise ValueError("bound terms must be nonnegative")

    @property
    def total(self) -> float:
        return self.approximation + self.estimation


def effective_sample_size(values) -> float:
    """1 / sum(W_i^2) of a nonempty weight array; equals kappa for
    nearest-neighbor weights.  Squares that sum to 0, to inf or to nan
    raise ValueError."""
    if np.size(values) == 0:
        raise ValueError("need at least one weight")
    squares = float(np.sum(np.asarray(values, dtype=float) ** 2))
    if not 0.0 < squares < math.inf:
        raise ValueError(f"the squared weights sum to {squares:g}, not to a finite number > 0")
    return 1.0 / squares


def pointwise_risk_bound(model: FittedRegressor, true_model, x) -> BoundReport:
    """Bound on the expected W1 error at x, conditional on the realized
    covariates.

    approximation = sum_i W_i(x) * W1(F_{X_i}, F_x), evaluated with the
    model's closed-form pairwise distance; estimation = M(x) * sqrt(sum W^2)
    with M(x) the dispersion of the true conditional law at x.
    """
    w = weights_at(model, x)
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    values = w.values
    gaps = true_model.w1_many_to(model.dataset.covariates[w.indices], xq)
    approx = float(values @ gaps)
    est = float(true_model.dispersion_at(xq) * np.sqrt(np.sum(values**2)))
    return BoundReport(
        approximation=approx, estimation=est, x=xq, scheme=model.scheme.describe()
    )


def covering_constant(k: int) -> float:
    """The default covering constant k^(k/2) of :func:`kernel_bound`."""
    try:
        return float(k) ** (k / 2.0)
    except OverflowError:
        raise ValueError(f"the covering constant k^(k/2) overflows at k = {k}") from None


def _require_constant(value, name: str) -> None:
    if value is not None and not 0.0 < value < math.inf:
        raise ValueError(f"the {name} must be positive and finite, got {value:g}")


def _require_finite_bound(total: float, what: str) -> float:
    if not math.isfinite(total):
        raise ValueError(f"the bound at {what} is not finite in double precision")
    return total


def kernel_bound(
    params: ClassParams, n: int, h: float, covering_const: float | None = None
) -> float:
    """Uniform risk bound for unit-ball kernel weights at bandwidth h.

    Three terms: the bandwidth bias L h^H, the sampling term driven by the
    expected reciprocal ball count, and the empty-ball correction.  The
    covering constant defaults to k^(k/2) and may be overridden by a
    positive one.  A term beyond the double range raises ValueError.
    """
    n = _whole_number(n, "n")
    if n < 1 or h <= 0:
        raise ValueError("need n >= 1 and h > 0")
    _require_constant(covering_const, "covering constant")
    hh, ll, mm, k = params.holder, params.lipschitz, params.dispersion, params.dim
    ck = float(covering_const) if covering_const is not None else covering_constant(k)
    try:
        nhk = n * h**k
        bias = ll * h**hh
        sampling = mm * math.sqrt((2.0 + 1.0 / n) * ck) * nhk**-0.5
        empty = ll * k ** (hh / 2.0) * ck / nhk
        total = bias + sampling + empty
    except (OverflowError, ZeroDivisionError):  # n h^k beyond the range, or 0
        total = math.inf
    return _require_finite_bound(total, f"n = {n}, h = {h:g}")


def knn_bound(
    params: ClassParams, n: int, kappa: int, neighbor_const: float | None = None
) -> float:
    """Uniform risk bound for kappa-nearest-neighbor weights.

    For k = 1 the neighbor-distance constant 8 is built in, and a given one
    raises ValueError; for k >= 2 the positive constant depends on the
    dimension and must be supplied by the caller (there is no safe default).
    """
    n, kappa = _whole_number(n, "n"), _whole_number(kappa, "kappa")
    if not 1 <= kappa <= n:
        raise ValueError("need 1 <= kappa <= n")
    _require_constant(neighbor_const, "neighbor constant")
    hh, ll, mm, k = params.holder, params.lipschitz, params.dispersion, params.dim
    ratio = kappa / n
    if k == 1:
        if neighbor_const is not None:
            raise ValueError("neighbor_const is not read at dimension k = 1, where 8 is built in")
        bias = ll * 8.0 ** (hh / 2.0) * ratio ** (hh / 2.0)
    else:
        if neighbor_const is None:
            raise ValueError("neighbor_const is required for dimension k >= 2")
        bias = ll * float(neighbor_const) ** (hh / 2.0) * ratio ** (hh / k)
    return _require_finite_bound(bias + mm / math.sqrt(kappa), f"n = {n}, kappa = {kappa}")


@dataclass(frozen=True)
class RateInfo:
    """Optimal risk exponent with the schedules that attain it."""

    exponent: float
    knn_exponent: float
    knn_attains_rate: bool
    kernel_schedule: BandwidthPowerSchedule
    knn_schedule: NeighborPowerSchedule


def minimax_rate(params: ClassParams) -> RateInfo:
    """Best attainable worst-case risk order n^exponent over the class.

    Kernel weights with bandwidth n^(-1/(2H+k)) (``kernel_schedule``)
    attain the exponent -H/(2H+k) in every dimension; neighbor weights with
    kappa = ceil(n^(H/(H+k/2))) (``knn_schedule``, n^(H/(H+1)) at k = 1)
    attain it only for k >= 2, dropping to -H/(2H+2) at k = 1.
    """
    hh, k = params.holder, params.dim
    exponent = -hh / (2.0 * hh + k)
    knn_exponent = -hh / (2.0 * hh + 2.0) if k == 1 else exponent
    knn_power = hh / (hh + 1.0) if k == 1 else hh / (hh + k / 2.0)
    return RateInfo(
        exponent=exponent,
        knn_exponent=knn_exponent,
        knn_attains_rate=k >= 2,
        kernel_schedule=BandwidthPowerSchedule(1.0, -1.0 / (2.0 * hh + k)),
        knn_schedule=NeighborPowerSchedule(1.0, knn_power),
    )


__all__ = [
    "ClassParams",
    "BoundReport",
    "effective_sample_size",
    "pointwise_risk_bound",
    "covering_constant",
    "kernel_bound",
    "knn_bound",
    "RateInfo",
    "minimax_rate",
]
