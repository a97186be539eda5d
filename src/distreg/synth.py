"""Synthetic regression models with analytically known conditional laws.

Covariates are uniform on the unit cube; the conditional response law is
either a two-point (binary) law, a Gaussian or uniform location family, or
an independent Gaussian pair.  Parameter maps are built from affine or
radial-power profiles so every smoothness constant is available in closed
form, and each model exposes its exact pairwise W1 distance, making risk
evaluation free of discretization error, and the true value of each
plug-in functional (``true_functional``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from ._rng import stream
from .bounds import ClassParams
from .functionals import FunctionalSpec, beta_function, evaluate_functional
from .measures import (
    AnalyticDistribution1D,
    DiscreteDistribution,
    MeasureBatch,
    _whole_number,
    dispersion,
    gaussian_law,
    uniform_law,
)
from .regressor import Dataset


@dataclass(frozen=True)
class AffineMap:
    """x -> intercept + coefs . x, the canonical Lipschitz profile."""

    intercept: float
    coefs: tuple[float, ...]

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self.intercept + xs @ np.asarray(self.coefs)


@dataclass(frozen=True)
class RadialPowerMap:
    """x -> offset + scale * ||x - center||^exponent.

    For exponent H in (0, 1] this is H-Hoelder with constant |scale|, since
    t -> t^H is subadditive.
    """

    offset: float
    scale: float
    center: tuple[float, ...]
    exponent: float

    def __post_init__(self):
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError("exponent must lie in (0, 1]")

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        r = np.linalg.norm(xs - np.asarray(self.center)[None, :], axis=1)
        return self.offset + self.scale * r**self.exponent


@lru_cache(maxsize=1)
def _std_gaussian_dispersion() -> float:
    """int sqrt(Phi (1 - Phi)) dz for the standard normal, tails cut at 8."""
    return dispersion(gaussian_law(0.0, 1.0))


def _check_cube_rows(xs, k: int) -> np.ndarray:
    """Query points as the rows of an (m, k) array inside the unit cube."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != k:
        raise ValueError(f"query points must have shape (m, {k}), got {pts.shape}")
    outside = np.any((pts < 0.0) | (pts > 1.0), axis=1)
    if np.any(outside):
        raise ValueError(f"query point {pts[outside][0]} lies outside the unit cube")
    return pts


def _check_cube(x, k: int) -> np.ndarray:
    """One query point of dimension k inside the unit cube."""
    return _check_cube_rows(np.atleast_1d(np.asarray(x, dtype=float))[None, :], k)[0]


class _ModelBase:
    """Shared sampling plumbing; concrete models define the response draw."""

    @property
    def k(self) -> int:
        return self.params.dim

    @property
    def d(self) -> int:
        return 1

    def _covariates(self, n: int, seed) -> tuple[np.ndarray, np.random.Generator]:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        rng = stream(seed)
        return rng.random((n, self.k)), rng

    def w1_many_to(self, xs, x) -> np.ndarray:
        """Vectorized W1(F_{x_i}, F_x) over rows of xs."""
        prof = self.param_profile(np.atleast_2d(np.asarray(xs, dtype=float)))
        ref = self.param_profile(_check_cube(x, self.k)[None, :])
        return self.w1_gap(prof, ref)

    def dispersion_at(self, x) -> float:
        return float(self.dispersion_profile(_check_cube(x, self.k)[None, :])[0])


class _LocationModel(_ModelBase):
    """Y = mean(x) + noise from a fixed centred law, so the quantile, CTE
    and PWM of the conditional law are affine in mean(x)."""

    def param_profile(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.mean(xs), dtype=float)

    def w1_gap(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # W1 of a pure location shift is the shift size.
        return np.abs(a - b)

    def conditional_laws(self, queries) -> tuple[AnalyticDistribution1D, np.ndarray]:
        """The conditional laws at the rows of ``queries`` as one location
        family: the centred law and the shift mean(x) of each row."""
        return self.centred_law(), self.param_profile(_check_cube_rows(queries, self.k))

    def true_functional(self, spec: FunctionalSpec, queries) -> np.ndarray:
        """Closed-form functional of the conditional law at each query row:
        the centred law's value plus the shift, scaled by B(p + 1, q + 1)
        for a PWM."""
        base = evaluate_functional(self.centred_law(), spec)
        coef = beta_function(spec.p + 1, spec.q + 1) if spec.kind == "pwm" else 1.0
        return coef * self.param_profile(queries) + base


@dataclass(frozen=True)
class BinaryModel(_ModelBase):
    """Two-point responses in {0, high_value} with covariate-dependent odds."""

    name: str
    high_value: float
    prob: Callable[[np.ndarray], np.ndarray]
    params: ClassParams

    def __post_init__(self):
        if self.high_value <= 0:
            raise ValueError("high_value must be positive")
        if self.high_value > 4.0 * self.params.dispersion:
            raise ValueError(
                "high_value must not exceed 4x the declared dispersion ceiling"
            )

    def param_profile(self, xs: np.ndarray) -> np.ndarray:
        p = np.asarray(self.prob(xs), dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("success probability left [0, 1]")
        return p

    def w1_gap(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.high_value * np.abs(a - b)

    def dispersion_profile(self, xs: np.ndarray) -> np.ndarray:
        p = self.param_profile(xs)
        return self.high_value * np.sqrt(p * (1.0 - p))

    def sample(self, n: int, seed) -> Dataset:
        xs, rng = self._covariates(n, seed)
        p = self.param_profile(xs)
        ys = np.where(rng.random(n) < p, self.high_value, 0.0)
        return Dataset(xs, ys)

    def conditional_law(self, x) -> DiscreteDistribution:
        return self.conditional_laws(_check_cube(x, self.k)[None, :])[0]

    def conditional_laws(self, queries) -> MeasureBatch:
        """The exact two-point laws at the rows of ``queries`` as one batch;
        an atom of zero weight (p in {0, 1}) is left out."""
        p = self.param_profile(_check_cube_rows(queries, self.k))
        weights = np.column_stack((1.0 - p, p)).reshape(-1)
        keep = weights > 0
        offsets = np.concatenate(([0], np.cumsum(keep.reshape(-1, 2).sum(axis=1))))
        atoms = np.tile([0.0, self.high_value], p.shape[0])
        return MeasureBatch(atoms[keep], weights[keep], offsets)

    def true_functional(self, spec: FunctionalSpec, queries) -> np.ndarray:
        """Plug-in functional of the exact two-point law at each query row."""
        return evaluate_functional(self.conditional_laws(queries), spec)


@dataclass(frozen=True)
class GaussianLocationModel(_LocationModel):
    """Y = mean(x) + sigma * Z with standard normal Z."""

    name: str
    mean: Callable[[np.ndarray], np.ndarray]
    sigma: float
    params: ClassParams

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def dispersion_profile(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(xs)
        return np.full(xs.shape[0], self.sigma * _std_gaussian_dispersion())

    def sample(self, n: int, seed) -> Dataset:
        xs, rng = self._covariates(n, seed)
        ys = self.param_profile(xs) + self.sigma * rng.standard_normal(n)
        return Dataset(xs, ys)

    def centred_law(self) -> AnalyticDistribution1D:
        return gaussian_law(0.0, self.sigma)

    def conditional_law(self, x) -> AnalyticDistribution1D:
        m = float(self.param_profile(_check_cube(x, self.k)[None, :])[0])
        return gaussian_law(m, self.sigma)


@dataclass(frozen=True)
class UniformLocationModel(_LocationModel):
    """Y uniform on [mean(x) - width/2, mean(x) + width/2]."""

    name: str
    mean: Callable[[np.ndarray], np.ndarray]
    width: float
    params: ClassParams

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def dispersion_profile(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(xs)
        return np.full(xs.shape[0], np.pi / 8.0 * self.width)

    def sample(self, n: int, seed) -> Dataset:
        xs, rng = self._covariates(n, seed)
        ys = self.param_profile(xs) + self.width * (rng.random(n) - 0.5)
        return Dataset(xs, ys)

    def centred_law(self) -> AnalyticDistribution1D:
        return uniform_law(-self.width / 2.0, self.width / 2.0)

    def conditional_law(self, x) -> AnalyticDistribution1D:
        m = float(self.param_profile(_check_cube(x, self.k)[None, :])[0])
        return uniform_law(m - self.width / 2.0, m + self.width / 2.0)


@dataclass(frozen=True)
class IndependentGaussianPair(_ModelBase):
    """Two conditionally independent Gaussian components sharing a covariate.

    The conditional covariance between the components is identically zero,
    which gives a free oracle for the covariance plug-in.
    """

    name: str
    mean_first: Callable[[np.ndarray], np.ndarray]
    mean_second: Callable[[np.ndarray], np.ndarray]
    sigma: float
    dim_x: int
    params: ClassParams | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def k(self) -> int:
        return self.dim_x

    @property
    def d(self) -> int:
        return 2

    def sample(self, n: int, seed) -> Dataset:
        xs, rng = self._covariates(n, seed)
        noise = rng.standard_normal((n, 2))
        ys = np.column_stack(
            (
                np.asarray(self.mean_first(xs)) + self.sigma * noise[:, 0],
                np.asarray(self.mean_second(xs)) + self.sigma * noise[:, 1],
            )
        )
        return Dataset(xs, ys)

    def conditional_law(self, x):
        raise ValueError("paired responses have no scalar conditional law")

    def conditional_laws(self, queries):
        raise ValueError("paired responses have no scalar conditional law")

    def true_functional(self, spec: FunctionalSpec, queries) -> np.ndarray:
        if spec.kind == "cov":
            return np.zeros(len(queries))
        raise ValueError(f"no closed-form value for {spec.kind!r} on paired responses")


# ---------------------------------------------------------------------------
# Certification against the declared smoothness class


_CERTIFY_CHUNK = 256  # grid rows paired with the whole grid at a time


@dataclass(frozen=True)
class CertificationReport:
    model: str
    resolution: int
    max_ratio: float
    max_dispersion: float
    declared: ClassParams
    passes: bool

    @property
    def ratio_margin(self) -> float:
        return 1.0 - self.max_ratio

    @property
    def dispersion_margin(self) -> float:
        return 1.0 - self.max_dispersion / self.declared.dispersion


def certify_class(model, resolution: int = 64) -> CertificationReport:
    """Grid check of the declared smoothness class.

    Evaluates W1(F_x, F_x') / (L ||x - x'||^H) over all grid pairs at the
    given per-axis resolution and the dispersion at every grid point, and
    reports the observed maxima.  A failed certification is a report with
    ``passes`` False, not an error.
    """
    params = model.params
    if params is None:
        raise ValueError("model declares no smoothness class")
    resolution = _whole_number(resolution, "resolution")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    # checked before the grid is built, which a huge resolution would not survive
    if (resolution + 1) ** params.dim > 500_000:
        raise ValueError("certification grid too large; lower the resolution")
    axis = np.linspace(0.0, 1.0, resolution + 1)
    grid = np.array(list(product(axis, repeat=params.dim)))
    prof = model.param_profile(grid)
    max_ratio = 0.0
    for start in range(0, grid.shape[0], _CERTIFY_CHUNK):
        stop = min(start + _CERTIFY_CHUNK, grid.shape[0])
        gaps = model.w1_gap(prof[start:stop, None], prof[None, :])
        dists = np.linalg.norm(grid[start:stop, None, :] - grid[None, :, :], axis=2)
        mask = dists > 0
        ratios = gaps[mask] / (params.lipschitz * dists[mask] ** params.holder)
        if ratios.size:
            max_ratio = max(max_ratio, float(ratios.max()))
    max_disp = float(model.dispersion_profile(grid).max())
    passes = max_ratio <= 1.0 and max_disp <= params.dispersion
    return CertificationReport(
        model=model.name,
        resolution=resolution,
        max_ratio=max_ratio,
        max_dispersion=max_disp,
        declared=params,
        passes=passes,
    )


# ---------------------------------------------------------------------------
# Shipped presets


def _lipschitz(dispersion: float, dim: int) -> ClassParams:
    """The class every preset declares: Hoelder exponent 1 and scale 1."""
    return ClassParams(holder=1.0, lipschitz=1.0, dispersion=dispersion, dim=dim)


# p(x) = 1/2 + (L / (2 B)) x1 keeps the binary-k1 W1 ratio at one half of L.
PRESETS: dict[str, Callable[[], object]] = {
    "binary-k1": lambda: BinaryModel(
        "binary-k1", high_value=2.0, prob=AffineMap(0.5, (0.25,)), params=_lipschitz(1.1, 1)
    ),
    "binary-k2": lambda: BinaryModel(
        "binary-k2", high_value=2.0, prob=AffineMap(0.5, (0.125, 0.125)),
        params=_lipschitz(1.1, 2),
    ),
    "gaussian-k1": lambda: GaussianLocationModel(
        "gaussian-k1", mean=AffineMap(0.0, (0.9,)), sigma=0.25, params=_lipschitz(0.45, 1)
    ),
    "uniform-k1": lambda: UniformLocationModel(
        "uniform-k1", mean=AffineMap(0.0, (0.9,)), width=1.0, params=_lipschitz(0.45, 1)
    ),
    "gaussian-pair-k1": lambda: IndependentGaussianPair(
        "gaussian-pair-k1", mean_first=AffineMap(0.1, (0.8,)),
        mean_second=AffineMap(0.9, (-0.8,)), sigma=0.3, dim_x=1,
    ),
}


def make_preset(name: str):
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown model preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
