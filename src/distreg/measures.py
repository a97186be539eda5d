"""Finitely supported probability measures and one-dimensional analytic laws.

Discrete measures come in ragged batches stored flat (:class:`MeasureBatch`),
and a single measure is a batch of one row (:class:`DiscreteDistribution`),
so each row-wise formula serves both.  Atoms and weights are explicit; in one
dimension each row is sorted and carries cumulative weights, which makes CDF
evaluation, generalized-inverse quantiles and the dispersion integral exact
piecewise computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Construction tolerances.  Tiny negative weights are rounding noise and get
# clamped; anything below NEG_TOL is treated as caller error.
NEG_TOL = -1e-15
SUM_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12

DISPERSION_QUAD_TOL = 1e-12

_FIELDS = ("atoms", "weights", "offsets", "cum_weights")  # of a MeasureBatch


def _row_blocks(offsets: np.ndarray):
    """Rows of a ragged flat array grouped by size: for each size m, the
    rows of that size and the (rows, m) block of flat positions they hold."""
    if offsets.shape[0] == 2:  # a single measure: one row, one block
        yield np.zeros(1, dtype=np.intp), np.arange(offsets[0], offsets[1])[None]
        return
    sizes = np.diff(offsets)
    # the distinct sizes in ascending order; np.unique would import numpy.ma
    ordered = np.sort(sizes)
    for m in ordered[np.flatnonzero(np.diff(ordered, prepend=-1))]:
        rows = np.flatnonzero(sizes == m)
        yield rows, offsets[rows, None] + np.arange(m)


def _row_cumsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cumulative sum within each row, bit-identical to np.cumsum per row."""
    out = np.empty_like(values)
    for _, pos in _row_blocks(offsets):
        out[pos] = np.cumsum(values[pos], axis=1)
    return out


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each row, bit-identical to np.sum per row: rows of one size are
    summed as one contiguous 2-d block, which numpy sums pairwise per row
    exactly as it sums a 1-d array of that size."""
    out = np.zeros(offsets.shape[0] - 1)
    for rows, pos in _row_blocks(offsets):
        out[rows] = values[pos].sum(axis=1)
    return out


@dataclass(frozen=True)
class MeasureBatch:
    """A ragged batch of finitely supported measures on R^d, stored flat.

    Row i has the atoms ``atoms[offsets[i]:offsets[i + 1]]`` (shape (m_i, d))
    with the matching ``weights``; ``cum_weights`` holds the cumulative
    weights within each row, its last entry set to exactly 1.  The batch is
    validated once: every row is nonempty, finite and sums to 1, its weights
    are positive, and 1-d rows are strictly increasing.  ``batch[i]`` is row
    i as a :class:`DiscreteDistribution`, a batch of one row (views of the
    flat arrays, not checked again).

    A batch takes over the arrays it is given without copying them, so the
    caller must not write to them afterwards: its builders hand over fresh
    flat arrays, and a copy would double the peak memory of a large
    prediction.
    """

    atoms: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    cum_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        offsets = np.asarray(self.offsets, dtype=np.intp).reshape(-1)
        if atoms.ndim != 2 or atoms.shape[0] != weights.shape[0]:
            raise ValueError(
                f"atom/weight length mismatch: {atoms.shape} vs {weights.shape}"
            )
        sizes = np.diff(offsets)
        if offsets.shape[0] == 0 or offsets[0] != 0 or offsets[-1] != weights.shape[0]:
            raise ValueError("offsets must run from 0 to the number of atoms")
        if np.any(sizes < 1):
            raise ValueError("every row needs at least one atom")
        _require_finite(atoms, weights)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        cum = _row_cumsum(weights, offsets)
        last = offsets[1:] - 1
        if np.any(np.abs(cum[last] - 1.0) > WEIGHT_SUM_TOL):
            raise ValueError("the weights of each row must sum to 1")
        cum[last] = 1.0
        if atoms.shape[1] == 1:
            steps = np.diff(atoms[:, 0])
            steps[last[:-1]] = 1.0  # a step across a row boundary may go down
            if np.any(steps <= 0):
                raise ValueError("1-d rows must be strictly increasing")
        for name, arr in zip(_FIELDS, (atoms, weights, offsets, cum)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The row of each atom."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i) -> DiscreteDistribution:
        i = range(len(self))[i]
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return _unchecked(self.atoms[rows], self.weights[rows], self.cum_weights[rows])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class DiscreteDistribution(MeasureBatch):
    """Finitely supported probability measure on R^d: a batch of one row.

    ``atoms`` has shape (m, d) and ``weights`` shape (m,).  Unlike a
    batch, it copies the arrays it is given, so the caller keeps them
    writable and cannot change the measure through them.  Build it through
    :func:`make_discrete`, which normalizes weights, drops zero-weight atoms
    and, for d = 1, sorts the support and merges duplicate atoms.
    """

    def __init__(self, atoms, weights):
        weights = np.array(weights, dtype=float).reshape(-1)
        atoms = np.atleast_2d(np.array(atoms, dtype=float))
        for name, value in zip(_FIELDS, (atoms, weights, [0, weights.shape[0]])):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def support_size(self) -> int:
        return self.atoms.shape[0]

    @property
    def xs(self) -> np.ndarray:
        """Sorted 1-d support (requires dim == 1)."""
        _require_dim(self)
        return self.atoms[:, 0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms


def _unchecked(atoms, weights, cum_weights) -> DiscreteDistribution:
    """A DiscreteDistribution from read-only arrays that already satisfy
    every check of ``__post_init__``, built without running them again."""
    dist = object.__new__(DiscreteDistribution)
    offsets = np.array([0, weights.shape[0]], dtype=np.intp)
    offsets.setflags(write=False)
    for name, arr in zip(_FIELDS, (atoms, weights, offsets, cum_weights)):
        object.__setattr__(dist, name, arr)
    return dist


def _per_row(values: np.ndarray, *dists):
    """``values``, one per row, as a float when every one of ``dists`` is a
    single DiscreteDistribution, and as they are otherwise."""
    if all(isinstance(dist, DiscreteDistribution) for dist in dists):
        return float(values[0])
    return values


@dataclass(frozen=True)
class AnalyticDistribution1D:
    """Law on R given by its CDF and generalized-inverse quantile function.

    ``window`` is the finite interval (lo, hi) that holds the law's mass up
    to numerically negligible tails; quadrature over the law runs on it.
    ``integrated_cdf`` is the exact antiderivative
    z -> E[(z - Y)+] = int_{-inf}^z F(t) dt; it makes CDF-difference
    integrals closed-form.
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    window: tuple[float, float]
    mean: float
    integrated_cdf: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        lo, hi = self.window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"the window must be finite with lo < hi, got {self.window}")


def make_discrete(atoms, weights) -> DiscreteDistribution:
    """Validated constructor for :class:`DiscreteDistribution`.

    Weights within SUM_TOL of a unit total are renormalized exactly,
    zero-weight atoms are removed, and for d = 1 bitwise-equal atoms are
    merged by summing their weights.
    """
    pts = np.asarray(atoms, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    elif pts.ndim != 2:
        raise ValueError("atoms must be scalars, a vector, or an (m, d) array")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if pts.shape[0] != w.shape[0]:
        raise ValueError(
            f"atom/weight length mismatch: {pts.shape[0]} vs {w.shape[0]}"
        )
    _require_finite(pts, w)
    if np.any(w < NEG_TOL):
        raise ValueError(f"materially negative weight: min = {w.min():.3e}")
    w = np.where(w < 0.0, 0.0, w)
    total = w.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {float(total)!r}, outside tolerance {SUM_TOL}")
    # skip the division when the total is already 1 to rounding: construction
    # stays idempotent, so written measures read back bit-identical
    if abs(total - 1.0) > 1e-13:
        w = w / total
    keep = w > 0.0
    if not np.any(keep):
        raise ValueError("empty support after dropping zero-weight atoms")
    pts, w = pts[keep], w[keep]
    if pts.shape[1] == 1:
        xs = pts[:, 0]
        uniq, inverse = np.unique(xs, return_inverse=True)
        w = np.bincount(inverse, weights=w)
        pts = uniq[:, None]
    # the checks above are those of DiscreteDistribution, so skip its own
    cum = np.cumsum(w)
    cum[-1] = 1.0
    for arr in (pts, w, cum):
        arr.setflags(write=False)
    return _unchecked(pts, w, cum)


def _require_finite(atoms: np.ndarray, weights: np.ndarray) -> None:
    if not np.all(np.isfinite(atoms)):
        raise ValueError("atoms must be finite")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")


def dirac(point) -> DiscreteDistribution:
    """Unit mass at a single point."""
    return make_discrete([point], [1.0])


def _require_dim(dist: MeasureBatch, dim: int = 1, what: str = "operation") -> None:
    if dist.dim != dim:
        raise ValueError(f"{what} requires dim = {dim}, got dim = {dist.dim}")


def cdf_eval(dist: DiscreteDistribution, z):
    """Right-continuous step CDF: total weight of atoms <= z."""
    _require_dim(dist)
    z = np.asarray(z, dtype=float)
    idx = np.searchsorted(dist.xs, z, side="right")
    padded = np.concatenate(([0.0], dist.cum_weights))
    out = padded[idx]
    return float(out) if out.ndim == 0 else out


def quantile_eval(dist: DiscreteDistribution, u):
    """Generalized inverse inf{z : F(z) >= u} for u in (0, 1)."""
    _require_dim(dist)
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    idx = np.searchsorted(dist.cum_weights, u_arr, side="left")
    out = dist.xs[idx]
    return float(out) if out.ndim == 0 else out


def moment(dist: DiscreteDistribution, p: float) -> float:
    """Moment of order p >= 1: (sum_i w_i ||y_i||^p)^(1/p), of the norms
    of :func:`_norms` and summed as :func:`_power_sum` sums."""
    if p < 1:
        raise ValueError("moment order must be >= 1")
    return _power_sum(dist.weights, _norms(dist.atoms), p)[1]


# The smallest normal double.  A power below it is rounded to within 2^-1075,
# half the last bit of any sum at or above it, so only a smaller sum of
# powers has lost digits to underflow.
_POWER_LOW = 2.0**-1022


def _power_sum(masses, gaps, p) -> tuple[float, float]:
    """sum(masses * gaps**p) and its p-th root, for masses summing to at
    most 1.  Where the sum is below ``_POWER_LOW`` it is taken again of the
    gaps scaled by the power of two that brings the largest into [1/2, 1),
    and the root of that sum near 1 is scaled back, which keeps its digits;
    the sum is then the root to the power p."""
    with np.errstate(over="ignore"):
        power = float(np.sum(masses * gaps**p))
    top = gaps.max()
    if not (power < _POWER_LOW and top > 0):
        return power, power ** (1.0 / p)
    shift = int(np.frexp(top)[1])
    root = math.ldexp(float(np.sum(masses * np.ldexp(gaps, -shift) ** p)) ** (1.0 / p), shift)
    return root**p, root


# Below this norm the squares of a vector's entries may be subnormal or 0.
_NORM_LOW = 2.0**-500


def _norms(vectors):
    """Euclidean norms along the last axis of ``vectors``.

    The norm squares each entry.  Where a square overflows, or the norm is
    below ``_NORM_LOW`` so that its squares may leave the normal range, the
    norm of that vector is taken of its entries scaled by the power of two
    of its own largest one, which is exact, and scaled back.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=-1)
        odd = ~((norms >= _NORM_LOW) & (norms < np.inf))
        if odd.any():
            rows = vectors[odd]
            shift = np.frexp(np.abs(rows).max(axis=1))[1]
            norms[odd] = np.ldexp(np.linalg.norm(np.ldexp(rows, -shift[:, None]), axis=1), shift)
    return norms


def dispersion(dist) -> float:
    """The integral of sqrt(F(z)(1 - F(z))) over the real line.

    For a discrete measure this is the exact piecewise sum over support gaps;
    zero iff the measure is a Dirac.  For an analytic law it is computed by
    adaptive quadrature over the law's window to absolute tolerance 1e-12.
    """
    if isinstance(dist, DiscreteDistribution):
        _require_dim(dist)
        xs, cum = dist.xs, dist.cum_weights
        if xs.shape[0] == 1:
            return 0.0
        c = np.clip(cum[:-1], 0.0, 1.0)
        return float(np.sum(np.diff(xs) * np.sqrt(c * (1.0 - c))))
    if isinstance(dist, AnalyticDistribution1D):
        from scipy.integrate import quad

        lo, hi = dist.window
        f = dist.cdf

        def integrand(z):
            fz = float(f(z))
            return np.sqrt(max(fz * (1.0 - fz), 0.0))

        val, _ = quad(integrand, lo, hi, epsabs=DISPERSION_QUAD_TOL, limit=400)
        return float(val)
    raise TypeError(f"unsupported distribution type: {type(dist).__name__}")


# ---------------------------------------------------------------------------
# Analytic law factories


def gaussian_law(mu: float, sigma: float) -> AnalyticDistribution1D:
    """Normal law with closed-form CDF antiderivative; tails cut at 8 sigma."""
    from scipy.special import ndtr, ndtri

    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mu, sigma = float(mu), float(sigma)

    def cdf(z):
        return ndtr((np.asarray(z, dtype=float) - mu) / sigma)

    def quantile(u):
        return mu + sigma * ndtri(np.asarray(u, dtype=float))

    def integrated_cdf(z):
        s = (np.asarray(z, dtype=float) - mu) / sigma
        phi = np.exp(-0.5 * s * s) / np.sqrt(2.0 * np.pi)
        return (np.asarray(z) - mu) * ndtr(s) + sigma * phi

    return AnalyticDistribution1D(
        cdf=cdf,
        quantile=quantile,
        window=(mu - 8.0 * sigma, mu + 8.0 * sigma),
        mean=mu,
        integrated_cdf=integrated_cdf,
    )


def uniform_law(lo: float, hi: float) -> AnalyticDistribution1D:
    """Uniform law on [lo, hi]."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    lo, hi = float(lo), float(hi)
    width = hi - lo

    def cdf(z):
        return np.clip((np.asarray(z, dtype=float) - lo) / width, 0.0, 1.0)

    def quantile(u):
        return lo + width * np.asarray(u, dtype=float)

    def integrated_cdf(z):
        z = np.asarray(z, dtype=float)
        inside = np.clip(z, lo, hi)
        ramp = (inside - lo) ** 2 / (2.0 * width)
        return ramp + np.maximum(z - hi, 0.0)

    return AnalyticDistribution1D(
        cdf=cdf,
        quantile=quantile,
        window=(lo, hi),
        mean=0.5 * (lo + hi),
        integrated_cdf=integrated_cdf,
    )
