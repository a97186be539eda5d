"""Local probability weight schemes and their consistency diagnostics.

A weight scheme turns a covariate sample and a query point into nonnegative
weights summing to one.  By construction the weights never see the response
values, only the covariates (the X-property), so any scheme built here is a
valid local-averaging scheme.  A schedule maps each sample size n to its
scheme, and :func:`study_grid` lays one out along the n grid of a study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._rng import grid_study, stream
from .measures import _row_sums

_STONE_TAG = 83


@dataclass(frozen=True)
class KernelScheme:
    """Bandwidth-h weights of the closed unit-ball kernel: uniform over the
    sample points within distance h of the query."""

    bandwidth: float

    def __post_init__(self):
        if not 0.0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be positive and finite")

    def describe(self) -> str:
        return f"kernel(uniform, h={self.bandwidth:g})"


@dataclass(frozen=True)
class KnnScheme:
    """Uniform weights over the kappa nearest covariates.

    Distance ties are broken by smallest sample index, which keeps every
    experiment bit-reproducible.
    """

    kappa: int

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")

    def describe(self) -> str:
        return f"knn(kappa={self.kappa})"


# ---------------------------------------------------------------------------
# Schedules (picklable so studies can run in worker processes)


def _power_law(name: str, coef: float, exponent: float, n: int) -> float:
    """coef * n^exponent; a value beyond the double range raises ValueError."""
    try:
        value = coef * float(n) ** exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"schedule {name}(n) = {coef:g} * n^{exponent:g} overflows at n = {n}")
    return value


def _checked(schedule, n: int):
    """``schedule(n)`` for a sample size n >= 1, which must be positive."""
    if n < 1:
        raise ValueError(f"sample sizes must be >= 1, got {n}")
    value = schedule(n)
    if value <= 0:
        raise ValueError(f"schedule is nonpositive at n = {n}")
    return value


@dataclass(frozen=True)
class BandwidthPowerSchedule:
    """Kernel weights of bandwidth h(n) = coef * n^exponent."""

    coef: float = 1.0
    exponent: float = -1.0 / 3.0
    family = "kernel"

    def __call__(self, n: int) -> float:
        return _power_law("h", self.coef, self.exponent, n)

    def scheme(self, n: int) -> KernelScheme:
        """The weights at sample size n, the one place the schedule is checked."""
        return KernelScheme(_checked(self, n))


@dataclass(frozen=True)
class NeighborPowerSchedule:
    """kappa(n)-NN weights, kappa(n) = ceil(coef * n^exponent) capped at n."""

    coef: float = 1.0
    exponent: float = 0.5
    family = "knn"

    def __post_init__(self):
        if not 0 < self.coef < np.inf:
            raise ValueError(f"kappa coefficient must be positive and finite, got {self.coef}")

    def __call__(self, n: int) -> int:
        return min(n, int(np.ceil(_power_law("kappa", self.coef, self.exponent, n))))

    def scheme(self, n: int) -> KnnScheme:
        """The weights at sample size n, the one place the schedule is checked."""
        return KnnScheme(_checked(self, n))


def study_grid(schedule, n_grid, replications: int, test_points: int) -> list:
    """The ``(n_index, n, scheme)`` points of a study of ``schedule`` along
    ``n_grid``, after the checks that every study makes before it samples."""
    sizes = [int(n) for n in n_grid]
    if not sizes:
        raise ValueError("n_grid must be nonempty")
    if replications < 2:
        raise ValueError("need at least 2 replications for standard errors")
    if test_points < 1:
        raise ValueError(f"need at least 1 test point, got {test_points}")
    return [(n_index, n, schedule.scheme(n)) for n_index, n in enumerate(sizes)]


def _as_matrix(covariates) -> np.ndarray:
    arr = np.asarray(covariates, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("covariates must be a nonempty (n, k) array")
    return arr


def _as_row(x) -> np.ndarray:
    """One query point as a one-row array of queries."""
    return np.atleast_1d(np.asarray(x, dtype=float))[None, :]


# Radii handed to the k-d tree or the sorted line are widened by this factor,
# so rounding in their distances can only add candidates; the exact tests
# below then decide.
_RADIUS_SLACK = 1.0 + 1e-12
# On the line a radius is also widened by this much: below it squared
# distances leave the normal range, where their square roots lose the
# relative accuracy that the factor above covers.
_LINE_REACH = 1e-150
# A line radius at or above this is taken as infinite: the squares of
# distances near it overflow to inf, where the scan ties them, so the ball
# takes every point and the exact ranking decides.
_LINE_TOP = np.sqrt(np.finfo(float).max) / 2


@dataclass(frozen=True)
class WeightBatch:
    """Sparse weights at a batch of query points, stored flat.

    Row i has the m ascending sample indices
    ``indices[offsets[i]:offsets[i + 1]]``, each with weight 1/m.
    ``fallback[i]`` marks a row whose scheme selected no point: it holds
    every sample point with weight 1/n.  ``batch[i]`` (or iterating) gives
    row i as a batch of one row, made of views of the flat arrays; the
    weights at a single query point are such a batch.
    """

    indices: np.ndarray
    offsets: np.ndarray
    fallback: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """1/m on each of a row's m points, at the positions of ``indices``."""
        sizes = np.diff(self.offsets)
        return np.repeat(1.0 / sizes, sizes)

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i) -> WeightBatch:
        i = range(len(self))[i]
        start, stop = self.offsets[i], self.offsets[i + 1]
        offsets = np.array([0, stop - start])
        return WeightBatch(self.indices[start:stop], offsets, self.fallback[i : i + 1])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class NeighbourIndex:
    """The covariate sample indexed once, and queried for the support of
    each weight vector.

    For k = 1 covariates the index is the sorted sample (an argsort and the
    sorted values), on which a ball is a slice; for k >= 2 it is a k-d tree
    (Bentley 1975).  Either one only proposes candidates; membership is
    decided by the same numpy distances, comparisons and smallest-index tie
    rule as a full scan over the sample, so the selected points are exactly
    those of the scan.
    """

    def __init__(self, covariates):
        self.points = _as_matrix(covariates)
        self.tree = None
        if self.points.shape[1] == 1:
            # every row is put in index order at the end, so ties may come
            # out of the sort in any order
            self.order = np.argsort(self.points[:, 0])
            self.line = self.points[self.order, 0]
        else:
            from scipy.spatial import cKDTree  # deferred: costs import time otherwise

            # a tree answers a few dozen queries per fit, so the cheaper
            # sliding-midpoint build beats a median-balanced one
            self.tree = cKDTree(self.points, balanced_tree=False, compact_nodes=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def select(self, scheme, queries) -> WeightBatch:
        """Sparse weights of ``scheme`` at each row of ``queries`` (m, k)."""
        qs = np.asarray(queries, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.points.shape[1]:
            raise ValueError(
                f"query points must have dimension {self.points.shape[1]}, "
                f"got shape {qs.shape}"
            )
        if not np.all(np.isfinite(qs)):
            raise ValueError("query points must be finite")
        if isinstance(scheme, KnnScheme):
            return self._nearest(scheme.kappa, qs)
        if isinstance(scheme, KernelScheme):
            return self._ball(scheme.bandwidth, qs)
        raise TypeError(f"unsupported scheme type: {type(scheme).__name__}")

    def _within(self, qs: np.ndarray, radii) -> tuple[np.ndarray, np.ndarray]:
        """Flat (row, sample index) pairs of the points within a slightly
        widened radius of each query."""
        if self.tree is None:
            reach = radii * _RADIUS_SLACK + _LINE_REACH
            with np.errstate(over="ignore"):
                bottom, top = qs[:, 0] - reach, qs[:, 0] + reach
            lo = np.searchsorted(self.line, bottom, side="left")
            sizes = np.searchsorted(self.line, top, side="right") - lo
            rows = np.repeat(np.arange(qs.shape[0]), sizes)
            # the flat place of each entry, moved from its row's flat start
            # to the row's first sorted position
            pos = np.arange(rows.shape[0]) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
            return rows, self.order[pos]
        # the tree cannot search a box whose squared diameter may overflow:
        # every point is then a candidate, as on the line above _LINE_TOP
        with np.errstate(over="ignore"):
            box = np.ptp(np.vstack((self.tree.mins, self.tree.maxes, qs)), axis=0)
            wide = not np.linalg.norm(box) < _LINE_TOP
        if wide:
            return np.divmod(np.arange(qs.shape[0] * self.n), self.n)
        found = self.tree.query_ball_point(qs, radii * _RADIUS_SLACK, return_sorted=False)
        sizes = np.fromiter(map(len, found), np.intp, len(found))
        cand = np.fromiter(chain.from_iterable(found), np.intp, sizes.sum())
        return np.repeat(np.arange(len(found)), sizes), cand

    def _kth_distance(self, kappa: int, qs: np.ndarray) -> np.ndarray:
        """The distance from each query to its kappa-th nearest point."""
        if self.tree is not None:
            return self.tree.query(qs, k=[kappa])[0][:, 0]
        # the kappa nearest points are among the kappa on either side of
        # the insertion point; the window gives their radius, and the ball
        # of that radius the members, ties at the radius included
        width = min(2 * kappa, self.n)
        start = np.searchsorted(self.line, qs[:, 0]) - kappa
        start = np.clip(start, 0, self.n - width)
        window = self.line[start[:, None] + np.arange(width)]
        with np.errstate(over="ignore"):
            dists = np.abs(window - qs)
        kth = np.partition(dists, kappa - 1, axis=1)[:, kappa - 1]
        return np.where(kth < _LINE_TOP, kth, np.inf)

    def _nearest(self, kappa: int, qs: np.ndarray) -> WeightBatch:
        if kappa > self.n:
            raise ValueError(f"kappa = {kappa} exceeds sample size {self.n}")
        rows, cand = self._within(qs, self._kth_distance(kappa, qs))
        with np.errstate(over="ignore"):
            # a distance whose square overflows is inf, as in the scan
            dists = np.linalg.norm(self.points[cand] - qs[rows], axis=1)
        # by row, then distance, then index: the smallest-index tie rule
        order = np.lexsort((cand, dists, rows))
        sizes = np.bincount(rows, minlength=qs.shape[0])
        rank = np.arange(order.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        first = order[rank < kappa]
        return self._batch(qs.shape[0], rows[first], cand[first])

    def _ball(self, h: float, qs: np.ndarray) -> WeightBatch:
        rows, cand = self._within(qs, h)
        with np.errstate(over="ignore"):
            # a distance whose square overflows is inf, as in the scan
            inside = np.linalg.norm((qs[rows] - self.points[cand]) / h, axis=1) <= 1.0
        return self._batch(qs.shape[0], rows[inside], cand[inside])

    def _batch(self, m: int, rows, cand) -> WeightBatch:
        """The selected (row, sample index) pairs as a batch, each row in
        index order; a row with no point falls back to uniform 1/n."""
        n = self.n
        sizes = np.bincount(rows, minlength=m)
        fallback = sizes == 0
        if fallback.any():
            empty = np.flatnonzero(fallback)
            rows = np.concatenate((rows, np.repeat(empty, n)))
            cand = np.concatenate((cand, np.tile(np.arange(n), empty.shape[0])))
            sizes[fallback] = n
        keys = rows * n + cand
        keys.sort()
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        return WeightBatch(keys % n, offsets, fallback)


def evaluate_weights(scheme, covariates, x) -> WeightBatch:
    """Weights of ``scheme`` at one point x over the sample, as a one-row batch."""
    return NeighbourIndex(covariates).select(scheme, _as_row(x))


def kernel_weights(scheme: KernelScheme, covariates, x) -> WeightBatch:
    """Weight 1/m on each of the m covariates within distance h of x.

    When no covariate is that close the weights fall back to uniform 1/n on
    the whole sample, so the output is always a probability vector.
    """
    return evaluate_weights(scheme, covariates, x)


def knn_weights(scheme: KnnScheme, covariates, x) -> WeightBatch:
    """Weight 1/kappa on each of the kappa nearest covariates."""
    return evaluate_weights(scheme, covariates, x)


@dataclass(frozen=True)
class DiagnosticsRow:
    n: int
    max_weight: float
    max_weight_se: float
    far_weight: float
    far_weight_se: float


def stone_diagnostics(
    schedule,
    model,
    n_grid,
    eps: float,
    replications: int,
    seed: int,
    test_points: int = 4,
) -> list[DiagnosticsRow]:
    """Monte-Carlo estimates of the two checkable weight-consistency limits
    of ``schedule``'s weights along ``n_grid``.

    For each sample size the table reports E[max_i W_i(X)] and the expected
    weight mass E[sum_i W_i(X) 1{||X_i - X|| > eps}] placed outside the
    eps-ball, with standard errors over replications.  The replications run
    on :func:`distreg._rng.grid_study` with the streams keyed by
    ``(seed, 83, n index, replication)``, serially.  Both must vanish
    along valid schedules for the local-averaging estimator to be
    universally consistent; the remaining (bounded-operator) condition is
    not estimable from samples and is not diagnosed.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grid = study_grid(schedule, n_grid, replications, test_points)
    stats = grid_study(_stone_replication, model, grid, replications, test_points, seed, eps)
    return [DiagnosticsRow(n, *row) for (_, n, _), row in zip(grid, stats)]


def _stone_replication(payload) -> tuple[float, float]:
    """One replication's mean largest weight and mean weight beyond eps over
    fresh test points, from a fresh sample keyed under ``_STONE_TAG``."""
    model, scheme, n, test_points, seed, n_idx, rep, eps = payload
    ds = model.sample(n, seed=(seed, _STONE_TAG, n_idx, rep, 0))
    queries = stream(seed, _STONE_TAG, n_idx, rep, 1).random((test_points, model.k))
    selected = NeighbourIndex(ds.covariates).select(scheme, queries)
    values, offsets = selected.values, selected.offsets
    row_of = np.repeat(np.arange(test_points), np.diff(offsets))
    gaps = ds.covariates[selected.indices] - queries[row_of]
    far = np.linalg.norm(gaps, axis=1) > eps
    far_offsets = np.concatenate(([0], np.cumsum(far)))[offsets]
    # every row holds at least one point, so no reduceat slice is empty
    return (
        float(np.mean(np.maximum.reduceat(values, offsets[:-1]))),
        float(np.mean(_row_sums(values[far], far_offsets))),
    )
