"""Local probability weight schemes and their consistency diagnostics.

A weight scheme turns a covariate sample and a query point into nonnegative
weights summing to one.  By construction the weights never see the response
values, only the covariates (the X-property), so any scheme built here is a
valid local-averaging scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from ._rng import stream
from .measures import _row_sums

_STONE_TAG = 83


@dataclass(frozen=True)
class KernelScheme:
    """Bandwidth-h kernel weights; default kernel is the closed unit ball.

    A custom kernel must be boxed: sandwiched between m1 * 1{||x|| <= r1}
    and m2 * 1{||x|| <= r2} with m2 >= m1 > 0 and r2 >= r1 > 0.  The box
    constants are declared, not verified pointwise.
    """

    bandwidth: float
    kind: str = "uniform"
    kernel: Callable[[np.ndarray], np.ndarray] | None = None
    box_constants: tuple[float, float, float, float] | None = None  # m1, m2, r1, r2

    def __post_init__(self):
        if not 0.0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be positive and finite")
        if self.kind == "uniform":
            return
        if self.kind != "boxed":
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kernel is None or self.box_constants is None:
            raise ValueError("boxed kernels need a callable and box constants")
        m1, m2, r1, r2 = self.box_constants
        if not (m2 >= m1 > 0 and r2 >= r1 > 0):
            raise ValueError("box constants must satisfy m2 >= m1 > 0, r2 >= r1 > 0")

    def describe(self) -> str:
        return f"kernel({self.kind}, h={self.bandwidth:g})"


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

    Row i has the ascending sample indices
    ``indices[offsets[i]:offsets[i + 1]]`` and, when ``mass`` is not None,
    their unnormalized kernel values at the same positions of ``mass``.
    ``fallback[i]`` marks a row whose scheme put no mass on any point: it
    holds every sample point with weight 1/n (and mass 1).  ``values`` are
    the normalized weights at the same positions.  ``batch[i]`` (or
    iterating) gives row i as a batch of one row, made of views of the flat
    arrays; the weights at a single query point are such a batch.
    """

    indices: np.ndarray
    offsets: np.ndarray
    fallback: np.ndarray
    mass: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """1/m on each of a row's m points, or each point's mass over its
        row's total mass."""
        sizes = np.diff(self.offsets)
        if self.mass is None:
            return np.repeat(1.0 / sizes, sizes)
        return self.mass / np.repeat(_row_sums(self.mass, self.offsets), sizes)

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i) -> WeightBatch:
        i = range(len(self))[i]
        start, stop = self.offsets[i], self.offsets[i + 1]
        mass = None if self.mass is None else self.mass[start:stop]
        offsets = np.array([0, stop - start])
        return WeightBatch(self.indices[start:stop], offsets, self.fallback[i : i + 1], mass)

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
            if scheme.kind == "uniform":
                return self._ball(scheme.bandwidth, qs)
            return self._boxed(scheme, qs)
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
        inside = np.linalg.norm((qs[rows] - self.points[cand]) / h, axis=1) <= 1.0
        return self._batch(qs.shape[0], rows[inside], cand[inside])

    def _boxed(self, scheme: KernelScheme, qs: np.ndarray) -> WeightBatch:
        # the box constants are declared, not verified, so the kernel is
        # evaluated on every point
        rows, cand, mass = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
        for i, q in enumerate(qs):
            scaled = (q[None, :] - self.points) / scheme.bandwidth
            vals = np.asarray(scheme.kernel(scaled), dtype=float).reshape(-1)
            if not np.all(np.isfinite(vals)) or np.any(vals < 0):
                raise ValueError("kernel returned negative or non-finite values")
            support = np.flatnonzero(vals)
            rows.append(np.full(support.shape[0], i))
            cand.append(support)
            mass.append(vals[support])
        return self._batch(
            qs.shape[0], np.concatenate(rows), np.concatenate(cand), np.concatenate(mass)
        )

    def _batch(self, m: int, rows, cand, mass=None) -> WeightBatch:
        """The selected (row, sample index) pairs as a batch, each row in
        index order; a row with no point falls back to uniform 1/n."""
        n = self.n
        sizes = np.bincount(rows, minlength=m)
        fallback = sizes == 0
        if fallback.any():
            empty = np.flatnonzero(fallback)
            rows = np.concatenate((rows, np.repeat(empty, n)))
            cand = np.concatenate((cand, np.tile(np.arange(n), empty.shape[0])))
            if mass is not None:
                mass = np.concatenate((mass, np.ones(empty.shape[0] * n)))
            sizes[fallback] = n
        keys = rows * n + cand
        if mass is None:
            keys.sort()
        else:
            order = np.argsort(keys)
            keys, mass = keys[order], mass[order]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        return WeightBatch(keys % n, offsets, fallback, mass)


def evaluate_weights(scheme, covariates, x) -> WeightBatch:
    """Weights of ``scheme`` at one point x over the sample, as a one-row batch."""
    return NeighbourIndex(covariates).select(scheme, _as_row(x))


def kernel_weights(scheme: KernelScheme, covariates, x) -> WeightBatch:
    """Kernel weights K((x - X_i)/h) normalized by their sum.

    When every kernel value vanishes the weights fall back to uniform 1/n on
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
    scheme_for_n,
    model,
    n_grid,
    eps: float,
    replications: int,
    seed: int,
    test_points: int = 4,
) -> list[DiagnosticsRow]:
    """Monte-Carlo estimates of the two checkable weight-consistency limits.

    For each sample size the table reports E[max_i W_i(X)] and the expected
    weight mass E[sum_i W_i(X) 1{||X_i - X|| > eps}] placed outside the
    eps-ball, with standard errors over replications.  Both must vanish
    along valid schedules for the local-averaging estimator to be
    universally consistent; the remaining (bounded-operator) condition is
    not estimable from samples and is not diagnosed.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if test_points < 1:
        raise ValueError(f"need at least 1 test point, got {test_points}")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if replications < 2:
        raise ValueError("need at least 2 replications for standard errors")
    schemer = scheme_for_n if callable(scheme_for_n) else (lambda _n: scheme_for_n)
    rows = []
    for n_idx, n in enumerate(n_grid):
        scheme = schemer(n)
        max_vals = np.empty(replications)
        far_vals = np.empty(replications)
        for rep in range(replications):
            ds = model.sample(n, seed=(seed, _STONE_TAG, n_idx, rep, 0))
            rng = stream(seed, _STONE_TAG, n_idx, rep, 1)
            queries = rng.random((test_points, model.k))
            selected = NeighbourIndex(ds.covariates).select(scheme, queries)
            values, offsets = selected.values, selected.offsets
            row_of = np.repeat(np.arange(test_points), np.diff(offsets))
            gaps = ds.covariates[selected.indices] - queries[row_of]
            far = np.linalg.norm(gaps, axis=1) > eps
            # every row holds at least one point, so no reduceat slice is empty
            max_vals[rep] = np.mean(np.maximum.reduceat(values, offsets[:-1]))
            far_offsets = np.concatenate(([0], np.cumsum(far)))[offsets]
            far_vals[rep] = np.mean(_row_sums(values[far], far_offsets))
        rows.append(
            DiagnosticsRow(
                n=n,
                max_weight=float(max_vals.mean()),
                max_weight_se=float(max_vals.std(ddof=1) / np.sqrt(replications)),
                far_weight=float(far_vals.mean()),
                far_weight_se=float(far_vals.std(ddof=1) / np.sqrt(replications)),
            )
        )
    return rows
