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

import numpy as np

from ._rng import grid_study, stream
from .measures import _REAL, _row_sums, _whole_count, _whole_number

_STONE_TAG = 83


@dataclass(frozen=True)
class KernelScheme:
    """Bandwidth-h weights of the closed unit-ball kernel: uniform over the
    sample points within distance h of the query."""

    bandwidth: float

    def __post_init__(self):
        if not isinstance(self.bandwidth, _REAL):
            raise ValueError(f"bandwidth must be a real number, got {self.bandwidth!r}")
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
        object.__setattr__(self, "kappa", _whole_count(self.kappa, "kappa"))

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
    ``n_grid``, after the checks that every study makes before it samples.
    Each sample size and both counts must be one whole number."""
    sizes = [_whole_number(n, "n_grid entry") for n in n_grid]
    if not sizes:
        raise ValueError("n_grid must be nonempty")
    if _whole_number(replications, "replications") < 2:
        raise ValueError("need at least 2 replications for standard errors")
    if _whole_number(test_points, "test_points") < 1:
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


# Radii on the sorted line are widened by this factor, so rounding in their
# distances can only add candidates; the exact tests below then decide.
_RADIUS_SLACK = 1.0 + 1e-12
# A radius is also widened by this much: below it squared distances leave
# the normal range, where their square roots lose the relative accuracy
# that the factor above covers.
_LINE_REACH = 1e-150
# k-NN windows and k >= 2 balls are priced a block of queries at a time, so
# that the work arrays of a block hold about this many entries, or one
# query's where those are more, whatever kappa and the number of queries
# are: the entries a window carries and its new flanks, split again before
# every round, or the slab's points for a ball
_WINDOW_ENTRIES = 2**15


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

    The index is the sample sorted by its first coordinate: the argsort
    ``order`` and the covariate columns in that order, one row each of
    ``columns``, whose first row is the sorted ``line``.  A unit ball lies
    in the slab of the line within its radius, one slice, which at k = 1 is
    the ball itself.  The kappa nearest points lie in a window of the line
    that grows until it holds the slab within the kappa-th distance.  The
    index only proposes candidates; membership is decided by the same
    distances, comparisons and smallest-index tie rule as a full scan over
    the sample, so the selected points are exactly those of the scan.
    """

    def __init__(self, covariates):
        self.points = _as_matrix(covariates)
        # every row is put in index order at the end, so ties may come out
        # of the sort in any order
        self.order = np.argsort(self.points[:, 0])
        self.columns = self.points.T[:, self.order]
        self.line = self.columns[0]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def _queries(self, queries) -> np.ndarray:
        """The query points as an (m, k) float array, checked."""
        qs = np.asarray(queries, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.points.shape[1]:
            raise ValueError(
                f"query points must have dimension {self.points.shape[1]}, "
                f"got shape {qs.shape}"
            )
        if not np.all(np.isfinite(qs)):
            raise ValueError("query points must be finite")
        return qs

    def select(self, scheme, queries) -> WeightBatch:
        """Sparse weights of ``scheme`` at each row of ``queries`` (m, k)."""
        qs = self._queries(queries)
        if isinstance(scheme, KnnScheme):
            return self._nearest(scheme.kappa, qs)
        if isinstance(scheme, KernelScheme):
            return self._ball(scheme.bandwidth, qs)
        raise TypeError(f"unsupported scheme type: {type(scheme).__name__}")

    def ball_slices(self, h: float, queries) -> tuple[np.ndarray, np.ndarray]:
        """The closed ball of radius h around each query of a line index, as
        the slice ``order[lo:hi]`` of the sorted sample; an empty ball has
        lo == hi.

        Membership is the scan's test ``‖(q - X)/h‖ <= 1``, which at k = 1
        decides as ``|(q - X)/h| <= 1`` does.  That test is monotone in X
        on each side of q, so the ball is one slice of the widened one,
        whose ends may hold a few points that rounding let in.
        """
        qs = self._queries(queries)
        q, line = qs[:, 0], self.line

        def inside(rows, pos):
            with np.errstate(over="ignore"):
                return np.abs((q[rows] - line[pos]) / h) <= 1.0

        lo, hi = self._reach(qs, h)
        rows = np.flatnonzero(lo < hi)
        rows = rows[~(inside(rows, lo[rows]) & inside(rows, hi[rows] - 1))]
        if rows.shape[0]:
            # the start is the first point at or above q or in the ball, the
            # end the first point above q and outside it
            lo[rows] = _bisect(lambda r, pos: (line[pos] >= q[r]) | inside(r, pos),
                               rows, lo[rows], hi[rows])
            hi[rows] = _bisect(lambda r, pos: (line[pos] > q[r]) & ~inside(r, pos),
                               rows, lo[rows], hi[rows])
        return lo, hi

    def _reach(self, qs: np.ndarray, radii) -> tuple[np.ndarray, np.ndarray]:
        """The slices of the sorted line within a slightly widened radius of
        each query along the first coordinate: every point whose distance
        from the query is within the radius lies in its slice."""
        with np.errstate(over="ignore"):
            reach = radii * _RADIUS_SLACK + _LINE_REACH
            bottom, top = qs[:, 0] - reach, qs[:, 0] + reach
        return (np.searchsorted(self.line, bottom, side="left"),
                np.searchsorted(self.line, top, side="right"))

    def _positions(self, lo, hi) -> np.ndarray:
        """The sorted-line positions of the slices [lo, hi), one slice after
        another."""
        sizes = hi - lo
        # the flat place of each entry, moved from its slice's flat start to
        # the slice's first sorted position
        return np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)

    def slice_indices(self, lo, hi) -> np.ndarray:
        """The sample indices of the sorted-line slices [lo, hi), one slice
        after another."""
        return self.order[self._positions(lo, hi)]

    def _distances(self, q: np.ndarray, pos, scale=1.0) -> np.ndarray:
        """The scan's distances ``‖(q - X)/scale‖`` from the query rows
        ``q`` (..., k) to the points at line positions ``pos``, which
        broadcast against ``q[..., 0]``; nan at a position off the line.  A
        distance whose square overflows is inf, as in the scan."""
        with np.errstate(over="ignore"):
            gaps = [q[..., j] - column.take(pos, mode="clip")
                    for j, column in enumerate(self.columns)]
            for gap in gaps:
                gap /= scale
            dist = _norm(gaps)
        dist[(pos < 0) | (pos >= self.n)] = np.nan
        return dist

    def _ball(self, h: float, qs: np.ndarray) -> WeightBatch:
        """The unit ball: the exact test on every point of the slab within
        h along the first coordinate, a block of queries at a time whose
        slabs hold about ``_WINDOW_ENTRIES`` points together."""
        lo, hi = self._reach(qs, h)
        total = np.concatenate(([0], np.cumsum(hi - lo)))
        rows, cand = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        start = 0
        while start < qs.shape[0]:
            stop = np.searchsorted(total, total[start] + _WINDOW_ENTRIES, side="right") - 1
            stop = max(start + 1, int(stop))
            block_rows = start + _slice_rows(lo[start:stop], hi[start:stop])
            pos = self._positions(lo[start:stop], hi[start:stop])
            inside = self._distances(qs[block_rows], pos, h) <= 1.0
            rows.append(block_rows[inside])
            cand.append(self.order[pos[inside]])
            start = stop
        return self._batch(qs.shape[0], np.concatenate(rows), np.concatenate(cand))

    def _nearest(self, kappa: int, qs: np.ndarray) -> WeightBatch:
        """The kappa nearest points to each query, from a window of the line.

        A row's window is the positions [c - w, c + w) of the sorted line
        around its query's insertion point c, from w = kappa.  Each round
        takes the kappa-th distance r over the entries that the row carries,
        which are the window's points within the last round's r and the
        flanks just priced, and then carries only the entries within r.
        Once the window holds the slice of the line within r (``_reach``),
        every point outside it is farther than r, so the row's entries are
        every point within r, of which it keeps the kappa nearest
        (``_closest``).  Otherwise w doubles, and the row prices the new
        flanks [c - 2w, c - w) and [c + w, c + 2w).  Entries are kept in
        (row, slot) arrays, padded with nan distances, which
        ``np.partition`` puts last and no radius holds.  Before every round
        the rows are split into blocks (``_blocks``), so that the arrays of
        a round hold about ``_WINDOW_ENTRIES`` entries however wide the
        windows grow.
        """
        if kappa > self.n:
            raise ValueError(f"kappa = {kappa} exceeds sample size n = {self.n}")
        m = qs.shape[0]
        mid = np.searchsorted(self.line, qs[:, 0])
        rows, cand = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        pending = _blocks(np.arange(m), 0, kappa, np.zeros((m, 0), dtype=np.intp), np.zeros((m, 0)))
        while pending:
            live, old, half, pos, dist = pending.pop()
            # the new flanks [c - half, c - old) and [c + old, c + half)
            flanks = mid[live, None] + np.concatenate((np.arange(-half, -old),
                                                       np.arange(old, half)))
            pos = np.concatenate((pos, flanks), axis=1)
            dist = np.concatenate((dist, self._distances(qs[live, None], flanks)), axis=1)
            kth = np.partition(dist, kappa - 1, axis=1)[:, kappa - 1]
            bottom, top = self._reach(qs[live], kth)
            done = (mid[live] - half <= bottom) & (top <= mid[live] + half)
            within = dist <= kth[:, None]
            if done.any():
                row, point = self._closest(kappa, kth[done], pos[done], dist[done], within[done])
                rows.append(live[done][row])
                cand.append(point)
            if done.all():
                continue
            live, pos, dist, within = live[~done], pos[~done], dist[~done], within[~done]
            # the entries within r, moved to the front of their rows
            flat = np.flatnonzero(within)
            count = np.count_nonzero(within, axis=1)
            carried = np.zeros((live.shape[0], count.max()), dtype=np.intp)
            slot = np.arange(flat.shape[0]) + np.repeat(
                np.arange(live.shape[0]) * carried.shape[1] - np.cumsum(count) + count, count
            )
            carried.reshape(-1)[slot] = pos.reshape(-1)[flat]
            carried_dist = np.full(carried.shape, np.nan)
            carried_dist.reshape(-1)[slot] = dist.reshape(-1)[flat]
            pending += _blocks(live, half, 2 * half, carried, carried_dist)
        return self._batch(m, np.concatenate(rows), np.concatenate(cand))

    def _closest(self, kappa: int, kth, pos, dist, within) -> tuple[np.ndarray, np.ndarray]:
        """Flat (row, sample index) pairs of the kappa nearest points of
        each row, whose entries ``within`` its kappa-th distance ``kth`` are
        every point within it: the points strictly within, and of those at
        it, the smallest sample indices."""
        n, m = self.n, kth.shape[0]
        flat = np.flatnonzero(within)
        rows, pos, dist = flat // within.shape[1], pos.reshape(-1)[flat], dist.reshape(-1)[flat]
        inner = dist < kth[rows]
        # the ties at r in (row, sample index) order, the first few of each row
        keys = rows[~inner] * n + self.order[pos[~inner]]
        keys.sort()
        ties = np.bincount(keys // n, minlength=m)
        rank = np.arange(keys.shape[0]) - np.repeat(np.cumsum(ties) - ties, ties)
        keys = keys[rank < kappa - np.bincount(rows[inner], minlength=m)[keys // n]]
        return (np.concatenate((rows[inner], keys // n)),
                np.concatenate((self.order[pos[inner]], keys % n)))

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


def _slice_rows(lo, hi) -> np.ndarray:
    """The row of each entry of the slices [lo, hi), one slice after another."""
    return np.repeat(np.arange(lo.shape[0]), hi - lo)


def _blocks(live, old: int, half: int, pos, dist) -> list:
    """The next window round of the rows ``live``, which carry the entries
    ``pos`` and ``dist`` and price the flanks from ``old`` to ``half``
    next, as blocks of rows whose round holds about ``_WINDOW_ENTRIES``
    entries, or one row's."""
    step = max(1, _WINDOW_ENTRIES // (pos.shape[1] + 2 * (half - old)))
    return [(live[s : s + step], old, half, pos[s : s + step], dist[s : s + step])
            for s in range(0, live.shape[0], step)]


def _norm(gaps) -> np.ndarray:
    """``np.linalg.norm`` over the last axis of ``np.stack(gaps, axis=-1)``,
    bit for bit, from the k coordinate gaps kept apart.  numpy sums fewer
    than eight squares in order, which is done here a column at a time, and
    more by pairwise blocks, which the stacked call does itself."""
    if len(gaps) >= 8:
        return np.linalg.norm(np.stack(gaps, axis=-1), axis=-1)
    total = gaps[0] * gaps[0]
    for gap in gaps[1:]:
        total += gap * gap
    return np.sqrt(total, out=total)


def _bisect(test, rows, lo, hi) -> np.ndarray:
    """For each of ``rows``, the first position p in [lo, hi) where
    ``test(row, p)`` holds, or hi where it holds nowhere; the test must
    hold on a suffix of each range."""
    lo, hi = lo.copy(), hi.copy()
    live = np.flatnonzero(lo < hi)
    while live.shape[0]:
        mid = (lo[live] + hi[live]) // 2
        hit = test(rows[live], mid)
        hi[live[hit]] = mid[hit]
        lo[live[~hit]] = mid[~hit] + 1
        live = live[lo[live] < hi[live]]
    return lo


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


def _stone_replication(payload) -> list[tuple[float, float]]:
    """Each replication's mean largest weight and mean weight beyond eps
    over fresh test points, from a fresh sample keyed under ``_STONE_TAG``,
    one replication of the payload's grid point at a time."""
    model, scheme, n, test_points, seed, n_idx, reps, eps = payload
    values = []
    for rep in reps:
        ds = model.sample(n, seed=(seed, _STONE_TAG, n_idx, rep, 0))
        queries = stream(seed, _STONE_TAG, n_idx, rep, 1).random((test_points, model.k))
        selected = NeighbourIndex(ds.covariates).select(scheme, queries)
        offsets = selected.offsets
        row_of = np.repeat(np.arange(test_points), np.diff(offsets))
        gaps = ds.covariates[selected.indices] - queries[row_of]
        far = np.linalg.norm(gaps, axis=1) > eps
        far_offsets = np.concatenate(([0], np.cumsum(far)))[offsets]
        # each of a row's m weights is 1/m, so 1/m is also the largest
        values.append((
            float(np.mean(1.0 / np.diff(offsets))),
            float(np.mean(_row_sums(selected.values[far], far_offsets))),
        ))
    return values
