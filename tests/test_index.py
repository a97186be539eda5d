"""The sorted index's selections against full scans over the sample.

Every covariate dimension is indexed by sorting the first coordinate: a
unit ball is read from the slice of that line within its radius (the ball
itself at k = 1, a slab tested point by point at k >= 2), and k-NN from a
window of the line that grows until it holds the slice within the kappa-th
distance.  The scans below are the selection rules the index replaces: a
stable argsort of every distance for k-NN, and the closed unit-ball test on
every point for the uniform kernel.  They stay here as the oracle, also for
the consumers of the sparse weights (``stone_diagnostics`` and
``pointwise_risk_bound``), checked against the scan scattered into dense
length-n weights.  The window's distances are ``np.linalg.norm``'s, bit for
bit, also where squared gaps overflow to inf or underflow, and the pair path
that the line's unit balls replaced stays as ``pair_ball``.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import distreg
from distreg import Dataset, KernelScheme, KnnScheme, fit, make_discrete, pointwise_risk_bound
from distreg.measures import MeasureBatch
from distreg._rng import stream
from distreg.regressor import predict_distribution, predict_many
from distreg.synth import make_preset
from distreg import weights
from distreg.weights import (
    _LINE_REACH,
    _RADIUS_SLACK,
    _STONE_TAG,
    _norm,
    BandwidthPowerSchedule,
    NeighborPowerSchedule,
    NeighbourIndex,
    evaluate_weights,
    stone_diagnostics,
)


def scan_knn(xs, q, kappa):
    dists = np.linalg.norm(xs - q[None, :], axis=1)
    return np.sort(np.argsort(dists, kind="stable")[:kappa])


def scan_ball(xs, q, h):
    inside = np.flatnonzero(np.linalg.norm((q[None, :] - xs) / h, axis=1) <= 1.0)
    return inside if inside.size else np.arange(xs.shape[0])


@st.composite
def grid_sample(draw):
    """Covariates on a 1/8 grid, so distances tie and duplicates occur."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 9, size=(n, k)) / 8.0
    queries = rng.integers(0, 9, size=(6, k)) / 8.0
    # half-grid queries sit exactly between neighbouring covariates
    queries[3:] += rng.integers(0, 2, size=(3, k)) / 16.0
    return xs, queries


class TestSelectionMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(sample=grid_sample(), data=st.data())
    def test_knn(self, sample, data):
        xs, queries = sample
        kappa = data.draw(st.integers(1, xs.shape[0]))
        chosen = NeighbourIndex(xs).select(KnnScheme(kappa=kappa), queries)
        for q, w in zip(queries, chosen):
            assert np.array_equal(w.indices, scan_knn(xs, q, kappa))
            assert np.array_equal(w.values, np.full(kappa, 1.0 / kappa))

    @settings(max_examples=150, deadline=None)
    @given(sample=grid_sample(), eighths=st.integers(1, 12))
    def test_ball_with_points_exactly_h_away(self, sample, eighths):
        xs, queries = sample
        h = eighths / 8.0
        # every grid covariate shifted by h along an axis is exactly h away
        shifted = xs[: min(3, xs.shape[0])].copy()
        shifted[:, 0] += h
        queries = np.vstack([queries, shifted])
        chosen = NeighbourIndex(xs).select(KernelScheme(bandwidth=h), queries)
        for q, w in zip(queries, chosen):
            assert np.array_equal(w.indices, scan_ball(xs, q, h))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200), k=st.integers(1, 3))
    def test_continuous_covariates(self, seed, n, k):
        rng = np.random.default_rng(seed)
        xs = rng.random((n, k))
        queries = rng.random((5, k))
        index = NeighbourIndex(xs)
        kappa = int(rng.integers(1, n + 1))
        h = float(rng.uniform(0.01, 0.5))
        knn = index.select(KnnScheme(kappa=kappa), queries)
        ball = index.select(KernelScheme(bandwidth=h), queries)
        for q, wk, wb in zip(queries, knn, ball):
            assert np.array_equal(wk.indices, scan_knn(xs, q, kappa))
            assert np.array_equal(wb.indices, scan_ball(xs, q, h))

    def test_point_weights_are_the_scan(self, rng):
        xs = rng.integers(0, 5, size=(30, 2)) / 4.0
        q = np.array([0.5, 0.5])
        for scheme, idx in (
            (KnnScheme(kappa=7), scan_knn(xs, q, 7)),
            (KernelScheme(bandwidth=0.5), scan_ball(xs, q, 0.5)),
        ):
            w = evaluate_weights(scheme, xs, q)
            assert np.array_equal(w.indices, idx)
            assert np.array_equal(w.values, np.full(idx.shape[0], 1.0 / idx.shape[0]))

    def test_empty_ball_falls_back_to_uniform(self):
        xs = np.array([[0.5], [0.9], [0.95]])
        (w,) = NeighbourIndex(xs).select(KernelScheme(bandwidth=0.01), [[0.0]])
        assert np.array_equal(w.indices, np.arange(3))
        assert np.array_equal(w.values, np.full(3, 1.0 / 3.0))
        # a row taken from a batch is a one-row batch that keeps its flag
        assert len(w) == 1 and w.fallback.tolist() == [True]

    def test_rejects_bad_queries(self):
        index = NeighbourIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension"):
            index.select(KnnScheme(kappa=1), [[0.0]])
        with pytest.raises(ValueError, match="finite"):
            index.select(KnnScheme(kappa=1), [[0.0, np.nan]])

    @pytest.mark.parametrize("n", [2, 3, 40])
    @pytest.mark.parametrize("k", [2, 3])
    def test_box_whose_squared_diameter_overflows(self, k, n):
        # the sorted index sums squared gaps, which overflow between
        # (1e154, 0) and (-1e154, 0): every point is a candidate, and the
        # scan's distances, inf where their squares overflow, decide
        rng = np.random.default_rng([k, n])
        xs = rng.random((n, k))
        xs[:2, 0] = (1e154, -1e154)
        queries = np.vstack((xs[:2], rng.random((2, k)), np.full((1, k), 1e200)))
        index = NeighbourIndex(xs)
        # selected outside errstate: an overflow in the selection would warn
        chosen = {kappa: index.select(KnnScheme(kappa=kappa), queries)
                  for kappa in sorted({1, 2, n})}
        balls = {h: index.select(KernelScheme(bandwidth=h), queries) for h in (0.5, 1e300)}
        with np.errstate(over="ignore"):
            for kappa, batch in chosen.items():
                for q, w in zip(queries, batch):
                    assert np.array_equal(w.indices, scan_knn(xs, q, kappa))
            for h, batch in balls.items():
                for q, w in zip(queries, batch):
                    assert np.array_equal(w.indices, scan_ball(xs, q, h))

    @pytest.mark.parametrize("k", [1, 2])
    def test_radius_whose_widening_overflows(self, k):
        # the largest double as a numpy scalar: widening it by the slack
        # overflows to an infinite reach, without a warning
        h = np.finfo(float).max
        xs = np.random.default_rng(k).random((6, k))
        queries = xs[:3] + 0.5
        for q, w in zip(queries, NeighbourIndex(xs).select(KernelScheme(bandwidth=h), queries)):
            assert np.array_equal(w.indices, scan_ball(xs, q, h))


@st.composite
def line_sample(draw):
    """1-d covariates on a few levels, so long runs of duplicates sit on both
    sides of a query at equal distance; queries also fall outside the
    sample's range."""
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 9, size=draw(st.integers(1, 4))) / 8.0
    xs = rng.choice(levels, size=(n, 1))
    queries = rng.integers(-8, 17, size=(8, 1)) / 16.0
    return xs, queries


class TestLineIndex:
    @settings(max_examples=200, deadline=None)
    @given(sample=line_sample(), data=st.data())
    def test_knn_with_duplicates_on_both_sides(self, sample, data):
        xs, queries = sample
        kappa = data.draw(st.integers(1, xs.shape[0]))
        index = NeighbourIndex(xs)
        for q, w in zip(queries, index.select(KnnScheme(kappa=kappa), queries)):
            assert np.array_equal(w.indices, scan_knn(xs, q, kappa))

    @settings(max_examples=200, deadline=None)
    @given(sample=line_sample(), eighths=st.integers(1, 12))
    def test_ball_with_duplicates_and_points_exactly_h_away(self, sample, eighths):
        xs, queries = sample
        h = eighths / 8.0
        queries = np.vstack([queries, xs[:3] + h, xs[:3] - h])
        chosen = NeighbourIndex(xs).select(KernelScheme(bandwidth=h), queries)
        for q, w in zip(queries, chosen):
            assert np.array_equal(w.indices, scan_ball(xs, q, h))

    def test_smallest_indices_beyond_a_window_of_two_kappa(self):
        # five ties on each side of 0.5; the smallest indices sit at the far
        # end of the left run, outside the 2 kappa sorted points around 0.5
        xs = np.array([0.25] * 5 + [0.75] * 5)[:, None]
        queries = np.array([[0.5]])
        for kappa in (1, 3, 5, 7, 10):
            (w,) = NeighbourIndex(xs).select(KnnScheme(kappa=kappa), queries)
            assert np.array_equal(w.indices, scan_knn(xs, queries[0], kappa))
        (w,) = NeighbourIndex(xs[::-1]).select(KnnScheme(kappa=3), queries)
        assert np.array_equal(w.indices, [0, 1, 2])

    def test_queries_outside_the_sample_range(self):
        xs = np.array([0.3, 0.1, 0.2, 0.1, 0.4])[:, None]
        queries = np.array([[-5.0], [-0.1], [0.45], [7.0]])
        index = NeighbourIndex(xs)
        for kappa in range(1, 6):
            for q, w in zip(queries, index.select(KnnScheme(kappa=kappa), queries)):
                assert np.array_equal(w.indices, scan_knn(xs, q, kappa))
        for q, w in zip(queries, index.select(KernelScheme(bandwidth=0.2), queries)):
            assert np.array_equal(w.indices, scan_ball(xs, q, 0.2))
        assert index.select(KernelScheme(bandwidth=0.2), queries).fallback.tolist() == [
            True, False, False, True,
        ]

    def test_one_point_and_kappa_equal_to_n(self):
        one = NeighbourIndex([[0.5]])
        for queries in ([[0.5]], [[-1.0], [2.0]]):
            for scheme in (KnnScheme(kappa=1), KernelScheme(bandwidth=0.1)):
                for w in one.select(scheme, queries):
                    assert np.array_equal(w.indices, [0])
        xs = np.array([0.9, 0.1, 0.5, 0.1, 0.7])[:, None]
        for w in NeighbourIndex(xs).select(KnnScheme(kappa=5), [[0.0], [0.5], [3.0]]):
            assert np.array_equal(w.indices, np.arange(5))

    def test_points_exactly_h_away(self):
        xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.25, 0.75])[:, None]
        (w,) = NeighbourIndex(xs).select(KernelScheme(bandwidth=0.25), [[0.5]])
        assert np.array_equal(w.indices, [1, 2, 3, 5, 6])

    def test_distances_whose_squares_underflow(self):
        # every squared distance to 0 below is 0, so the scan ties all three
        # tiny points and keeps the smallest indices, 2e-170 among them
        xs = np.array([2e-170, 0.0, 1e-170, 1.0])[:, None]
        (w,) = NeighbourIndex(xs).select(KnnScheme(kappa=2), [[0.0]])
        assert np.array_equal(w.indices, scan_knn(xs, np.zeros(1), 2))
        assert np.array_equal(w.indices, [0, 1])

    def test_distances_whose_squares_overflow(self):
        # the squared distances from 0 to 3e200 and 1e200 are both inf, so the
        # scan ties them and keeps the smaller index, 3e200
        xs = np.array([3e200, 0.0, 1e200])[:, None]
        (w,) = NeighbourIndex(xs).select(KnnScheme(kappa=2), [[0.0]])
        with np.errstate(over="ignore"):
            assert np.array_equal(w.indices, scan_knn(xs, np.zeros(1), 2))
        assert np.array_equal(w.indices, [0, 1])
        # gaps beyond the double range, and a ball reaching past it
        xs = np.array([1e308, -1e308, 0.0, 1e308])[:, None]
        queries = np.array([[-1e308], [1e308]])
        index = NeighbourIndex(xs)
        for kappa in range(1, 5):
            chosen = index.select(KnnScheme(kappa=kappa), queries)
            with np.errstate(over="ignore"):
                for q, w in zip(queries, chosen):
                    assert np.array_equal(w.indices, scan_knn(xs, q, kappa))
        chosen = index.select(KernelScheme(bandwidth=1e308), queries)
        with np.errstate(over="ignore"):
            for q, w in zip(queries, chosen):
                assert np.array_equal(w.indices, scan_ball(xs, q, 1e308))

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty_query_array(self, k):
        index = NeighbourIndex(np.arange(6.0).reshape(-1, k))
        for scheme in (KnnScheme(kappa=2), KernelScheme(bandwidth=1.0)):
            batch = index.select(scheme, np.empty((0, k)))
            assert len(batch) == 0 and list(batch) == []
            assert batch.indices.shape == (0,)
            assert np.array_equal(batch.offsets, [0])


@st.composite
def scaled_grid(draw):
    """Covariates in k = 1-4 on a 1/8 grid, with ties and duplicates, scaled
    so that gaps are subnormal, squared gaps underflow or overflow, or the
    grid is plain; queries on the grid, between it and outside the sample's
    range; at times the covariates (1e154, 0, ...) and (-1e154, 0, ...),
    whose squared gap overflows at every scale."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-310, 1e-150, 1e150, 1e300]))
    xs = rng.integers(-8, 9, size=(n, k)) / 8.0 * scale
    queries = np.vstack([
        rng.integers(-8, 9, size=(3, k)) / 8.0,
        (rng.integers(-16, 17, size=(3, k)) + 0.5) / 16.0,
        rng.choice([-3.0, 3.0], size=(2, k)),
    ]) * scale
    if n >= 2 and draw(st.booleans()):
        xs[:2] = 0.0
        xs[:2, 0] = (1e154, -1e154)
    return xs, queries


class TestSortedIndexMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(sample=scaled_grid(), data=st.data())
    def test_knn_and_ball(self, sample, data):
        xs, queries = sample
        n, scale = xs.shape[0], np.max(np.abs(queries))
        kappa = data.draw(st.integers(1, n))
        h = data.draw(st.sampled_from([1 / 8, 3 / 8, 1.0, 4.0])) * scale / 3.0
        index = NeighbourIndex(xs)
        # selected outside errstate: an overflow in the selection would warn
        chosen = index.select(KnnScheme(kappa=kappa), queries)
        balls = index.select(KernelScheme(bandwidth=h), queries)
        with np.errstate(over="ignore"):
            for q, w, b in zip(queries, chosen, balls):
                assert np.array_equal(w.indices, scan_knn(xs, q, kappa))
                assert np.array_equal(b.indices, scan_ball(xs, q, h))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_window_distances_have_the_bits_of_linalg_norm(self, k):
        # gaps from 1e-200 to 1e200: squares that underflow to subnormals or
        # 0 and squares that overflow to inf, alone or mixed in one row
        rng = np.random.default_rng(k)
        gaps = rng.normal(size=(3000, k)) * 10.0 ** rng.integers(-200, 201, size=(3000, k))
        gaps[:50] = rng.choice([-1e-200, 1e-200], size=(50, k))
        gaps[50:100] = rng.choice([-1e200, -1e-200, 1e-200, 1e200], size=(50, k))
        with np.errstate(over="ignore"):
            want = np.linalg.norm(gaps, axis=1)
            flat = _norm([gaps[:, j] for j in range(k)])
            dense = _norm([gaps[:, j].reshape(60, 50) for j in range(k)])
        assert np.isinf(want).any() and (want[:50] == 0).all()
        assert flat.tobytes() == want.tobytes()
        assert dense.tobytes() == want.reshape(60, 50).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_of_queries_select_what_one_block_selects(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        xs, queries = rng.integers(0, 9, size=(200, k)) / 8.0, rng.random((50, k))
        index = NeighbourIndex(xs)
        schemes = [KnnScheme(kappa) for kappa in (1, 7, 200)]
        schemes += [KernelScheme(h) for h in (0.01, 0.3, 2.0)]
        whole = [index.select(scheme, queries) for scheme in schemes]
        # a budget below one query's entries prices one query per block
        monkeypatch.setattr(weights, "_WINDOW_ENTRIES", 1)
        for scheme, batch in zip(schemes, whole):
            blocks = index.select(scheme, queries)
            assert np.array_equal(blocks.indices, batch.indices)
            assert np.array_equal(blocks.offsets, batch.offsets)
            assert np.array_equal(blocks.fallback, batch.fallback)
            for q, w in zip(queries, blocks):
                if isinstance(scheme, KnnScheme):
                    assert np.array_equal(w.indices, scan_knn(xs, q, scheme.kappa))
                else:
                    assert np.array_equal(w.indices, scan_ball(xs, q, scheme.bandwidth))

    def test_window_grows_over_a_first_coordinate_that_never_changes(self):
        # every point shares its first coordinate with the query, so the
        # window grows to the whole line before it may stop
        ys = np.random.default_rng(3).random(300)
        xs = np.column_stack((np.full(300, 0.5), ys))
        queries = np.array([[0.5, 0.0], [0.5, 0.37], [0.5, 1.0]])
        for kappa in (1, 5, 300):
            for q, w in zip(queries, NeighbourIndex(xs).select(KnnScheme(kappa), queries)):
                assert np.array_equal(w.indices, scan_knn(xs, q, kappa))

    def test_windows_as_wide_as_the_line_stay_within_the_block_budget(self):
        # a first coordinate that never changes widens every window to the
        # whole line; priced all at once, 1024 such windows take over 100 MB
        rng = np.random.default_rng(4)
        xs = np.column_stack((np.zeros(2048), rng.random(2048)))
        queries = np.column_stack((np.zeros(1024), rng.random(1024)))
        index = NeighbourIndex(xs)
        tracemalloc.start()
        try:
            chosen = index.select(KnnScheme(1), queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        for i in (0, 500, 1023):
            assert np.array_equal(chosen[i].indices, scan_knn(xs, queries[i], 1))


def pair_ball(xs, qs, h):
    """The unit ball on the line as the (row, index) pairs gave it: every
    pair within the widened reach of the sorted line, the norm test on
    each, and one sort of the kept pairs; an empty row falls back to the
    whole sample."""
    n, m = xs.shape[0], qs.shape[0]
    order = np.argsort(xs[:, 0])
    line = xs[order, 0]
    with np.errstate(over="ignore"):
        reach = h * _RADIUS_SLACK + _LINE_REACH
        lo = np.searchsorted(line, qs[:, 0] - reach, side="left")
        sizes = np.searchsorted(line, qs[:, 0] + reach, side="right") - lo
    rows = np.repeat(np.arange(m), sizes)
    cand = order[np.concatenate([np.arange(a, a + b) for a, b in zip(lo, sizes)] + [[]])
                 .astype(np.intp)]
    with np.errstate(over="ignore"):
        inside = np.linalg.norm((qs[rows] - xs[cand]) / h, axis=1) <= 1.0
    rows, cand = rows[inside], cand[inside]
    sizes = np.bincount(rows, minlength=m)
    fallback = sizes == 0
    empty = np.flatnonzero(fallback)
    rows = np.concatenate((rows, np.repeat(empty, n)))
    cand = np.concatenate((cand, np.tile(np.arange(n), empty.shape[0])))
    sizes[fallback] = n
    keys = np.sort(rows * n + cand)
    return keys % n, np.concatenate(([0], np.cumsum(sizes))), fallback


def pair_prediction(ys, indices, offsets):
    """Predictions from the selected indices by one sort of the keys
    row * L + rank, as 1-d responses were counted from the pairs; other
    responses keep every selected one as an atom."""
    sizes = np.diff(offsets)
    if ys.shape[1] != 1:
        return MeasureBatch(ys[indices], np.repeat(1.0 / sizes, sizes), offsets)
    levels, groups = np.unique(ys[:, 0], return_inverse=True)
    width = levels.shape[0]
    keys = np.sort(np.repeat(np.arange(sizes.shape[0]) * width, sizes) + groups[indices])
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(first, append=keys.shape[0])
    keys = keys[first]
    offsets = np.searchsorted(keys, np.arange(sizes.shape[0] + 1) * width)
    return MeasureBatch(levels[keys % width], counts / np.repeat(sizes, np.diff(offsets)),
                        offsets)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the scales of the 1/8 grid: rounding at the ends of a ball, radii near
# _LINE_REACH, subnormal gaps, radii whose squares overflow (above about
# 1.3e154) and gaps that overflow
SCALES = [1.0, 0.1, 3.0, 1e-150, 3e-151, 1e-310, np.sqrt(np.finfo(float).max) / 8, 1e300, 1e308]


@st.composite
def line_balls(draw):
    """1-d covariates on a scaled 1/8 grid with duplicates, queries on the
    grid, between it, exactly h away from points and far away, radii from
    below the grid step (empty balls) to the whole sample, and responses
    with 1, 2 or 3 levels, continuous ones or two columns."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    scale = draw(st.sampled_from(SCALES))
    xs = rng.integers(-8, 9, size=(n, 1)) / 8.0 * scale
    radius = draw(st.sampled_from([1 / 64, 1 / 8, 3 / 8, 1.0, 4.0]) | st.floats(1 / 64, 4.0))
    with np.errstate(over="ignore"):
        h = min(radius * scale, np.finfo(float).max)
        # points h away and one step of rounding either side of that
        rims = np.vstack([xs[:3] + h, xs[:3] - h])
        queries = np.vstack([
            rng.integers(-8, 9, size=(4, 1)) / 8.0 * scale,
            (rng.integers(-16, 17, size=(3, 1)) + 0.5) / 16.0 * scale,
            rims, np.nextafter(rims, np.inf), np.nextafter(rims, -np.inf), [[3.0 * scale]],
        ])
    queries = queries[np.isfinite(queries[:, 0])]
    kind = draw(st.sampled_from(["1", "2", "3", "continuous", "two columns"]))
    if kind == "continuous":
        ys = rng.normal(size=(n, 1))
    elif kind == "two columns":
        ys = rng.integers(0, 2, size=(n, 2)) / 2.0
    else:
        ys = rng.integers(0, int(kind), size=(n, 1)) * 2.0
    return xs, queries, h, ys


class TestBallSlicesEqualThePairs:
    @settings(max_examples=300, deadline=None)
    @given(case=line_balls())
    def test_select_and_predict_many(self, case):
        xs, queries, h, ys = case
        model = fit(Dataset(xs, ys), KernelScheme(bandwidth=h))
        chosen = model.index.select(model.scheme, queries)
        indices, offsets, fallback = pair_ball(xs, queries, h)
        assert same_bits(chosen.indices, indices)
        assert same_bits(chosen.offsets, offsets)
        assert same_bits(chosen.fallback, fallback)
        batch, want = predict_many(model, queries), pair_prediction(ys, indices, offsets)
        for name in ("atoms", "weights", "offsets", "cum_weights"):
            assert same_bits(getattr(batch, name), getattr(want, name)), name

    @pytest.mark.parametrize("levels", [1, 2, 3, 40])
    @pytest.mark.parametrize("h", [0.01, 0.05, 0.3, 2.0])
    def test_prefix_counts_and_the_gather_give_the_pairs(self, levels, h):
        # with 40 queries over 200 points the prefix counts are taken for
        # few levels or wide balls, the gather for many levels in narrow ones
        rng = np.random.default_rng([levels, int(100 * h)])
        xs, queries = rng.random((200, 1)), rng.random((40, 1))
        ys = rng.integers(0, levels, size=(200, 1)) / 4.0
        model = fit(Dataset(xs, ys), KernelScheme(bandwidth=h))
        batch = predict_many(model, queries)
        want = pair_prediction(ys, *pair_ball(xs, queries, h)[:2])
        for name in ("atoms", "weights", "offsets", "cum_weights"):
            assert same_bits(getattr(batch, name), getattr(want, name)), name


def dense_weights(xs, q, scheme):
    """The scan's selection scattered into a length-n vector and normalized,
    as the weights were computed before they were kept sparse."""
    if isinstance(scheme, KnnScheme):
        idx = scan_knn(xs, q, scheme.kappa)
    else:
        idx = scan_ball(xs, q, scheme.bandwidth)
    values = np.zeros(xs.shape[0])
    values[idx] = 1.0 / idx.shape[0]
    return values / values.sum()


def dense_stone_row(scheme, model, n_idx, n, eps, replications, seed, test_points):
    """One row of stone_diagnostics from dense weights over all n points."""
    max_vals, far_vals = np.empty(replications), np.empty(replications)
    for rep in range(replications):
        xs = model.sample(n, seed=(seed, _STONE_TAG, n_idx, rep, 0)).covariates
        queries = stream(seed, _STONE_TAG, n_idx, rep, 1).random((test_points, model.k))
        maxes, fars = [], []
        for q in queries:
            values = dense_weights(xs, q, scheme)
            maxes.append(values.max())
            fars.append(values[np.linalg.norm(xs - q[None, :], axis=1) > eps].sum())
        max_vals[rep], far_vals[rep] = np.mean(maxes), np.mean(fars)
    root = np.sqrt(replications)
    return (max_vals.mean(), max_vals.std(ddof=1) / root,
            far_vals.mean(), far_vals.std(ddof=1) / root)


def loop_stone_row(scheme, model, n_idx, n, eps, replications, seed, test_points):
    """One row of stone_diagnostics by the per-query loop that the flat
    version replaced, with each row's weights normalized on their own."""
    max_vals, far_vals = np.empty(replications), np.empty(replications)
    for rep in range(replications):
        xs = model.sample(n, seed=(seed, _STONE_TAG, n_idx, rep, 0)).covariates
        queries = stream(seed, _STONE_TAG, n_idx, rep, 1).random((test_points, model.k))
        maxes, fars = [], []
        for q, w in zip(queries, NeighbourIndex(xs).select(scheme, queries)):
            m = w.indices.shape[0]
            values = np.full(m, 1.0 / m)
            far = np.linalg.norm(xs[w.indices] - q[None, :], axis=1) > eps
            maxes.append(values.max())
            fars.append(values[far].sum())
        max_vals[rep], far_vals[rep] = np.mean(maxes), np.mean(fars)
    root = np.sqrt(replications)
    return (max_vals.mean(), max_vals.std(ddof=1) / root,
            far_vals.mean(), far_vals.std(ddof=1) / root)


@st.composite
def weight_scheme(draw, n):
    """k-NN, a unit ball, or a ball so small that it is empty (uniform 1/n)."""
    kind = draw(st.sampled_from(["knn", "ball", "empty-ball"]))
    if kind == "knn":
        return KnnScheme(kappa=draw(st.integers(1, n)))
    if kind == "ball":
        return KernelScheme(bandwidth=draw(st.floats(0.02, 0.6)))
    return KernelScheme(bandwidth=1e-9)


def constant_schedule(scheme):
    """The schedule whose scheme is ``scheme`` at every n it is drawn for."""
    if isinstance(scheme, KnnScheme):
        return NeighborPowerSchedule(scheme.kappa, 0)
    return BandwidthPowerSchedule(scheme.bandwidth, 0)


def close(value, oracle, abs_tol=0.0):
    return abs(value - oracle) <= max(1e-12 * abs(oracle), abs_tol)


class TestSparseConsumersMatchDenseWeights:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        name=st.sampled_from(["binary-k1", "binary-k2"]),
        n_grid=st.lists(st.integers(1, 60), min_size=1, max_size=2, unique=True),
        eps=st.floats(0.01, 0.5),
        replications=st.integers(2, 3),
        test_points=st.integers(1, 4),
        data=st.data(),
    )
    def test_stone_diagnostics(self, seed, name, n_grid, eps, replications, test_points, data):
        model = make_preset(name)
        scheme = data.draw(weight_scheme(min(n_grid)))
        rows = stone_diagnostics(
            constant_schedule(scheme), model, n_grid, eps=eps, replications=replications,
            seed=seed, test_points=test_points,
        )
        for n_idx, (n, row) in enumerate(zip(n_grid, rows)):
            max_w, max_se, far_w, far_se = dense_stone_row(
                scheme, model, n_idx, n, eps, replications, seed, test_points
            )
            assert row.n == n
            assert close(row.max_weight, max_w)
            assert close(row.far_weight, far_w)
            # standard errors of (nearly) constant columns are rounding noise
            assert close(row.max_weight_se, max_se, abs_tol=1e-15)
            assert close(row.far_weight_se, far_se, abs_tol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        name=st.sampled_from(["binary-k1", "binary-k2", "gaussian-k1", "uniform-k1"]),
        n_grid=st.lists(st.integers(1, 60), min_size=1, max_size=2, unique=True),
        eps=st.floats(0.01, 0.5),
        data=st.data(),
    )
    def test_stone_diagnostics_equals_the_per_query_loop(self, seed, name, n_grid, eps, data):
        model = make_preset(name)
        scheme = data.draw(weight_scheme(min(n_grid)))
        rows = stone_diagnostics(
            constant_schedule(scheme), model, n_grid, eps=eps, replications=3, seed=seed
        )
        for n_idx, (n, row) in enumerate(zip(n_grid, rows)):
            want = loop_stone_row(scheme, model, n_idx, n, eps, 3, seed, 4)
            got = (row.max_weight, row.max_weight_se, row.far_weight, row.far_weight_se)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        name=st.sampled_from(["binary-k1", "binary-k2", "gaussian-k1"]),
        n=st.integers(1, 80),
        data=st.data(),
    )
    def test_pointwise_risk_bound(self, seed, name, n, data):
        model = make_preset(name)
        ds = model.sample(n, seed=seed)
        scheme = data.draw(weight_scheme(n))
        x = np.random.default_rng(seed).random(model.k)
        report = pointwise_risk_bound(fit(ds, scheme), model, x)
        values = dense_weights(ds.covariates, x, scheme)
        approx = float(values @ model.w1_many_to(ds.covariates, x))
        est = float(model.dispersion_at(x) * np.sqrt(np.sum(values**2)))
        assert close(report.approximation, approx, abs_tol=1e-15)
        assert close(report.estimation, est)
        assert report.scheme == scheme.describe()


class TestPredictMany:
    @settings(max_examples=60, deadline=None)
    @given(sample=grid_sample(), data=st.data())
    def test_equals_one_query_at_a_time(self, sample, data):
        xs, queries = sample
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        d = data.draw(st.integers(1, 2))
        # few distinct responses, so predictions merge tied atoms
        ys = rng.integers(0, 4, size=(xs.shape[0], d)) / 2.0
        kappa = data.draw(st.integers(1, xs.shape[0]))
        for scheme in (KnnScheme(kappa=kappa), KernelScheme(bandwidth=0.25)):
            reg = fit(Dataset(xs, ys), scheme)
            batch = predict_many(reg, queries)
            assert len(batch) == len(queries)
            for q, pred in zip(queries, batch):
                single = predict_distribution(reg, q)
                assert np.array_equal(pred.atoms, single.atoms)
                assert np.array_equal(pred.weights, single.weights)

    @settings(max_examples=60, deadline=None)
    @given(sample=grid_sample(), data=st.data())
    def test_counting_matches_weighted_responses(self, sample, data):
        # the group count for 1-d responses agrees with building the
        # measure from the selected responses and their weights
        xs, queries = sample
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        ys = rng.integers(0, 5, size=xs.shape[0]) / 4.0
        kappa = data.draw(st.integers(1, xs.shape[0]))
        reg = fit(Dataset(xs, ys), KnnScheme(kappa=kappa))
        for q, pred in zip(queries, predict_many(reg, queries)):
            idx = scan_knn(xs, q, kappa)
            ref = make_discrete(ys[idx], np.full(kappa, 1.0 / kappa))
            assert np.array_equal(pred.atoms, ref.atoms)
            # c copies of 1/kappa summed against c / kappa: c rounding steps
            rtol = 64 * np.finfo(float).eps
            assert np.allclose(pred.weights, ref.weights, rtol=rtol, atol=0)



def sorted_rows(pred):
    """Atoms and weights in lexicographic atom order."""
    order = np.lexsort(pred.atoms.T[::-1])
    return pred.atoms[order], pred.weights[order]


class TestPermutationInvariance:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 60),
        k=st.integers(1, 2),
        d=st.integers(1, 2),
    )
    def test_permuting_the_sample_leaves_predictions_unchanged(self, seed, n, k, d):
        rng = np.random.default_rng(seed)
        xs = rng.random((n, k))
        queries = rng.random((5, k))
        # ties at the kappa-th distance go to the smallest index, so only a
        # sample with distinct distances may be reordered freely
        dists = np.linalg.norm(xs[None, :, :] - queries[:, None, :], axis=2)
        assume(all(np.unique(row).size == n for row in dists))
        if d == 1:
            # few distinct responses, so predictions merge tied atoms
            ys = rng.integers(0, 4, size=(n, 1)) / 2.0
        else:
            ys = rng.normal(size=(n, 2))
        perm = rng.permutation(n)
        kappa = int(rng.integers(1, n + 1))
        h = float(rng.uniform(0.05, 0.6))
        for scheme in (KnnScheme(kappa=kappa), KernelScheme(bandwidth=h)):
            preds = predict_many(fit(Dataset(xs, ys), scheme), queries)
            moved = predict_many(fit(Dataset(xs[perm], ys[perm]), scheme), queries)
            for pred, other in zip(preds, moved):
                atoms, weights = sorted_rows(pred)
                other_atoms, other_weights = sorted_rows(other)
                assert np.array_equal(atoms, other_atoms)
                assert np.array_equal(weights, other_weights)


def run_python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(distreg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, check=True, env=env,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_integrate_and_spatial_unloaded():
    code = (
        "import sys, distreg.cli; "
        "mods = ('scipy.integrate', 'scipy.spatial', 'scipy.special', 'scipy.optimize'); "
        "print([m for m in mods if m in sys.modules])"
    )
    assert run_python(code) == "[]"


def test_index_leaves_scipy_spatial_unloaded():
    # every covariate dimension is indexed by sorting its first coordinate
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from distreg import Dataset, KernelScheme, KnnScheme, fit, predict_many\n"
        "from distreg.synth import AffineMap, BinaryModel, make_preset\n"
        "from distreg.bounds import ClassParams\n"
        "from distreg.weights import (BandwidthPowerSchedule, NeighborPowerSchedule,\n"
        "                             NeighbourIndex, stone_diagnostics)\n"
        "models = [make_preset('binary-k1'), make_preset('binary-k2'),\n"
        "          BinaryModel('binary-k3', 2.0, AffineMap(0.5, (0.1, 0.1, 0.1)),\n"
        "                      ClassParams(1.0, 1.0, 1.1, 3))]\n"
        "for model in models:\n"
        "    ds = model.sample(60, seed=1)\n"
        "    queries = np.random.default_rng(2).random((7, model.k))\n"
        "    for scheme in (KnnScheme(kappa=5), KernelScheme(bandwidth=0.2)):\n"
        "        NeighbourIndex(ds.covariates).select(scheme, queries)\n"
        "        predict_many(fit(ds, scheme), queries)\n"
        "    for schedule in (NeighborPowerSchedule(), BandwidthPowerSchedule()):\n"
        "        stone_diagnostics(schedule, model, [16, 32], eps=0.1, replications=2, seed=1)\n"
        "print(sorted({m.k for m in models}), 'scipy.spatial' in sys.modules)\n"
    )
    assert run_python(code) == "[1, 2, 3] False"


def test_batch_prediction_and_cte_leave_numpy_ma_unloaded():
    # rows of several sizes are grouped without np.unique, whose first call
    # imports numpy.ma
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from distreg import (Dataset, FunctionalSpec, KernelScheme, evaluate_functional,\n"
        "                     fit, predict_many)\n"
        "xs = np.linspace(0.0, 1.0, 50)\n"
        "batch = predict_many(fit(Dataset(xs, xs**2), KernelScheme(bandwidth=0.1)), xs[:7, None])\n"
        "evaluate_functional(batch, FunctionalSpec.parse('cte:0.9'))\n"
        "print(len(set(np.diff(batch.offsets).tolist())) > 1, 'numpy.ma' in sys.modules)\n"
    )
    assert run_python(code) == "True False"
