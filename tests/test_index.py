"""The sorted-line and k-d tree selections against full scans over the
sample.

The scans below are the selection rules the index replaces: a stable
argsort of every distance for k-NN, and the closed unit-ball test on every
point for the uniform kernel.  They stay here as the oracle, also for the
consumers of the sparse weights (``stone_diagnostics`` and
``pointwise_risk_bound``), checked against the scan scattered into dense
length-n weights.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import distreg
from distreg import Dataset, KernelScheme, KnnScheme, fit, make_discrete, pointwise_risk_bound
from distreg._rng import stream
from distreg.regressor import predict_distribution, predict_many
from distreg.synth import make_preset
from distreg.weights import _STONE_TAG, NeighbourIndex, evaluate_weights, stone_diagnostics


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
            assert w.mass is None

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

    def test_boxed_kernel_keeps_positive_values_only(self):
        def tri(u):
            return np.maximum(0.0, 1.0 - np.linalg.norm(u, axis=1))

        scheme = KernelScheme(
            bandwidth=0.5, kind="boxed", kernel=tri, box_constants=(0.5, 1.0, 0.5, 1.0)
        )
        xs = np.array([[0.1], [0.2], [0.9], [0.3]])
        (w,) = NeighbourIndex(xs).select(scheme, [[0.2]])
        assert np.array_equal(w.indices, [0, 1, 3])
        raw = tri((0.2 - xs) / 0.5)
        assert np.allclose(w.values, raw[[0, 1, 3]] / raw.sum(), rtol=1e-15, atol=0)

    def test_rejects_bad_queries(self):
        index = NeighbourIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension"):
            index.select(KnnScheme(kappa=1), [[0.0]])
        with pytest.raises(ValueError, match="finite"):
            index.select(KnnScheme(kappa=1), [[0.0, np.nan]])


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
        assert index.tree is None
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
        boxed = KernelScheme(
            bandwidth=1.0, kind="boxed", kernel=lambda u: np.ones(u.shape[0]),
            box_constants=(1.0, 1.0, 1.0, 1.0),
        )
        for scheme in (KnnScheme(kappa=2), KernelScheme(bandwidth=1.0), boxed):
            batch = index.select(scheme, np.empty((0, k)))
            assert len(batch) == 0 and list(batch) == []
            assert batch.indices.shape == (0,)
            assert np.array_equal(batch.offsets, [0])


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
            if w.mass is None or w.fallback[0]:
                values = np.full(m, 1.0 / m)
            else:
                values = w.mass / w.mass.sum()
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


def tri_kernel(u):
    return np.maximum(0.0, 1.0 - np.linalg.norm(u, axis=1))


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
            scheme, model, n_grid, eps=eps, replications=replications, seed=seed,
            test_points=test_points,
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
        boxed=st.booleans(),
        data=st.data(),
    )
    def test_stone_diagnostics_equals_the_per_query_loop(
        self, seed, name, n_grid, eps, boxed, data
    ):
        model = make_preset(name)
        scheme = data.draw(weight_scheme(min(n_grid)))
        if boxed and isinstance(scheme, KernelScheme):
            scheme = KernelScheme(
                bandwidth=scheme.bandwidth, kind="boxed", kernel=tri_kernel,
                box_constants=(0.5, 1.0, 0.5, 1.0),
            )
        rows = stone_diagnostics(scheme, model, n_grid, eps=eps, replications=3, seed=seed)
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


def test_line_index_leaves_scipy_spatial_unloaded():
    # 1-d covariates are indexed by sorting; only k >= 2 builds a k-d tree
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from distreg import Dataset, KernelScheme, KnnScheme, fit, predict_many\n"
        "xs = np.linspace(0.0, 1.0, 50)\n"
        "for scheme in (KnnScheme(kappa=5), KernelScheme(bandwidth=0.1)):\n"
        "    reg = fit(Dataset(xs, xs**2), scheme)\n"
        "    predict_many(reg, xs[:7, None])\n"
        "print(reg.index.tree, 'scipy.spatial' in sys.modules)\n"
        "reg = fit(Dataset(np.column_stack((xs, xs)), xs), KnnScheme(kappa=5))\n"
        "from scipy.spatial import cKDTree\n"
        "print(isinstance(reg.index.tree, cKDTree))\n"
    )
    assert run_python(code).split("\n") == ["None False", "True"]
