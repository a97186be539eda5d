"""The k-d tree selection against full scans over the sample.

The scans below are the selection rules the index replaces: a stable
argsort of every distance for k-NN, and the closed unit-ball test on every
point for the uniform kernel.  They stay here as the oracle.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import distreg
from distreg import Dataset, KernelScheme, KnnScheme, fit, make_discrete
from distreg.regressor import predict_distribution, predict_many
from distreg.weights import NeighbourIndex, evaluate_weights


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

    def test_dense_weights_are_the_scan_scattered(self, rng):
        xs = rng.integers(0, 5, size=(30, 2)) / 4.0
        q = np.array([0.5, 0.5])
        for scheme, idx in (
            (KnnScheme(kappa=7), scan_knn(xs, q, 7)),
            (KernelScheme(bandwidth=0.5), scan_ball(xs, q, 0.5)),
        ):
            expected = np.zeros(30)
            expected[idx] = 1.0 / idx.shape[0]
            assert np.array_equal(evaluate_weights(scheme, xs, q).values, expected)

    def test_empty_ball_falls_back_to_uniform(self):
        xs = np.array([[0.5], [0.9], [0.95]])
        (w,) = NeighbourIndex(xs).select(KernelScheme(bandwidth=0.01), [[0.0]])
        assert np.array_equal(w.indices, np.arange(3))
        assert np.array_equal(w.values, np.full(3, 1.0 / 3.0))

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


def test_import_leaves_scipy_integrate_and_spatial_unloaded():
    code = (
        "import sys, distreg.cli; "
        "mods = ('scipy.integrate', 'scipy.spatial', 'scipy.special', 'scipy.optimize'); "
        "print([m for m in mods if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(distreg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"
