"""Measure batches against the per-measure loop they replace.

Each batch path keeps its single-measure counterpart as the oracle: a
prediction row against the measure built on its own from the scanned
selection, the batch W1 forms against ``w1_cdf`` and ``w1_vs_analytic``
pair by pair, and a model's batch of true laws against its own
``conditional_law``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import (
    Dataset,
    DiscreteDistribution,
    KernelScheme,
    KnnScheme,
    MeasureBatch,
    fit,
    make_discrete,
    make_preset,
    predict_many,
    w1_cdf,
    w1_cdf_batch,
    w1_vs_analytic,
    w1_vs_analytic_batch,
)
from distreg.synth import UniformLocationModel

from test_index import grid_sample, scan_ball, scan_knn


def tri(u):
    return np.maximum(0.0, 1.0 - np.linalg.norm(u, axis=1))


BOXED = dict(kind="boxed", kernel=tri, box_constants=(0.5, 1.0, 0.5, 1.0))


def loop_prediction(xs, ys, scheme, q):
    """The prediction at q built on its own: the scanned selection, then
    count / m on each distinct 1-d response for equal weights, and
    make_discrete of the selected responses otherwise."""
    mass = None
    if isinstance(scheme, KnnScheme):
        idx = scan_knn(xs, q, scheme.kappa)
    elif scheme.kind == "uniform":
        idx = scan_ball(xs, q, scheme.bandwidth)
    else:
        vals = tri((q[None, :] - xs) / scheme.bandwidth)
        idx = np.flatnonzero(vals)
        if idx.size:
            mass = vals[idx]
        else:
            idx = np.arange(xs.shape[0])
    m = idx.shape[0]
    if mass is None and ys.shape[1] == 1:
        levels, counts = np.unique(ys[idx, 0], return_counts=True)
        return DiscreteDistribution(levels[:, None], counts / m)
    weights = np.full(m, 1.0 / m) if mass is None else mass / mass.sum()
    return make_discrete(ys[idx], weights)


def assert_same_measure(got, want):
    assert np.array_equal(got.atoms, want.atoms)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.cum_weights, want.cum_weights)


class TestPredictionRows:
    @settings(max_examples=80, deadline=None)
    @given(sample=grid_sample(), data=st.data())
    def test_rows_equal_the_per_query_measures(self, sample, data):
        xs, queries = sample
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        d = data.draw(st.integers(1, 2))
        # few distinct responses, so 1-d rows merge tied atoms
        ys = rng.integers(0, 4, size=(xs.shape[0], d)) / 2.0
        kappa = data.draw(st.integers(1, xs.shape[0]))
        # small bandwidths leave some balls and kernels empty: the fallback
        h = data.draw(st.sampled_from([0.01, 0.1, 0.25, 0.6]))
        schemes = (
            KnnScheme(kappa=kappa),
            KernelScheme(bandwidth=h),
            KernelScheme(bandwidth=h, **BOXED),
        )
        for scheme in schemes:
            batch = predict_many(fit(Dataset(xs, ys), scheme), queries)
            assert isinstance(batch, MeasureBatch)
            assert len(batch) == len(queries)
            for q, pred in zip(queries, batch):
                assert_same_measure(pred, loop_prediction(xs, ys, scheme, q))

    def test_empty_query_set_gives_an_empty_batch(self):
        xs = np.linspace(0.0, 1.0, 5)[:, None]
        for ys in (xs[:, 0], np.column_stack((xs[:, 0], -xs[:, 0]))):
            reg = fit(Dataset(xs, ys), KnnScheme(kappa=2))
            batch = predict_many(reg, np.empty((0, 1)))
            assert len(batch) == 0 and list(batch) == []


def ragged_batch(rng, rows, grid=False):
    """Random rows of 1-6 atoms; on a coarse grid atoms tie across batches."""
    atoms, weights = [np.empty((0, 1))], [np.empty(0)]
    for m in rng.integers(1, 7, size=rows):
        pts = rng.integers(0, 6, size=m) / 4.0 if grid else rng.normal(size=m)
        w = rng.random(m) + 0.05
        row = make_discrete(pts, w / w.sum())
        atoms.append(row.atoms)
        weights.append(row.weights)
    offsets = np.cumsum([0] + [w.shape[0] for w in weights[1:]])
    return MeasureBatch(np.concatenate(atoms), np.concatenate(weights), offsets)


class TestBatchW1:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(0, 12), grid=st.booleans())
    def test_batch_against_batch_equals_w1_cdf(self, seed, rows, grid):
        rng = np.random.default_rng(seed)
        a, b = ragged_batch(rng, rows, grid=grid), ragged_batch(rng, rows, grid=grid)
        got = w1_cdf_batch(a, b)
        assert got.shape == (rows,)
        for i in range(rows):
            assert got[i] == w1_cdf(a[i], b[i])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        name=st.sampled_from(["binary-k1", "binary-k2", "gaussian-k1", "uniform-k1"]),
        n=st.integers(2, 400),
        knn=st.booleans(),
    )
    def test_model_truths_equal_the_per_query_loop(self, seed, name, n, knn):
        model = make_preset(name)
        rng = np.random.default_rng(seed)
        queries = rng.random((int(rng.integers(1, 20)), model.k))
        if knn:
            scheme = KnnScheme(kappa=int(rng.integers(1, n + 1)))
        else:
            scheme = KernelScheme(bandwidth=float(rng.uniform(0.01, 0.5)))
        preds = predict_many(fit(model.sample(n, seed=seed), scheme), queries)
        laws = model.conditional_laws(queries)
        if isinstance(laws, MeasureBatch):
            got = w1_cdf_batch(preds, laws)
            want = [w1_cdf(p, model.conditional_law(q)) for p, q in zip(preds, queries)]
        else:
            got = w1_vs_analytic_batch(preds, *laws)
            want = [
                w1_vs_analytic(p, model.conditional_law(q))
                for p, q in zip(preds, queries)
            ]
        if isinstance(model, UniformLocationModel):
            # the centred law clips at -w/2, w/2 where the shifted one clips
            # at m - w/2, m + w/2: the same numbers up to rounding
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
        else:
            assert np.array_equal(got, want)

    def test_row_count_mismatch(self):
        one = MeasureBatch([[0.0]], [1.0], [0, 1])
        two = MeasureBatch([[0.0], [1.0]], [1.0, 1.0], [0, 1, 2])
        with pytest.raises(ValueError, match="row count"):
            w1_cdf_batch(one, two)
        law, shifts = make_preset("gaussian-k1").conditional_laws(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="one shift per row"):
            w1_vs_analytic_batch(two, law, shifts)


class TestBinaryLaws:
    @pytest.mark.parametrize("name", ["binary-k1", "binary-k2"])
    def test_rows_equal_conditional_law(self, name, rng):
        model = make_preset(name)
        queries = rng.random((25, model.k))
        for q, law in zip(queries, model.conditional_laws(queries)):
            assert_same_measure(law, model.conditional_law(q))

    def test_certain_outcomes_drop_the_zero_atom(self):
        from test_synth import binary_const

        for p, atom in ((0.0, 0.0), (1.0, 2.0)):
            (law,) = binary_const(p).conditional_laws(np.full((1, 1), 0.5))
            assert law.xs.tolist() == [atom] and law.weights.tolist() == [1.0]

    def test_queries_outside_the_cube(self):
        model = make_preset("binary-k1")
        with pytest.raises(ValueError, match="cube"):
            model.conditional_laws(np.array([[1.5]]))
        with pytest.raises(ValueError, match="shape"):
            model.conditional_laws(np.array([0.5]))
