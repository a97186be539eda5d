"""Measure batches against the per-measure loop they replace.

Each row-wise path keeps the single-measure code it replaced as the
oracle: a prediction row against the measure built on its own from the
scanned selection, the W1 forms and the functionals against the per-pair
bodies below, and a model's batch of true laws against its own
``conditional_law``.  The single-measure API is the batch path on a batch
of one row, so it is checked against the same bodies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import (
    Dataset,
    DiscreteDistribution,
    FunctionalSpec,
    KernelScheme,
    KnnScheme,
    MeasureBatch,
    cdf_eval,
    covariance_functional,
    evaluate_functional,
    fit,
    gaussian_law,
    make_discrete,
    make_preset,
    predict_many,
    pwm,
    quantile_eval,
    quantile_functional,
    regularized_incomplete_beta,
    tail_expectation,
    uniform_law,
    w1_cdf,
    w1_vs_analytic,
)
from distreg.functionals import beta_function
from distreg.synth import UniformLocationModel

from test_index import grid_sample, scan_ball, scan_knn


# ---------------------------------------------------------------------------
# Per-pair references: the single-measure bodies the row-wise forms replaced


def ref_w1_cdf(a, b):
    grid = np.sort(np.concatenate((a.xs, b.xs)))
    fa = cdf_eval(a, grid[:-1])
    fb = cdf_eval(b, grid[:-1])
    return float(np.sum(np.diff(grid) * np.abs(fa - fb)))


def ref_w1_vs_analytic(dist, law):
    xs, cum = dist.xs, dist.cum_weights
    gc = law.integrated_cdf
    g_at = np.asarray(gc(xs), dtype=float)
    total = float(g_at[0])  # lower tail: int F below the smallest atom
    if xs.shape[0] > 1:
        c = cum[:-1]
        zstar = np.clip(np.asarray(law.quantile(c), dtype=float), xs[:-1], xs[1:])
        g_star = np.asarray(gc(zstar), dtype=float)
        below = c * (zstar - xs[:-1]) - (g_star - g_at[:-1])
        above = (g_at[1:] - g_star) - c * (xs[1:] - zstar)
        total += float(np.sum(below + above))
    # upper tail: int (1 - F) above the largest atom equals E[(Y - z)+]
    total += float(g_at[-1]) - float(xs[-1]) + law.mean
    return total


def ref_quantile(dist, alpha):
    return float(quantile_eval(dist, alpha))


def ref_tail_expectation(dist, alpha):
    cum = dist.cum_weights
    lo = np.maximum(np.concatenate(([0.0], cum[:-1])), alpha)
    lengths = np.maximum(cum - lo, 0.0)
    return float(np.sum(dist.xs * lengths) / (1.0 - alpha))


def ref_pwm(dist, p, q):
    full = beta_function(p + 1.0, q + 1.0)
    upper = full * regularized_incomplete_beta(p + 1.0, q + 1.0, dist.cum_weights)
    lower = np.concatenate(([0.0], upper[:-1]))
    return float(np.sum(dist.xs * (upper - lower)))


def ref_covariance(dist):
    w = dist.weights
    y1, y2 = dist.atoms[:, 0], dist.atoms[:, 1]
    return float(w @ (y1 * y2) - (w @ y1) * (w @ y2))


def bits(values):
    """The bit patterns of doubles, so that 0.0 and -0.0 tell apart."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def as_batch(rows):
    offsets = np.cumsum([0] + [row.support_size for row in rows])
    atoms = np.concatenate([row.atoms for row in rows] or [np.empty((0, 1))])
    weights = np.concatenate([row.weights for row in rows] or [np.empty(0)])
    return MeasureBatch(atoms, weights, offsets)


@st.composite
def line_rows(draw, count):
    """``count`` measures on the line of 1 to 40 atoms.  On the grid, atoms
    tie within and across measures and the weights are multiples of 1/8, so
    cumulative weights hit levels such as 0.25 and 0.5 exactly."""
    seed = draw(st.integers(0, 2**31 - 1))
    grid = draw(st.booleans())
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        m = int(rng.integers(1, 41 if rng.random() < 0.5 else 4))
        if grid:
            atoms = rng.integers(-4, 5, size=m) / 4.0
            w = rng.integers(1, 9, size=m).astype(float)
        else:
            atoms = rng.normal(size=m) * rng.uniform(0.1, 10.0)
            w = rng.random(m) + 0.05
        rows.append(make_discrete(atoms, w / w.sum()))
    return rows


def direct_measure(rng):
    """A measure of three atoms built directly, not through make_discrete."""
    atoms = np.sort(rng.choice(np.arange(-4, 5) / 4.0, size=3, replace=False))
    weights = np.array([0.25, 0.5, 0.25]) if rng.random() < 0.5 else np.array([0.125, 0.125, 0.75])
    return DiscreteDistribution(atoms[:, None], weights)


LEVELS = st.one_of(
    st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.875]), st.floats(1e-6, 1 - 1e-6)
)


class TestRowFormsEqualThePerPairBodies:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), count=st.integers(0, 12), alpha=LEVELS,
           p=st.sampled_from([0.0, 0.5, 1.0, 2.0]), q=st.sampled_from([0.0, 1.0, 3.0]))
    def test_functionals(self, data, count, alpha, p, q):
        rows = data.draw(line_rows(count))
        batch = as_batch(rows)
        for got, ref in (
            (quantile_functional(batch, alpha), [ref_quantile(r, alpha) for r in rows]),
            (tail_expectation(batch, alpha), [ref_tail_expectation(r, alpha) for r in rows]),
            (pwm(batch, p, q), [ref_pwm(r, p, q) for r in rows]),
        ):
            assert isinstance(got, np.ndarray) and bits(got) == bits(ref)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), count=st.integers(0, 12))
    def test_w1_cdf(self, data, count):
        rows_a, rows_b = data.draw(line_rows(count)), data.draw(line_rows(count))
        got = w1_cdf(as_batch(rows_a), as_batch(rows_b))
        assert bits(got) == bits([ref_w1_cdf(a, b) for a, b in zip(rows_a, rows_b)])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), count=st.integers(0, 12), uniform=st.booleans(),
           centre=st.floats(-3.0, 3.0), spread=st.floats(0.05, 5.0))
    def test_w1_vs_analytic(self, data, count, uniform, centre, spread):
        rows = data.draw(line_rows(count))
        law = uniform_law(centre, centre + spread) if uniform else gaussian_law(centre, spread)
        got = w1_vs_analytic(as_batch(rows), law, np.zeros(count))
        assert bits(got) == bits([ref_w1_vs_analytic(r, law) for r in rows])

    def test_a_measure_is_a_batch_of_one_row(self, rng):
        assert issubclass(DiscreteDistribution, MeasureBatch)
        dist = direct_measure(rng)
        assert len(dist) == 1 and dist.offsets.tolist() == [0, 3]
        assert_same_measure(dist[0], dist)
        # an atom of weight 0 is rejected by a measure as by a batch
        zero = np.array([0.25, 0.75, 0.0])
        with pytest.raises(ValueError, match="positive"):
            MeasureBatch(dist.atoms, zero, dist.offsets)
        with pytest.raises(ValueError, match="positive"):
            DiscreteDistribution(dist.atoms, zero)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), alpha=LEVELS, seed=st.integers(0, 2**31 - 1))
    def test_single_measures_are_one_row_batches(self, data, alpha, seed):
        rng = np.random.default_rng(seed)
        a, b = data.draw(line_rows(2))
        for dist in (a, direct_measure(rng)):
            assert bits(w1_cdf(dist, b)) == bits(ref_w1_cdf(dist, b))
            assert bits(w1_cdf(b, dist)) == bits(ref_w1_cdf(b, dist))
            law = gaussian_law(rng.normal(), rng.uniform(0.1, 2.0))
            assert bits(w1_vs_analytic(dist, law)) == bits(ref_w1_vs_analytic(dist, law))
            for got, ref in (
                (quantile_functional(dist, alpha), ref_quantile(dist, alpha)),
                (tail_expectation(dist, alpha), ref_tail_expectation(dist, alpha)),
                (pwm(dist, 1.0, 2.0), ref_pwm(dist, 1.0, 2.0)),
            ):
                assert type(got) is float and bits(got) == bits(ref)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), count=st.integers(2, 8), alpha=LEVELS,
           centre=st.floats(-3.0, 3.0), spread=st.floats(0.05, 5.0))
    def test_a_single_measure_equals_its_row_in_a_batch(self, data, count, alpha, centre,
                                                         spread):
        # a one-row batch takes its own path through the row helpers; each
        # row of a larger batch goes through the grouping by row size
        rows, others = data.draw(line_rows(count)), data.draw(line_rows(count))
        batch, other_batch = as_batch(rows), as_batch(others)
        law = gaussian_law(centre, spread)
        batched = [
            quantile_functional(batch, alpha),
            tail_expectation(batch, alpha),
            pwm(batch, 1.0, 2.0),
            w1_cdf(batch, other_batch),
            w1_cdf(other_batch, batch),
            w1_vs_analytic(batch, law, np.zeros(count)),
        ]
        for i, (row, other) in enumerate(zip(rows, others)):
            single = [
                quantile_functional(row, alpha),
                tail_expectation(row, alpha),
                pwm(row, 1.0, 2.0),
                w1_cdf(row, other),
                w1_cdf(other, row),
                w1_vs_analytic(row, law),
            ]
            assert bits(single) == bits([values[i] for values in batched])
            assert bits(row.cum_weights) == bits(batch[i].cum_weights)

    def test_covariance_within_rounding(self, rng):
        # per row, a BLAS dot product against a pairwise row sum: only the
        # last bits may differ, relative to the size of the summed terms
        rows = [
            make_discrete(rng.normal(size=(m, 2)) * rng.uniform(0.1, 10.0), w / w.sum())
            for m in rng.integers(1, 40, size=300)
            for w in [rng.random(m) + 0.05]
        ]
        got = covariance_functional(as_batch(rows))
        for value, row in zip(got, rows):
            w, (y1, y2) = row.weights, np.abs(row.atoms.T)
            scale = w @ (y1 * y2) + (w @ y1) * (w @ y2)
            assert abs(value - ref_covariance(row)) <= 8 * np.finfo(float).eps * scale
            assert covariance_functional(row) == value

    def test_evaluate_functional_shapes(self):
        rows = [make_discrete([0.0, 1.0], [0.5, 0.5]), make_discrete([2.0], [1.0])]
        spec = FunctionalSpec.parse("quantile:0.75")
        assert evaluate_functional(as_batch(rows), spec).tolist() == [1.0, 2.0]
        assert evaluate_functional(rows[1], spec) == 2.0
        assert evaluate_functional(as_batch([]), spec).shape == (0,)


def tri(u):
    return np.maximum(0.0, 1.0 - np.linalg.norm(u, axis=1))


BOXED = dict(kernel=tri)


def loop_prediction(xs, ys, scheme, q):
    """The prediction at q built on its own: the scanned selection, then
    count / m on each distinct 1-d response for equal weights, and
    make_discrete of the selected responses otherwise."""
    mass = None
    if isinstance(scheme, KnnScheme):
        idx = scan_knn(xs, q, scheme.kappa)
    elif scheme.kernel is None:
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
    measures = []
    for m in rng.integers(1, 7, size=rows):
        pts = rng.integers(0, 6, size=m) / 4.0 if grid else rng.normal(size=m)
        w = rng.random(m) + 0.05
        measures.append(make_discrete(pts, w / w.sum()))
    return as_batch(measures)


class TestBatchW1:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(0, 12), grid=st.booleans())
    def test_batch_against_batch_equals_w1_cdf(self, seed, rows, grid):
        rng = np.random.default_rng(seed)
        a, b = ragged_batch(rng, rows, grid=grid), ragged_batch(rng, rows, grid=grid)
        got = w1_cdf(a, b)
        assert got.shape == (rows,)
        for i in range(rows):
            assert got[i] == ref_w1_cdf(a[i], b[i])

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
            got = w1_cdf(preds, laws)
            want = [ref_w1_cdf(p, model.conditional_law(q)) for p, q in zip(preds, queries)]
        else:
            got = w1_vs_analytic(preds, *laws)
            want = [
                ref_w1_vs_analytic(p, model.conditional_law(q))
                for p, q in zip(preds, queries)
            ]
        if isinstance(model, UniformLocationModel):
            # the centred law clips at -w/2, w/2 where the shifted one clips
            # at m - w/2, m + w/2: the same numbers up to rounding
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
        else:
            assert np.array_equal(got, want)

    def test_a_row_whose_distance_overflows_raises(self):
        a = MeasureBatch([0.0, -1e308], [1.0, 1.0], [0, 1, 2])
        b = MeasureBatch([1.0, 1e308], [1.0, 1.0], [0, 1, 2])
        with pytest.raises(OverflowError, match="too far apart"):
            w1_cdf(a, b)

    def test_zero_rows_give_an_empty_array(self):
        empty = as_batch([])
        for got in (w1_cdf(empty, empty), w1_vs_analytic(empty, gaussian_law(0.0, 1.0))):
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 12))
    def test_omitted_shifts_are_zero(self, seed, rows):
        batch = ragged_batch(np.random.default_rng(seed), rows)
        law = gaussian_law(0.3, 1.7)
        assert bits(w1_vs_analytic(batch, law)) == bits(w1_vs_analytic(batch, law, np.zeros(rows)))

    def test_row_count_mismatch(self):
        one = MeasureBatch([[0.0]], [1.0], [0, 1])
        two = MeasureBatch([[0.0], [1.0]], [1.0, 1.0], [0, 1, 2])
        with pytest.raises(ValueError, match="row count"):
            w1_cdf(one, two)
        law, shifts = make_preset("gaussian-k1").conditional_laws(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="one shift per row"):
            w1_vs_analytic(two, law, shifts)


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
