import numpy as np
import pytest

from distreg import (
    Dataset,
    KernelScheme,
    KnnScheme,
    dirac,
    fit,
    moment,
    predict_distribution,
    predict_mean,
    w1_cdf,
    w1_vs_analytic,
    wp_quantile,
)
from distreg.regressor import weights_at
from distreg.synth import make_preset


def small_dataset(rng, n=20, k=1, d=1):
    return Dataset(rng.random((n, k)), rng.normal(size=(n, d)))


class TestFit:
    def test_single_observation_predicts_its_response(self, rng):
        ds = Dataset([[0.3]], [[7.0]])
        for scheme in (KnnScheme(kappa=1), KernelScheme(bandwidth=0.1)):
            reg = fit(ds, scheme)
            for x in (0.0, 0.5, 1.0):
                pred = predict_distribution(reg, [x])
                assert pred.support_size == 1
                assert pred.atoms[0, 0] == 7.0

    def test_full_neighborhood_gives_marginal(self, rng):
        ds = small_dataset(rng, n=12)
        reg = fit(ds, KnnScheme(kappa=12))
        marginal = np.sort(ds.responses[:, 0])
        for x in (0.1, 0.9):
            pred = predict_distribution(reg, [x])
            assert np.allclose(pred.xs, marginal)
            assert np.allclose(pred.weights, 1.0 / 12.0)

    def test_deterministic(self, rng):
        ds = small_dataset(rng)
        reg = fit(ds, KernelScheme(bandwidth=0.2))
        p1 = predict_distribution(reg, [0.4])
        p2 = predict_distribution(reg, [0.4])
        assert np.array_equal(p1.atoms, p2.atoms)
        assert np.array_equal(p1.weights, p2.weights)

    def test_kappa_exceeding_n_rejected(self, rng):
        with pytest.raises(ValueError, match="kappa"):
            fit(small_dataset(rng, n=5), KnnScheme(kappa=6))

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset([[0.0]], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 1)), np.empty((0, 1)))

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.0], [np.nan]], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.0], [0.5]], [[1.0], [np.inf]])


class TestPredict:
    def test_binary_responses_collapse_to_two_atoms(self):
        model = make_preset("binary-k1")
        ds = model.sample(200, seed=3)
        reg = fit(ds, KnnScheme(kappa=16))
        x = np.array([0.5])
        pred = predict_distribution(reg, x)
        assert pred.support_size <= 2
        w = weights_at(reg, x)
        p_hat = float(w.values[ds.responses[w.indices, 0] == 2.0].sum())
        if pred.support_size == 2:
            assert pred.weights[1] == pytest.approx(p_hat, abs=1e-12)

    def test_mean_is_weighted_response_sum(self, rng):
        ds = small_dataset(rng, n=30, k=2, d=2)
        reg = fit(ds, KernelScheme(bandwidth=0.6))
        x = rng.random(2)
        w = weights_at(reg, x)
        # scattered into length n: points absent from w.indices weigh 0
        dense = np.zeros(ds.n)
        dense[w.indices] = w.values
        oracle = np.array([float(dense @ ds.responses[:, j]) for j in range(2)])
        assert np.allclose(predict_mean(reg, x), oracle, atol=1e-12)

    def test_mean_of_prediction_equals_predict_mean(self, rng):
        ds = small_dataset(rng, n=25)
        reg = fit(ds, KnnScheme(kappa=7))
        x = rng.random(1)
        pred = predict_distribution(reg, x)
        assert pred.mean()[0] == pytest.approx(predict_mean(reg, x)[0], abs=1e-12)

    def test_distance_to_origin_is_weighted_moment(self, rng):
        ds = small_dataset(rng, n=20)
        reg = fit(ds, KnnScheme(kappa=6))
        for _ in range(5):
            x = rng.random(1)
            pred = predict_distribution(reg, x)
            for p in (1.0, 2.0):
                dist = wp_quantile(pred, dirac(0.0), p)
                assert abs(dist - moment(pred, p)) <= 1e-10

    def test_query_dimension_checked(self, rng):
        reg = fit(small_dataset(rng, k=2), KnnScheme(kappa=3))
        with pytest.raises(ValueError):
            predict_distribution(reg, [0.5])

    def test_mean_gap_bounded_by_w1_binary(self):
        model = make_preset("binary-k1")
        ds = model.sample(400, seed=9)
        reg = fit(ds, KnnScheme(kappa=20))
        for x in ([0.2], [0.5], [0.8]):
            pred = predict_distribution(reg, np.array(x))
            law = model.conditional_law(np.array(x))
            gap = abs(predict_mean(reg, np.array(x))[0] - law.mean()[0])
            assert gap <= w1_cdf(pred, law) + 1e-12

    def test_mean_gap_bounded_by_w1_gaussian(self):
        model = make_preset("gaussian-k1")
        ds = model.sample(400, seed=9)
        reg = fit(ds, KernelScheme(bandwidth=0.1))
        for x in ([0.3], [0.6]):
            pred = predict_distribution(reg, np.array(x))
            law = model.conditional_law(np.array(x))
            gap = abs(predict_mean(reg, np.array(x))[0] - law.mean)
            assert gap <= w1_vs_analytic(pred, law) + 1e-10
