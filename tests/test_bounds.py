import math

import numpy as np
import pytest

from distreg import (
    ClassParams,
    KernelScheme,
    KnnScheme,
    effective_sample_size,
    fit,
    kernel_bound,
    knn_bound,
    knn_weights,
    minimax_rate,
    pointwise_risk_bound,
    w1_cdf,
)
from distreg.regressor import Dataset, predict_distribution, weights_at
from distreg.synth import make_preset


def params_k(k, holder=1.0, lipschitz=1.0, dispersion=1.0):
    return ClassParams(holder=holder, lipschitz=lipschitz, dispersion=dispersion, dim=k)


class TestEffectiveSampleSize:
    def test_knn_equals_kappa(self, rng):
        xs = rng.random((40, 2))
        w = knn_weights(KnnScheme(kappa=7), xs, rng.random(2))
        assert effective_sample_size(w.values) == pytest.approx(7.0, rel=1e-12)

    def test_uniform_weights(self):
        assert effective_sample_size(np.full(25, 1 / 25)) == pytest.approx(25.0)

    def test_single_unit_weight(self):
        assert effective_sample_size(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)


class TestKernelBound:
    def test_covering_constant_is_one_in_dim_one(self):
        # with c_1 = 1 the middle term has no covering inflation
        val_default = kernel_bound(params_k(1), 100, 0.1)
        val_forced = kernel_bound(params_k(1), 100, 0.1, covering_const=1.0)
        assert val_default == val_forced

    def test_term_by_term_example(self):
        n = 10_000
        h = float(n) ** (-1.0 / 3.0)
        # independent term-by-term evaluation
        bias = 1.0 * h**1.0
        sampling = 1.0 * np.sqrt((2.0 + 1.0 / n) * 1.0) / np.sqrt(n * h)
        empty = 1.0 * 1.0 ** (1.0 / 2.0) * 1.0 / (n * h)
        assert kernel_bound(params_k(1), n, h) == pytest.approx(
            bias + sampling + empty, rel=1e-14
        )
        assert bias == pytest.approx(0.0464, abs=2e-4)
        assert sampling == pytest.approx(0.0656, abs=2e-4)

    def test_unimodal_in_bandwidth(self):
        hs = np.logspace(-3, 0, 60)
        vals = [kernel_bound(params_k(1), 4096, h) for h in hs]
        diffs = np.sign(np.diff(vals))
        # decreasing then increasing: at most one sign change
        changes = np.sum(diffs[:-1] != diffs[1:])
        assert changes <= 1
        assert vals[0] > min(vals) < vals[-1]

    def test_dim_two_covering_constant(self):
        # c_2 = 2 by default
        v = kernel_bound(params_k(2), 1000, 0.2)
        v2 = kernel_bound(params_k(2), 1000, 0.2, covering_const=2.0)
        assert v == v2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kernel_bound(params_k(1), 0, 0.1)
        with pytest.raises(ValueError):
            kernel_bound(params_k(1), 10, 0.0)


class TestKnnBound:
    def test_frozen_example(self):
        # k=1, H=1, L=M=1, n=1e4, kappa=100: sqrt(8)*0.1 + 0.1
        val = knn_bound(params_k(1), 10_000, 100)
        assert val == pytest.approx(np.sqrt(8.0) * 0.1 + 0.1, rel=1e-14)
        assert val == pytest.approx(0.38284, abs=1e-5)

    def test_full_sample(self):
        n = 500
        val = knn_bound(params_k(1), n, n)
        assert val == pytest.approx(np.sqrt(8.0) + n**-0.5, rel=1e-14)

    def test_requires_neighbor_const_for_higher_dim(self):
        with pytest.raises(ValueError, match="neighbor_const"):
            knn_bound(params_k(2), 100, 10)
        assert knn_bound(params_k(2), 100, 10, neighbor_const=4.0) > 0

    def test_neighbor_const_is_rejected_in_dim1(self):
        # k = 1 has the constant 8 built in, so a given one would be dropped
        with pytest.raises(ValueError, match="k = 1"):
            knn_bound(params_k(1), 100, 10, neighbor_const=4.0)

    def test_estimation_term_matches_effective_sample_size(self, rng):
        params = params_k(1, dispersion=1.3)
        xs = rng.random((50, 1))
        kappa = 9
        w = knn_weights(KnnScheme(kappa=kappa), xs, rng.random(1))
        est_term = params.dispersion * effective_sample_size(w.values) ** -0.5
        full = knn_bound(params, 50, kappa)
        bias = params.lipschitz * np.sqrt(8.0) * np.sqrt(kappa / 50)
        assert full - bias == pytest.approx(est_term, rel=1e-12)

    def test_minimized_near_theoretical_schedule(self):
        # for k >= 2 the optimum sits near kappa ~ (n / c)^{H/(H+k/2)}
        n, c = 10**6, 4.0
        params = params_k(2)
        kappas = np.unique(np.round(np.logspace(0.5, 5.5, 300)).astype(int))
        vals = [knn_bound(params, n, int(k), neighbor_const=c) for k in kappas]
        best = kappas[int(np.argmin(vals))]
        target = (n / c) ** 0.5
        assert target / 2 <= best <= target * 2

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            knn_bound(params_k(1), 10, 0)
        with pytest.raises(ValueError):
            knn_bound(params_k(1), 10, 11)


class TestMinimaxRate:
    @pytest.mark.parametrize(
        "holder,k,expected",
        [(1.0, 1, -1 / 3), (1.0, 2, -0.25), (0.5, 1, -0.25)],
    )
    def test_exponent(self, holder, k, expected):
        info = minimax_rate(params_k(k, holder=holder))
        assert info.exponent == pytest.approx(expected)

    def test_knn_suboptimal_in_dim_one(self):
        info = minimax_rate(params_k(1))
        assert not info.knn_attains_rate
        assert info.knn_exponent == pytest.approx(-0.25)
        info2 = minimax_rate(params_k(2))
        assert info2.knn_attains_rate
        assert info2.knn_exponent == info2.exponent

    def test_schedules(self):
        info = minimax_rate(params_k(1))
        assert info.kernel_schedule(1000) == pytest.approx(1000 ** (-1 / 3))
        assert info.kernel_schedule.family == "kernel"
        info2 = minimax_rate(params_k(2))
        assert info2.knn_schedule(10_000) == int(np.ceil(10_000**0.5))
        assert 1 <= info2.knn_schedule(1) <= 1
        assert info2.knn_schedule.scheme(10_000) == KnnScheme(kappa=100)

    @pytest.mark.parametrize("holder", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_schedules_equal_the_closed_forms_they_replaced(self, holder, k):
        # the former RateInfo.kernel_bandwidth and knn_neighbors, as written
        def kernel_bandwidth(n):
            return float(n) ** (-1.0 / (2.0 * holder + k))

        def knn_neighbors(n):
            power = holder / (holder + 1.0) if k == 1 else holder / (holder + k / 2.0)
            return max(1, min(n, math.ceil(float(n) ** power)))

        info = minimax_rate(params_k(k, holder=holder))
        edges = [m * 2**e + d for e in range(31) for m in (1, 3) for d in (-1, 0, 1)]
        drawn = np.random.default_rng(k).integers(1, 2**31, size=500).tolist()
        for n in sorted({*range(1, 2049), *edges, *drawn, 2**31} - {0}):
            assert info.kernel_schedule(n).hex() == kernel_bandwidth(n).hex()
            kappa = info.knn_schedule(n)
            assert type(kappa) is int and kappa == knn_neighbors(n)

    def test_monotone_in_holder_and_dim(self):
        hs = [0.3, 0.5, 0.8, 1.0]
        exps = [minimax_rate(params_k(1, holder=h)).exponent for h in hs]
        assert all(b < a for a, b in zip(exps, exps[1:]))  # more negative = faster
        ks = [1, 2, 3, 5]
        exps_k = [minimax_rate(params_k(k)).exponent for k in ks]
        assert all(b > a for a, b in zip(exps_k, exps_k[1:]))


class TestPointwiseRiskBound:
    def test_knn_estimation_term(self):
        model = make_preset("binary-k1")
        ds = model.sample(300, seed=5)
        kappa = 25
        reg = fit(ds, KnnScheme(kappa=kappa))
        x = np.array([0.5])
        report = pointwise_risk_bound(reg, model, x)
        assert report.estimation == pytest.approx(
            model.dispersion_at(x) / np.sqrt(kappa), rel=1e-12
        )
        assert report.total == report.approximation + report.estimation

    def test_binary_approximation_term_recomputed(self):
        model = make_preset("binary-k1")
        ds = model.sample(120, seed=6)
        reg = fit(ds, KernelScheme(bandwidth=0.15))
        x = np.array([0.4])
        report = pointwise_risk_bound(reg, model, x)
        w = weights_at(reg, x)
        p_all = model.param_profile(ds.covariates)
        p_x = model.param_profile(x[None, :])[0]
        # points absent from w.indices have weight 0
        oracle = float(w.values @ (2.0 * np.abs(p_all[w.indices] - p_x)))
        assert report.approximation == pytest.approx(oracle, rel=1e-12)

    def test_bound_dominates_conditional_risk(self):
        # condition on one covariate draw, resample responses only
        model = make_preset("binary-k1")
        rng = np.random.default_rng(17)
        n, reps = 200, 300
        xs = rng.random((n, 1))
        p = model.param_profile(xs)
        x = np.array([0.5])
        law = model.conditional_law(x)
        reg0 = fit(Dataset(xs, np.zeros(n)), KnnScheme(kappa=14))
        report = pointwise_risk_bound(reg0, model, x)
        errs = []
        for _ in range(reps):
            ys = np.where(rng.random(n) < p, 2.0, 0.0)
            reg = fit(Dataset(xs, ys), KnnScheme(kappa=14))
            errs.append(w1_cdf(predict_distribution(reg, x), law))
        mean = float(np.mean(errs))
        se = float(np.std(errs, ddof=1) / np.sqrt(reps))
        assert mean - 3 * se <= report.total

    def test_negative_terms_rejected(self):
        from distreg.bounds import BoundReport

        with pytest.raises(ValueError):
            BoundReport(approximation=-0.1, estimation=0.0, x=np.zeros(1), scheme="s")
