import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import betainc

from distreg import (
    FunctionalSpec,
    KnnScheme,
    conditional_functional,
    covariance_functional,
    dirac,
    fit,
    gaussian_law,
    make_discrete,
    moment,
    pwm,
    quantile_functional,
    regularized_incomplete_beta,
    tail_expectation,
    uniform_law,
    w1_cdf,
    wp_exact,
)
from distreg.functionals import evaluate_functional
from distreg.synth import make_preset

from conftest import random_discrete


class TestIncompleteBeta:
    def test_matches_scipy_on_grid(self):
        for a in (0.5, 1.0, 2.0, 3.5, 10.0):
            for b in (0.5, 1.0, 2.5, 8.0):
                for x in (0.0, 1e-6, 0.2, 0.5, 0.8, 1 - 1e-6, 1.0):
                    ours = regularized_incomplete_beta(a, b, x)
                    assert ours == pytest.approx(betainc(a, b, x), rel=1e-10, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)

    def test_symmetry_identity(self):
        for x in (0.1, 0.4, 0.7):
            lhs = regularized_incomplete_beta(2.0, 3.0, x)
            rhs = 1.0 - regularized_incomplete_beta(3.0, 2.0, 1.0 - x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_clamps_x_and_accepts_arrays(self):
        assert regularized_incomplete_beta(2.0, 3.0, -0.5) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.5) == 1.0
        xs = np.array([-1.0, 0.25, 0.5, 2.0])
        out = regularized_incomplete_beta(2.0, 3.0, xs)
        assert out.shape == xs.shape
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[1] == regularized_incomplete_beta(2.0, 3.0, 0.25)

    def test_matches_quadrature_of_beta_density(self):
        # independent of betainc: integrate u^(a-1) (1-u)^(b-1) / B(a, b)
        from scipy.integrate import quad

        for a, b in ((1.0, 1.0), (2.0, 3.0), (2.5, 1.5), (4.0, 2.0)):
            for x in (0.1, 0.5, 0.9):
                val, _ = quad(
                    lambda u: u ** (a - 1) * (1 - u) ** (b - 1), 0.0, x, epsabs=1e-14
                )
                ref = val / beta_fn(a, b)
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                    ref, rel=1e-10, abs=1e-14
                )


class TestQuantileFunctional:
    def test_generalized_inverse(self):
        d = make_discrete([1.0, 3.0], [0.25, 0.75])
        assert quantile_functional(d, 0.9) == 3.0

    def test_dirac_all_levels(self):
        for alpha in (0.05, 0.5, 0.95):
            assert quantile_functional(dirac(2.5), alpha) == 2.5

    def test_moment_growth_bound(self, rng):
        # |S_alpha(G)|^p <= (1/alpha + 1/(1-alpha)) M_p(G)^p
        for _ in range(200):
            g = random_discrete(rng, max_support=10)
            for alpha in (0.1, 0.5, 0.9):
                for p in (1.0, 2.0):
                    lhs = abs(quantile_functional(g, alpha)) ** p
                    rhs = (1 / alpha + 1 / (1 - alpha)) * moment(g, p) ** p
                    assert lhs <= rhs + 1e-9

    def test_range_errors(self):
        with pytest.raises(ValueError):
            quantile_functional(dirac(0.0), 1.0)


class TestTailExpectation:
    def test_uniform_analytic_reference(self):
        # (1/(1-0.9)) int_{0.9}^1 u du = 0.95
        assert evaluate_functional(
            uniform_law(0.0, 1.0), FunctionalSpec(kind="cte", alpha=0.9)
        ) == pytest.approx(0.95, abs=1e-9)

    def test_dirac(self):
        assert tail_expectation(dirac(-3.0), 0.7) == pytest.approx(-3.0)

    def test_lipschitz_in_w1(self, rng):
        for _ in range(300):
            g1 = random_discrete(rng, max_support=8)
            g2 = random_discrete(rng, max_support=8)
            w1 = w1_cdf(g1, g2)
            for alpha in (0.5, 0.9):
                gap = abs(tail_expectation(g1, alpha) - tail_expectation(g2, alpha))
                assert gap <= w1 / (1 - alpha) + 1e-9

    def test_nondecreasing_in_alpha(self, rng):
        for _ in range(50):
            g = random_discrete(rng, max_support=8)
            vals = [tail_expectation(g, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_small_alpha_limit_is_mean(self, rng):
        g = random_discrete(rng, max_support=10)
        assert tail_expectation(g, 1e-6) == pytest.approx(g.mean()[0], abs=1e-4)

    def test_exact_segment_oracle(self, rng):
        # independent oracle: quantile-grid Riemann evaluation
        for _ in range(10):
            g = random_discrete(rng, max_support=6)
            alpha = float(rng.uniform(0.05, 0.95))
            us = alpha + (np.arange(200_000) + 0.5) * (1 - alpha) / 200_000
            idx = np.searchsorted(g.cum_weights, us, side="left")
            oracle = float(np.mean(g.xs[idx]))
            assert tail_expectation(g, alpha) == pytest.approx(oracle, abs=1e-4)


class TestPwm:
    def test_uniform_analytic_reference(self):
        # int u * u(1-u) du = 1/12
        assert evaluate_functional(
            uniform_law(0.0, 1.0), FunctionalSpec(kind="pwm", p=1.0, q=1.0)
        ) == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_dirac_full_beta_mass(self):
        for a_val in (-2.0, 0.5, 3.0):
            for p, q in ((1.0, 1.0), (2.0, 3.0), (0.5, 0.5)):
                assert pwm(dirac(a_val), p, q) == pytest.approx(
                    a_val * beta_fn(p + 1, q + 1), rel=1e-10, abs=1e-12
                )

    def test_matches_scipy_incomplete_beta_oracle(self, rng):
        for _ in range(30):
            g = random_discrete(rng, max_support=8)
            p, q = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))
            full = beta_fn(p + 1, q + 1)
            upper = full * betainc(p + 1, q + 1, g.cum_weights)
            lower = np.concatenate(([0.0], upper[:-1]))
            oracle = float(np.sum(g.xs * (upper - lower)))
            assert pwm(g, p, q) == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_matches_segmentwise_quadrature(self, rng):
        # independent of the incomplete beta: integrate Q(u) u^p (1-u)^q
        # over each cumulative-weight segment, where Q is constant
        from scipy.integrate import quad

        for _ in range(10):
            g = random_discrete(rng, max_support=6)
            p, q = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 3.0))
            lo = np.concatenate(([0.0], g.cum_weights[:-1]))
            oracle = sum(
                x * quad(lambda u: u**p * (1 - u) ** q, a, b, epsabs=1e-14)[0]
                for x, a, b in zip(g.xs, lo, g.cum_weights)
            )
            assert pwm(g, p, q) == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_lipschitz_in_w1(self, rng):
        for _ in range(300):
            g1 = random_discrete(rng, max_support=8)
            g2 = random_discrete(rng, max_support=8)
            w1 = w1_cdf(g1, g2)
            for p, q in ((1.0, 1.0), (2.0, 3.0)):
                const = (p / (p + q)) ** p * (q / (p + q)) ** q
                gap = abs(pwm(g1, p, q) - pwm(g2, p, q))
                assert gap <= const * w1 + 1e-9

    def test_zero_order_combination_recovers_mean(self, rng):
        # pwm(G,1,0) + pwm(G,0,1) integrates Q(u) (u + (1-u)) = mean
        for a_val in (-1.5, 2.0):
            d = dirac(a_val)
            total = pwm(d, 1.0, 0.0) + pwm(d, 0.0, 1.0)
            mass = beta_fn(2, 1) + beta_fn(1, 2)
            assert total == pytest.approx(a_val * mass, rel=1e-12)
            assert mass == pytest.approx(1.0)
        g = random_discrete(rng, max_support=6)
        assert pwm(g, 1.0, 0.0) + pwm(g, 0.0, 1.0) == pytest.approx(
            g.mean()[0], rel=1e-9
        )

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            pwm(dirac(0.0), -1.0, 1.0)


class TestCovariance:
    def test_two_point(self):
        d = make_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        assert covariance_functional(d) == pytest.approx(0.25)

    def test_dirac_zero(self):
        assert covariance_functional(make_discrete([[3.0, -1.0]], [1.0])) == 0.0

    def test_bounded_by_second_moment_squared(self, rng):
        for _ in range(200):
            g = random_discrete(rng, max_support=8, dim=2)
            assert abs(covariance_functional(g)) <= moment(g, 2.0) ** 2 + 1e-9

    def test_local_lipschitz_in_w2(self, rng):
        for _ in range(100):
            g = random_discrete(rng, max_support=5, dim=2)
            h = random_discrete(rng, max_support=5, dim=2)
            w2, _ = wp_exact(g, h, 2.0)
            gap = abs(covariance_functional(g) - covariance_functional(h))
            assert gap <= (moment(g, 2.0) + moment(h, 2.0)) * w2 + 1e-9

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            covariance_functional(dirac(0.0))


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text,kind",
        [("quantile:0.5", "quantile"), ("cte:0.9", "cte"), ("pwm:1:2", "pwm"), ("cov", "cov")],
    )
    def test_parse_round_trip(self, text, kind):
        spec = FunctionalSpec.parse(text)
        assert spec.kind == kind
        assert FunctionalSpec.parse(spec.label()) == spec

    @pytest.mark.parametrize(
        "text", ["quantile:1.5", "cte", "pwm:1", "pwm:0:1", "median:0.5", "quantile:x"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            FunctionalSpec.parse(text)


class TestConditionalFunctional:
    def test_median_tracks_location(self):
        model = make_preset("gaussian-k1")
        ds = model.sample(4000, seed=11)
        reg = fit(ds, KnnScheme(kappa=64))
        spec = FunctionalSpec(kind="quantile", alpha=0.5)
        for xval in (0.25, 0.75):
            est = conditional_functional(reg, spec, np.array([xval]))
            assert est == pytest.approx(0.9 * xval, abs=0.08)

    def test_covariance_near_zero_for_independent_pair(self):
        model = make_preset("gaussian-pair-k1")
        ds = model.sample(4000, seed=11)
        reg = fit(ds, KnnScheme(kappa=64))
        est = conditional_functional(reg, FunctionalSpec(kind="cov"), np.array([0.5]))
        assert abs(est) < 0.05

    def test_tiny_alpha_tail_matches_mean(self, rng):
        ds_atoms = rng.normal(size=12)
        d = make_discrete(ds_atoms, np.full(12, 1 / 12))
        spec = FunctionalSpec(kind="cte", alpha=1e-6)
        assert evaluate_functional(d, spec) == pytest.approx(d.mean()[0], abs=1e-4)

    def test_gaussian_law_quantile_dispatch(self):
        law = gaussian_law(1.0, 2.0)
        spec = FunctionalSpec(kind="quantile", alpha=0.5)
        assert evaluate_functional(law, spec) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            evaluate_functional(law, FunctionalSpec(kind="cov"))
