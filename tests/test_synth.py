import numpy as np
import pytest
from scipy.integrate import quad

from distreg import ClassParams, dispersion, make_preset, wp_quantile
from distreg.functionals import (
    FunctionalSpec,
    evaluate_functional,
    pwm,
    quantile_functional,
    tail_expectation,
)
from distreg.measures import make_discrete
from distreg.ot import w1_cdf
from distreg.synth import (
    PRESETS,
    AffineMap,
    BinaryModel,
    GaussianLocationModel,
    RadialPowerMap,
    UniformLocationModel,
    certify_class,
)

SCALAR_SPECS = ["quantile:0.1", "quantile:0.5", "cte:0.9", "cte:0.25", "pwm:1:2",
                "pwm:0.5:1.5"]


def binary_const(p):
    return BinaryModel(
        name="const",
        high_value=2.0,
        prob=AffineMap(p, (0.0,)),
        params=ClassParams(holder=1.0, lipschitz=1.0, dispersion=1.0, dim=1),
    )


class TestSampling:
    def test_binary_support(self):
        model = make_preset("binary-k1")
        ds = model.sample(500, seed=1)
        assert set(np.unique(ds.responses)) <= {0.0, 2.0}
        assert ds.covariates.min() >= 0.0 and ds.covariates.max() <= 1.0

    def test_same_seed_identical(self):
        model = make_preset("gaussian-k1")
        d1 = model.sample(100, seed=42)
        d2 = model.sample(100, seed=42)
        assert np.array_equal(d1.covariates, d2.covariates)
        assert np.array_equal(d1.responses, d2.responses)
        d3 = model.sample(100, seed=43)
        assert not np.array_equal(d1.responses, d3.responses)

    def test_path_seeds_differ(self):
        model = make_preset("binary-k1")
        d1 = model.sample(50, seed=(7, 0))
        d2 = model.sample(50, seed=(7, 1))
        assert not np.array_equal(d1.covariates, d2.covariates)

    def test_mean_success_rate(self):
        model = make_preset("binary-k1")
        n = 100_000
        ds = model.sample(n, seed=5)
        # E[p(X)] for p(x) = 0.5 + 0.25 x over U(0,1) is 0.625 by quadrature
        oracle, _ = quad(lambda x: 0.5 + 0.25 * x, 0.0, 1.0)
        rate = float(np.mean(ds.responses[:, 0] == 2.0))
        sigma = np.sqrt(0.25 / n)
        assert abs(rate - oracle) <= 4 * sigma

    def test_sample_size_validated(self):
        with pytest.raises(ValueError):
            make_preset("binary-k1").sample(0, seed=1)


class TestConditionalLaw:
    def test_binary_two_point_law(self):
        model = binary_const(0.3)
        law = model.conditional_law(np.array([0.5]))
        assert list(law.xs) == [0.0, 2.0]
        assert list(law.weights) == pytest.approx([0.7, 0.3])

    def test_gaussian_median_is_location(self):
        model = make_preset("gaussian-k1")
        law = model.conditional_law(np.array([0.4]))
        assert float(law.quantile(0.5)) == pytest.approx(0.9 * 0.4, abs=1e-12)

    def test_uniform_dispersion_scales_with_width(self):
        model = make_preset("uniform-k1")
        law = model.conditional_law(np.array([0.2]))
        assert dispersion(law) == pytest.approx(np.pi / 8.0 * model.width, abs=1e-7)
        assert model.dispersion_at(np.array([0.2])) == pytest.approx(
            np.pi / 8.0 * model.width
        )

    def test_out_of_cube_rejected(self):
        model = make_preset("binary-k1")
        with pytest.raises(ValueError, match="cube"):
            model.conditional_law(np.array([1.5]))


class TestBinaryLaw:
    @pytest.mark.parametrize("x", [0.0, 0.1, 0.37, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("name", ["binary-k1", "binary-k2"])
    def test_bit_identical_to_make_discrete(self, name, x):
        model = make_preset(name)
        q = np.full(model.k, x)
        p = float(model.param_profile(q[None, :])[0])
        law = model.conditional_law(q)
        ref = make_discrete([[0.0], [model.high_value]], [1.0 - p, p])
        assert np.array_equal(law.atoms, ref.atoms)
        assert np.array_equal(law.weights, ref.weights)
        assert np.array_equal(law.cum_weights, ref.cum_weights)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcome_matches_make_discrete(self, p):
        # make_discrete drops the zero-weight atom; the direct law keeps it,
        # which moves sums by rounding only
        law = binary_const(p).conditional_law(np.array([0.5]))
        ref = make_discrete([[0.0], [2.0]], [1.0 - p, p])
        assert law.support_size == 2 and ref.support_size == 1
        other = make_discrete([[0.5], [1.5], [3.0]], [0.2, 0.5, 0.3])
        assert w1_cdf(law, ref) == 0.0
        assert w1_cdf(law, other) == pytest.approx(w1_cdf(ref, other), abs=1e-12)
        for alpha in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9):
            assert quantile_functional(law, alpha) == quantile_functional(ref, alpha)
            assert tail_expectation(law, alpha) == pytest.approx(
                tail_expectation(ref, alpha), abs=1e-12
            )
        for pq in ((1.0, 2.0), (0.5, 1.5), (0.0, 0.0)):
            assert pwm(law, *pq) == pytest.approx(pwm(ref, *pq), abs=1e-12)


class TestTrueFunctional:
    @pytest.mark.parametrize("text", SCALAR_SPECS)
    @pytest.mark.parametrize(
        "model",
        [
            make_preset("gaussian-k1"),
            make_preset("uniform-k1"),
            GaussianLocationModel(
                name="g2",
                mean=AffineMap(-0.3, (0.5, 0.7)),
                sigma=1.3,
                params=ClassParams(holder=1.0, lipschitz=1.0, dispersion=1.0, dim=2),
            ),
            UniformLocationModel(
                name="u-rough",
                mean=RadialPowerMap(
                    offset=0.2, scale=-0.6, center=(0.4,), exponent=0.5
                ),
                width=0.3,
                params=ClassParams(holder=0.5, lipschitz=1.0, dispersion=1.0, dim=1),
            ),
        ],
        ids=["gaussian-k1", "uniform-k1", "gaussian-k2", "uniform-radial"],
    )
    def test_location_closed_form_matches_plug_in(self, model, text):
        # the plug-in on each exact conditional law is the independent oracle
        spec = FunctionalSpec.parse(text)
        queries = np.random.default_rng(3).random((6, model.k))
        truth = model.true_functional(spec, queries)
        oracle = [evaluate_functional(model.conditional_law(q), spec) for q in queries]
        assert truth.shape == (6,)
        assert np.allclose(truth, oracle, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("text", SCALAR_SPECS)
    def test_binary_is_plug_in_on_exact_law(self, text):
        model = make_preset("binary-k2")
        spec = FunctionalSpec.parse(text)
        queries = np.random.default_rng(4).random((5, 2))
        expected = [evaluate_functional(model.conditional_law(q), spec) for q in queries]
        assert model.true_functional(spec, queries).tolist() == expected

    def test_scalar_models_reject_covariance(self):
        for name in ("binary-k1", "gaussian-k1", "uniform-k1"):
            with pytest.raises(ValueError):
                make_preset(name).true_functional(FunctionalSpec(kind="cov"), [[0.5]])

    def test_pair_covariance_is_zero(self):
        model = make_preset("gaussian-pair-k1")
        values = model.true_functional(FunctionalSpec(kind="cov"), np.full((4, 1), 0.5))
        assert np.array_equal(values, np.zeros(4))
        with pytest.raises(ValueError, match="paired"):
            model.true_functional(FunctionalSpec.parse("cte:0.9"), [[0.5]])


class TestExactW1:
    def test_binary_closed_form(self):
        model = make_preset("binary-k1")
        x, xp = np.array([0.0]), np.array([0.8])
        # p moves from 0.5 to 0.7, high value 2: W1 = 2 * 0.2
        assert model.exact_w1_to(x, xp) == pytest.approx(0.4, abs=1e-12)

    def test_location_shift(self):
        model = make_preset("gaussian-k1")
        x, xp = np.array([0.2]), np.array([0.6])
        assert model.exact_w1_to(x, xp) == pytest.approx(0.9 * 0.4, abs=1e-12)

    def test_shift_matches_discretized_quantile_distance(self):
        model = make_preset("gaussian-k1")
        law_a = model.conditional_law(np.array([0.2]))
        law_b = model.conditional_law(np.array([0.6]))
        grid = (np.arange(50_000) + 0.5) / 50_000
        da = make_discrete(law_a.quantile(grid), np.full(50_000, 1 / 50_000))
        db = make_discrete(law_b.quantile(grid), np.full(50_000, 1 / 50_000))
        assert wp_quantile(da, db, 1.0) == pytest.approx(
            model.exact_w1_to(np.array([0.2]), np.array([0.6])), abs=1e-6
        )

    def test_same_point_zero(self):
        model = make_preset("uniform-k1")
        x = np.array([0.3])
        assert model.exact_w1_to(x, x) == 0.0

    def test_pair_model_has_no_scalar_law(self):
        model = make_preset("gaussian-pair-k1")
        with pytest.raises(ValueError):
            model.conditional_law(np.array([0.5]))
        with pytest.raises(ValueError):
            model.exact_w1_to(np.array([0.2]), np.array([0.6]))


class TestCertification:
    @pytest.mark.parametrize(
        "name", ["binary-k1", "binary-k2", "gaussian-k1", "uniform-k1"]
    )
    def test_shipped_presets_pass_with_margin(self, name):
        report = certify_class(make_preset(name), resolution=64)
        assert report.passes
        assert report.ratio_margin >= 0.05
        assert report.dispersion_margin >= 0.05

    def test_binary_ratio_is_half(self):
        report = certify_class(make_preset("binary-k1"), resolution=32)
        assert report.max_ratio == pytest.approx(0.5, abs=1e-12)

    def test_constant_model_ratio_zero(self):
        model = BinaryModel(
            name="const",
            high_value=1.0,
            prob=AffineMap(0.4, (0.0,)),
            params=ClassParams(holder=1.0, lipschitz=1.0, dispersion=0.5, dim=1),
        )
        report = certify_class(model, resolution=16)
        assert report.max_ratio == 0.0
        assert report.passes

    def test_failed_certification_is_report_not_error(self):
        model = GaussianLocationModel(
            name="too-tight",
            mean=AffineMap(0.0, (0.9,)),
            sigma=0.25,
            params=ClassParams(holder=1.0, lipschitz=1.0, dispersion=0.1, dim=1),
        )
        report = certify_class(model, resolution=16)
        assert not report.passes
        assert report.max_dispersion > 0.1

    def test_radial_holder_half_model(self):
        prob = RadialPowerMap(offset=0.3, scale=0.2, center=(0.5,), exponent=0.5)
        model = BinaryModel(
            name="rough",
            high_value=1.0,
            prob=prob,
            params=ClassParams(holder=0.5, lipschitz=0.25, dispersion=0.6, dim=1),
        )
        report = certify_class(model, resolution=32)
        assert report.passes

    def test_binary_class_constraint_enforced(self):
        with pytest.raises(ValueError, match="dispersion"):
            BinaryModel(
                name="bad",
                high_value=10.0,
                prob=AffineMap(0.5, (0.0,)),
                params=ClassParams(holder=1.0, lipschitz=1.0, dispersion=1.0, dim=1),
            )


class TestSlabConsistency:
    def test_empirical_slab_matches_conditional_law(self):
        model = make_preset("gaussian-k1")
        ds = model.sample(100_000, seed=8)
        x0 = 0.5
        mask = np.abs(ds.covariates[:, 0] - x0) <= 0.01
        ys = np.sort(ds.responses[mask, 0])
        law = model.conditional_law(np.array([x0]))
        ecdf = (np.arange(len(ys)) + 1) / len(ys)
        ks = float(np.max(np.abs(np.asarray(law.cdf(ys)) - ecdf)))
        assert ks <= 0.05

    def test_binary_slab_rate(self):
        model = make_preset("binary-k1")
        ds = model.sample(100_000, seed=8)
        x0 = 0.25
        mask = np.abs(ds.covariates[:, 0] - x0) <= 0.01
        rate = float(np.mean(ds.responses[mask, 0] == 2.0))
        law = model.conditional_law(np.array([x0]))
        assert abs(rate - law.weights[1]) <= 0.05


class TestPresetRegistry:
    def test_all_presets_construct(self):
        for name in PRESETS:
            model = make_preset(name)
            assert model.name == name

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown"):
            make_preset("nope")
