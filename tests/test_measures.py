import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from distreg import (
    AnalyticDistribution1D,
    DiscreteDistribution,
    MeasureBatch,
    cdf_eval,
    dirac,
    dispersion,
    gaussian_law,
    make_discrete,
    moment,
    quantile_eval,
    uniform_law,
)

from conftest import random_discrete


class TestMakeDiscrete:
    def test_single_dirac(self):
        d = make_discrete([0.0], [1.0])
        assert d.support_size == 1
        assert d.atoms[0, 0] == 0.0
        assert d.weights[0] == 1.0

    def test_duplicate_atoms_merge(self):
        d = make_discrete([1.0, 1.0], [0.5, 0.5])
        assert d.support_size == 1
        assert d.atoms[0, 0] == 1.0
        assert d.weights[0] == 1.0

    def test_zero_weights_dropped(self):
        d = make_discrete([0.0, 1.0, 2.0], [0.2, 0.0, 0.8])
        assert list(d.xs) == [0.0, 2.0]
        assert list(d.weights) == pytest.approx([0.2, 0.8])

    def test_renormalizes_within_tolerance(self):
        d = make_discrete([0.0, 1.0], [0.5 + 2e-10, 0.5])
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_tiny_negative_clamped(self):
        d = make_discrete([0.0, 1.0], [-1e-16, 1.0])
        assert d.support_size == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            make_discrete([0.0, 1.0], [1.0])

    def test_materially_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            make_discrete([0.0, 1.0], [-1e-3, 1.0])

    def test_total_outside_tolerance(self):
        with pytest.raises(ValueError, match="sum"):
            make_discrete([0.0, 1.0], [0.5, 0.6])

    def test_messages_print_plain_floats(self):
        with pytest.raises(ValueError) as exc:
            make_discrete([0.0, 1.0], [0.5, 0.25])
        assert str(exc.value) == "weights sum to 0.75, outside tolerance 1e-09"
        with pytest.raises(ValueError) as exc:
            make_discrete([0.0, 1.0], [-1e-3, 1.0])
        assert str(exc.value) == "materially negative weight: min = -1.000e-03"

    def test_empty_input(self):
        with pytest.raises(ValueError):
            make_discrete([], [])

    def test_multid_keeps_duplicates_and_order(self):
        d = make_discrete([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], [0.25, 0.5, 0.25])
        assert d.dim == 2
        assert d.support_size == 3

    def test_atoms_are_immutable(self):
        d = make_discrete([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 5.0

    def test_nan_atom_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_discrete([0.0, np.nan], [0.5, 0.5])

    def test_nan_weight_rejected_not_dropped(self):
        with pytest.raises(ValueError, match="finite"):
            make_discrete([0.0, 1.0, 2.0], [0.5, 0.5, np.nan])

    def test_inf_atom_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_discrete([[0.0, 0.0], [np.inf, 1.0]], [0.5, 0.5])

    def test_direct_construction_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistribution(np.array([[0.0], [np.inf]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([np.nan, 1.0]))

    def test_direct_construction_leaves_caller_atoms_writable(self):
        atoms = np.array([[0.0], [1.0]])
        DiscreteDistribution(atoms, np.array([0.5, 0.5]))
        assert atoms.flags.writeable
        atoms[0, 0] = -1.0  # must not raise

    def test_direct_construction_does_not_track_caller_weights(self):
        w = np.array([0.5, 0.5])
        d = DiscreteDistribution(np.array([[0.0], [1.0]]), w)
        w[0] = 0.9
        assert list(d.weights) == [0.5, 0.5]
        assert list(d.cum_weights) == [0.5, 1.0]

    def test_equals_direct_construction(self, rng):
        # make_discrete skips the checks of __post_init__, not its results
        for dim in (1, 2):
            for _ in range(50):
                m = int(rng.integers(1, 9))
                atoms = rng.integers(0, 4, size=(m, dim)) / 2.0
                w = rng.random(m) * (rng.random(m) > 0.2) + 1e-3
                d = make_discrete(atoms, w / w.sum())
                ref = DiscreteDistribution(d.atoms, d.weights)
                for name in ("atoms", "weights", "cum_weights"):
                    got = getattr(d, name)
                    assert np.array_equal(got, getattr(ref, name))
                    assert not got.flags.writeable


class TestMeasureBatch:
    def batch(self):
        return MeasureBatch(
            [0.0, 1.0, -3.0, 0.5, 2.0], [0.25, 0.75, 1.0, 0.5, 0.5], [0, 2, 3, 5]
        )

    def test_rows_are_the_measures_built_one_by_one(self):
        batch = self.batch()
        assert len(batch) == 3 and batch.dim == 1
        rows = [([0.0, 1.0], [0.25, 0.75]), ([-3.0], [1.0]), ([0.5, 2.0], [0.5, 0.5])]
        for got, (atoms, weights) in zip(batch, rows):
            ref = DiscreteDistribution(np.array(atoms)[:, None], weights)
            assert np.array_equal(got.atoms, ref.atoms)
            assert np.array_equal(got.weights, ref.weights)
            assert np.array_equal(got.cum_weights, ref.cum_weights)
        assert np.array_equal(batch[-1].xs, [0.5, 2.0])
        assert batch.rows.tolist() == [0, 0, 1, 2, 2]
        with pytest.raises(IndexError):
            batch[3]
        with pytest.raises(ValueError):
            batch[0].weights[0] = 0.5

    def test_row_cumulative_weights_end_at_one(self):
        w = np.full(10, 0.1)
        batch = MeasureBatch(np.arange(10.0), w, [0, 10])
        assert batch.cum_weights[-1] == 1.0
        assert np.array_equal(batch.cum_weights[:-1], np.cumsum(w)[:-1])

    def test_two_dimensional_rows_keep_their_order(self):
        atoms = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        batch = MeasureBatch(atoms, [0.5, 0.5, 1.0], [0, 2, 3])
        assert batch.dim == 2
        assert np.array_equal(batch[0].atoms, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "atoms, weights, offsets, match",
        [
            ([0.0, np.nan], [0.5, 0.5], [0, 2], "finite"),
            ([0.0, 1.0], [np.inf, 0.5], [0, 2], "finite"),
            ([0.0, 1.0], [1.0, 0.0], [0, 2], "positive"),
            ([0.0, 1.0], [1.5, -0.5], [0, 2], "positive"),
            ([0.0, 1.0], [0.5, 0.6], [0, 2], "sum to 1"),
            ([0.0, 1.0], [0.5, 0.5], [0, 1, 2], "sum to 1"),
            ([1.0, 0.0], [0.5, 0.5], [0, 2], "increasing"),
            ([1.0, 1.0], [0.5, 0.5], [0, 2], "increasing"),
            ([0.0, 1.0], [0.5, 0.5], [0, 2, 2], "at least one atom"),
            ([0.0, 1.0], [0.5, 0.5], [0, 1], "offsets"),
            ([0.0, 1.0], [0.5, 0.5], [1, 2], "offsets"),
            ([0.0, 1.0], [1.0], [0, 1], "mismatch"),
        ],
    )
    def test_rejects_invalid_rows(self, atoms, weights, offsets, match):
        with pytest.raises(ValueError, match=match):
            MeasureBatch(atoms, weights, offsets)

    def test_rows_may_decrease_across_a_boundary(self):
        batch = MeasureBatch([1.0, 0.0], [1.0, 1.0], [0, 1, 2])
        assert batch[1].xs.tolist() == [0.0]


class TestCdfQuantile:
    def test_cdf_at_atom(self):
        d = make_discrete([0.0, 1.0], [0.5, 0.5])
        assert cdf_eval(d, 0.0) == 0.5

    def test_cdf_below_support(self):
        d = make_discrete([0.0, 1.0], [0.5, 0.5])
        assert cdf_eval(d, -0.1) == 0.0

    def test_cdf_between_atoms(self):
        d = make_discrete([1.0, 3.0], [0.25, 0.75])
        assert cdf_eval(d, 2.0) == 0.25

    def test_cdf_requires_dim1(self):
        d = make_discrete([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="dim"):
            cdf_eval(d, 0.0)

    def test_quantile_boundary(self):
        d = make_discrete([1.0, 3.0], [0.25, 0.75])
        assert quantile_eval(d, 0.25) == 1.0

    def test_quantile_interior(self):
        d = make_discrete([1.0, 3.0], [0.25, 0.75])
        assert quantile_eval(d, 0.5) == 3.0

    def test_quantile_dirac(self):
        d = dirac(4.2)
        for u in (0.01, 0.5, 0.99):
            assert quantile_eval(d, u) == 4.2

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
    def test_quantile_domain(self, u):
        with pytest.raises(ValueError):
            quantile_eval(dirac(0.0), u)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_galois_connection(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        d = random_discrete(rng, max_support=6)
        u = data.draw(st.floats(1e-6, 1.0 - 1e-6))
        z = data.draw(st.floats(-3.0, 3.0))
        assert cdf_eval(d, quantile_eval(d, u)) >= u
        fz = cdf_eval(d, z)
        if 0.0 < fz < 1.0:
            assert quantile_eval(d, fz) <= z


class TestMoment:
    def test_euclidean_dirac(self):
        assert moment(make_discrete([[3.0, 4.0]], [1.0]), 2.0) == pytest.approx(5.0)

    def test_first_moment(self):
        d = make_discrete([0.0, 2.0], [0.5, 0.5])
        assert moment(d, 1.0) == pytest.approx(1.0)

    def test_second_moment_direct_evaluation(self):
        d = make_discrete([0.0, 2.0], [0.5, 0.5])
        expected = (0.5 * 0.0 + 0.5 * 4.0) ** 0.5
        assert moment(d, 2.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(np.sqrt(2.0))

    def test_permutation_and_merge_invariance(self, rng):
        atoms = [3.0, 1.0, 3.0, -2.0]
        weights = [0.1, 0.4, 0.2, 0.3]
        d1 = make_discrete(atoms, weights)
        d2 = make_discrete(atoms[::-1], weights[::-1])
        for p in (1.0, 2.0, 3.5):
            assert moment(d1, p) == pytest.approx(moment(d2, p), rel=1e-14)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            moment(dirac(1.0), 0.5)


class TestDispersion:
    def test_uniform_unit_interval(self):
        # oracle: quadrature of sqrt(u (1 - u)) on (0, 1), which is pi / 8
        oracle, _ = quad(lambda u: np.sqrt(u * (1 - u)), 0.0, 1.0)
        val = dispersion(uniform_law(0.0, 1.0))
        assert val == pytest.approx(oracle, abs=1e-8)
        assert val == pytest.approx(np.pi / 8.0, abs=1e-7)

    def test_dirac_is_zero(self):
        assert dispersion(dirac(3.0)) == 0.0

    def test_two_point_single_gap(self):
        # single-gap formula: (z2 - z1) * sqrt(c (1 - c))
        p, b = 0.5, 2.0
        d = make_discrete([0.0, b], [1 - p, p])
        expected = b * np.sqrt((1 - p) * p)
        assert dispersion(d) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(1.0)

    def test_nonnegative_zero_iff_dirac(self, rng):
        for _ in range(50):
            d = random_discrete(rng, max_support=6)
            val = dispersion(d)
            assert val >= 0.0
            assert (val == 0.0) == (d.support_size == 1)

    def test_piecewise_matches_quadrature(self, rng):
        for _ in range(10):
            d = random_discrete(rng, max_support=7, min_support=2)
            lo, hi = d.xs[0], d.xs[-1]

            def integrand(z):
                f = cdf_eval(d, z)
                return np.sqrt(max(f * (1 - f), 0.0))

            oracle, _ = quad(
                integrand, lo, hi, points=list(d.xs), limit=400, epsabs=1e-10
            )
            assert dispersion(d) == pytest.approx(oracle, abs=1e-8)

    def test_unbounded_support_needs_window(self):
        law = AnalyticDistribution1D(
            cdf=lambda z: np.asarray(z) * 0 + 0.5,
            quantile=lambda u: np.asarray(u) * 0,
            support=(-np.inf, np.inf),
            mean=0.0,
            integrated_cdf=lambda z: 0.5 * np.asarray(z),
        )
        with pytest.raises(ValueError, match="window"):
            dispersion(law)

    def test_gaussian_scaling(self):
        base = dispersion(gaussian_law(0.0, 1.0))
        scaled = dispersion(gaussian_law(3.0, 0.25))
        assert scaled == pytest.approx(0.25 * base, rel=1e-6)


class TestAnalyticLaws:
    def test_gaussian_cdf_quantile_inverse(self):
        law = gaussian_law(1.0, 2.0)
        us = np.linspace(0.01, 0.99, 23)
        assert np.allclose(law.cdf(law.quantile(us)), us, atol=1e-12)

    def test_uniform_integrated_cdf(self):
        law = uniform_law(-1.0, 3.0)
        # int_{-1}^{z} (z' + 1)/4 dz' at z = 1 is 0.5
        assert law.integrated_cdf(1.0) == pytest.approx(0.5)
        assert law.integrated_cdf(-1.0) == 0.0
        assert law.integrated_cdf(5.0) == pytest.approx((3.0 - law.mean) + 2.0)

    def test_gaussian_integrated_cdf_matches_quadrature(self):
        law = gaussian_law(0.5, 0.7)
        for z in (-0.3, 0.5, 1.9):
            oracle, _ = quad(lambda t: float(law.cdf(t)), 0.5 - 8 * 0.7, z, limit=300)
            assert float(law.integrated_cdf(z)) == pytest.approx(
                oracle + float(law.integrated_cdf(0.5 - 8 * 0.7)), abs=1e-9
            )
