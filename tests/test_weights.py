import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distreg import KernelScheme, KnnScheme, kernel_weights, knn_weights
from distreg.synth import make_preset
from distreg._rng import grid_study
from distreg.weights import (
    BandwidthPowerSchedule,
    NeighborPowerSchedule,
    _stone_replication,
    evaluate_weights,
    stone_diagnostics,
)


class TestKernelWeights:
    def test_two_inside_one_outside(self):
        w = kernel_weights(KernelScheme(bandwidth=0.5), [0.1, 0.4, 0.9], 0.2)
        assert list(w.indices) == [0, 1]
        assert list(w.values) == pytest.approx([0.5, 0.5])

    def test_empty_ball_falls_back_to_uniform(self):
        w = kernel_weights(KernelScheme(bandwidth=0.01), [0.5, 0.9], 0.0)
        assert list(w.indices) == [0, 1]
        assert list(w.values) == pytest.approx([0.5, 0.5])

    def test_closed_ball_boundary(self):
        w = kernel_weights(KernelScheme(bandwidth=1.0), [0.0, 1.0, 3.0], 0.0)
        assert list(w.indices) == [0, 1]
        assert list(w.values) == pytest.approx([0.5, 0.5])

    def test_positive_iff_within_bandwidth(self, rng):
        scheme = KernelScheme(bandwidth=0.3)
        for _ in range(20):
            xs = rng.random((40, 2))
            x = rng.random(2)
            w = kernel_weights(scheme, xs, x)
            dist = np.linalg.norm(xs - x, axis=1)
            if np.any(dist <= 0.3):
                assert np.array_equal(w.indices, np.flatnonzero(dist <= 0.3))
                assert np.all(w.values > 0)

    def test_describe_names_the_kernel_kind(self):
        assert KernelScheme(bandwidth=0.5).describe() == "kernel(uniform, h=0.5)"

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            KernelScheme(bandwidth=0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_non_finite_bandwidth(self, h):
        with pytest.raises(ValueError, match="finite"):
            KernelScheme(bandwidth=h)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 30),
        h=st.floats(0.01, 2.0),
    )
    def test_always_probability_vector(self, seed, n, h):
        rng = np.random.default_rng(seed)
        xs = rng.random((n, 1))
        w = kernel_weights(KernelScheme(bandwidth=h), xs, rng.random(1))
        assert np.all(np.diff(w.indices) > 0)
        assert 0 <= w.indices[0] and w.indices[-1] < n
        assert np.all(w.values > 0.0)
        assert abs(w.values.sum() - 1.0) <= 1e-12


class TestKnnWeights:
    def test_two_nearest_of_three(self):
        w = knn_weights(KnnScheme(kappa=2), [0.0, 1.0, 5.0], 0.4)
        assert list(w.indices) == [0, 1]
        assert list(w.values) == pytest.approx([0.5, 0.5])

    def test_squared_weights_are_reciprocal_kappa(self, rng):
        for kappa in (1, 3, 7):
            xs = rng.random((20, 2))
            w = knn_weights(KnnScheme(kappa=kappa), xs, rng.random(2))
            assert np.sum(w.values**2) == pytest.approx(1.0 / kappa, rel=1e-12)

    def test_kappa_equals_n(self, rng):
        xs = rng.random((6, 1))
        w = knn_weights(KnnScheme(kappa=6), xs, rng.random(1))
        assert list(w.indices) == list(range(6))
        assert np.allclose(w.values, 1.0 / 6.0)

    def test_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            knn_weights(KnnScheme(kappa=4), [0.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            KnnScheme(kappa=0)

    def test_tie_broken_by_smallest_index(self):
        # both 0.4 and 0.6 are at distance 0.1 from the query
        w = knn_weights(KnnScheme(kappa=1), [0.0, 0.4, 0.6], 0.5)
        assert list(w.indices) == [1]
        assert list(w.values) == [1.0]

    def test_order_invariance_for_distinct_distances(self, rng):
        xs = rng.random((15, 1))
        x = rng.random(1)
        perm = rng.permutation(15)
        w1 = knn_weights(KnnScheme(kappa=4), xs, x)
        w2 = knn_weights(KnnScheme(kappa=4), xs[perm], x)
        # point j of the permuted sample is point perm[j] of the original
        assert np.array_equal(np.sort(perm[w2.indices]), w1.indices)
        assert np.allclose(w1.values, w2.values)


class TestStoneDiagnostics:
    def test_single_neighbor_max_weight_is_one(self):
        model = make_preset("binary-k1")
        rows = stone_diagnostics(
            NeighborPowerSchedule(1, 0), model, [128, 512], eps=0.1, replications=3, seed=2
        )
        assert all(row.max_weight == 1.0 for row in rows)
        assert all(row.max_weight_se == 0.0 for row in rows)

    def test_valid_schedules_shrink(self):
        model = make_preset("binary-k1")
        knn_sqrt = NeighborPowerSchedule(1, 0.5)
        rows = stone_diagnostics(
            knn_sqrt, model, [64, 512, 4096], eps=0.05, replications=6, seed=4
        )
        maxw = [row.max_weight for row in rows]
        assert maxw == sorted(maxw, reverse=True)
        far = [row.far_weight for row in rows]
        assert far[-1] <= far[0]

    def test_scheme_never_sees_responses(self):
        # the weight API takes covariates only; shuffling responses between
        # calls cannot change the weights
        model = make_preset("gaussian-k1")
        ds = model.sample(50, seed=1)
        x = np.array([0.5])
        w1 = evaluate_weights(KnnScheme(kappa=5), ds.covariates, x)
        w2 = evaluate_weights(KnnScheme(kappa=5), ds.covariates, x)
        assert np.array_equal(w1.indices, w2.indices)
        assert np.array_equal(w1.values, w2.values)

    def test_validation(self):
        model = make_preset("binary-k1")
        with pytest.raises(ValueError):
            stone_diagnostics(NeighborPowerSchedule(1, 0), model, [], eps=0.1, replications=3, seed=0)
        with pytest.raises(ValueError):
            stone_diagnostics(NeighborPowerSchedule(1, 0), model, [32], eps=-1.0, replications=3, seed=0)
        with pytest.raises(ValueError):
            stone_diagnostics(NeighborPowerSchedule(1, 0), model, [32], eps=0.1, replications=1, seed=0)

    def test_nan_eps_rejected(self):
        model = make_preset("binary-k1")
        with pytest.raises(ValueError, match="eps"):
            stone_diagnostics(
                NeighborPowerSchedule(1, 0), model, [32], eps=float("nan"), replications=3,
                seed=0,
            )

    def test_zero_test_points_rejected(self):
        model = make_preset("binary-k1")
        with pytest.raises(ValueError, match="test point"):
            stone_diagnostics(
                NeighborPowerSchedule(1, 0), model, [32], eps=0.1, replications=3, seed=0,
                test_points=0,
            )

    def test_runner_gives_the_same_rows_with_two_workers(self):
        # the worker returns a tuple; each of its values is reduced in key
        # order, so a pool of two processes changes no bit
        model = make_preset("binary-k2")
        schemes = {64: KernelScheme(0.3), 256: KnnScheme(kappa=7)}
        grid = [(i, n, scheme) for i, (n, scheme) in enumerate(schemes.items())]
        serial = grid_study(_stone_replication, model, grid, 5, 4, 3, 0.1)
        assert grid_study(_stone_replication, model, grid, 5, 4, 3, 0.1, workers=2) == serial
        assert [len(row) for row in serial] == [4, 4]
        # each scheme is a constant schedule, whose row at its own n index
        # has the keys of the grid above
        kernel, knn = (
            stone_diagnostics(schedule, model, list(schemes), eps=0.1, replications=5, seed=3)
            for schedule in (BandwidthPowerSchedule(0.3, 0), NeighborPowerSchedule(7, 0))
        )
        assert [tuple(vars(row).values())[1:] for row in (kernel[0], knn[1])] == serial
