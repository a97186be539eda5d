import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from distreg import FunctionalSpec, kernel_bound, knn_bound, make_preset
from distreg import experiments, ot
from distreg.experiments import (
    STUDY_PRESETS,
    BandwidthPowerSchedule,
    ExperimentPlan,
    NeighborPowerSchedule,
    _fit_and_predict,
    _functional_replication,
    _risk_replication,
    bound_rows_csv,
    bound_vs_risk,
    fit_loglog_slope,
    functional_study,
    make_experiment_preset,
    parse_schedule,
    plan_from_config,
    rate_study,
    risk_estimate,
)
from distreg.measures import MeasureBatch
from distreg.weights import KernelScheme, KnnScheme


def tiny_plan(model_name="binary-k1", schedule=None, **kw):
    schedule = schedule or BandwidthPowerSchedule(1.0, -1.0 / 3.0)
    defaults = dict(
        model=make_preset(model_name),
        schedule=schedule,
        n_grid=(128, 256, 512),
        replications=6,
        test_points=8,
        seed=13,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


class TestPlanValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            tiny_plan(n_grid=(256, 128))

    @pytest.mark.parametrize("family", ["kernel", "knn"])
    def test_sample_sizes_positive(self, family):
        # checked before the schedule, which fails on n <= 0 in other ways
        schedule = NeighborPowerSchedule(1.0, 0.5) if family == "knn" else None
        for grid in ((0, 128), (-4, 128)):
            with pytest.raises(ValueError, match="sample sizes"):
                tiny_plan(schedule=schedule, n_grid=grid)

    def test_needs_replications(self):
        with pytest.raises(ValueError):
            tiny_plan(replications=1)

    @pytest.mark.parametrize("test_points", [0, -3])
    def test_needs_test_points(self, test_points):
        with pytest.raises(ValueError, match="test point"):
            tiny_plan(test_points=test_points)

    # inf, an array, a string and None once passed, ran the whole study
    # and failed in write
    @pytest.mark.parametrize("tolerance", [-1.0, -1e-12, float("nan"), float("inf"),
                                           np.array([0.1]), "0.1", None], ids=repr)
    def test_tolerance_nonnegative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be one finite number >= 0"):
            tiny_plan(tolerance=tolerance)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, float("nan"), float("inf")])
    def test_order_below_one_rejected(self, p):
        with pytest.raises(ValueError, match="order p must be finite and >= 1"):
            tiny_plan(p=p)

    def test_tolerance_is_kept_as_a_float(self, tmp_path):
        plans = [tiny_plan(tolerance=t, n_grid=(16, 32), replications=2, test_points=2)
                 for t in (1, np.float32(0.5), np.int64(0))]
        assert [type(plan.tolerance) for plan in plans] == [float] * 3
        for i, plan in enumerate(plans):
            rate_study(plan).write(str(tmp_path / f"out{i}"))

    def test_zero_tolerance_allowed(self):
        assert tiny_plan(tolerance=0.0, test_points=1).tolerance == 0.0

    @pytest.mark.parametrize("kappa", [0, -4])
    def test_fixed_neighbor_count_below_one_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa must be >= 1"):
            parse_schedule(f"kappa-fixed:{kappa}")

    def test_fixed_count_is_a_constant_power_law(self):
        # kappa-fixed:K is kappa:K:0, whose count is K capped at n
        schedule = parse_schedule("kappa-fixed:3")
        assert schedule == parse_schedule("kappa:3:0")
        sizes = [1, 2, 3, 4, 5, 6, 100, 10**6]
        assert [schedule(n) for n in sizes] == [min(n, 3) for n in sizes]

    @pytest.mark.parametrize("coef", [0.0, -1.0, float("nan"), float("inf")])
    def test_neighbor_power_coefficient_must_be_positive(self, coef):
        with pytest.raises(ValueError, match="coefficient"):
            NeighborPowerSchedule(coef, 0.5)

    def test_neighbor_count_underflow_is_not_clamped_to_one(self):
        # 1e-300 * n^-50 underflows to 0, so ceil gives 0 neighbours, which
        # the plan rejects
        with pytest.raises(ValueError, match="nonpositive"):
            tiny_plan(schedule=NeighborPowerSchedule(1e-300, -50.0))

    @pytest.mark.parametrize(
        "schedule, family, scheme_type",
        [(BandwidthPowerSchedule(1.0, -1.0 / 3.0), "kernel", KernelScheme),
         (NeighborPowerSchedule(1.0, 0.5), "knn", KnnScheme),
         (NeighborPowerSchedule(5, 0.0), "knn", KnnScheme)],
        ids=["bandwidth", "kappa", "kappa-fixed"],
    )
    def test_schedule_fixes_family_scheme_and_bound(self, schedule, family, scheme_type):
        plan = tiny_plan(schedule=schedule, n_grid=(128, 256), replications=2, test_points=2)
        assert plan.schedule.family == family
        assert isinstance(plan.schedule.scheme(128), scheme_type)
        params = plan.model.params
        bound = kernel_bound if family == "kernel" else knn_bound
        expected = [bound(params, n, plan.schedule(n)) for n in plan.n_grid]
        assert [row.bound for row in bound_vs_risk(plan)] == expected

    def test_scheme_at(self):
        plan = tiny_plan(schedule=NeighborPowerSchedule(1.0, 0.5))
        assert plan.schedule.scheme(256) == KnnScheme(kappa=16)


class TestRiskEstimate:
    def test_single_point_floor(self):
        model = make_preset("binary-k1")
        mean, se = risk_estimate(
            model, KnnScheme(kappa=1), n=1, replications=8, test_points=4, seed=3
        )
        assert mean > 0.1  # one observation cannot localize
        assert se >= 0.0

    def test_stderr_shrinks_with_replications(self):
        model = make_preset("binary-k1")
        _, se_small = risk_estimate(
            model, KnnScheme(kappa=8), n=128, replications=16, test_points=8, seed=5
        )
        _, se_big = risk_estimate(
            model, KnnScheme(kappa=8), n=128, replications=64, test_points=8, seed=5
        )
        ratio = se_small / se_big
        assert 1.2 <= ratio <= 3.5  # about 2 with sampling noise

    def test_binary_error_is_exact_probability_gap(self):
        # on the support {0, 2} the W1 error is 2 |p_hat - p|, with p_hat the
        # predicted and p the true weight of the atom 2
        model, scheme = make_preset("binary-k1"), KnnScheme(kappa=8)
        mean, _ = risk_estimate(model, scheme, n=64, replications=3, test_points=5, seed=7)
        gaps = []
        for rep in range(3):
            queries, flat = _fit_and_predict(model, scheme, 64, 5, 7, 0, rep)
            preds = MeasureBatch(*flat)
            p_hat = np.array([pred.weights[pred.xs == 2.0].sum() for pred in preds])
            gaps.append(np.mean(2.0 * np.abs(p_hat - model.param_profile(queries))))
        assert mean == pytest.approx(np.mean(gaps), abs=1e-12)

    def test_higher_order_against_discrete_law(self):
        # on the support {0, 2} the mass |p_hat - p| moves a distance 2, so
        # W2^2 = 4 |p_hat - p| is twice the W1 error in every replication
        model, scheme = make_preset("binary-k1"), KnnScheme(kappa=8)
        sizes = dict(n=64, replications=4, test_points=5, seed=7)
        w1_mean, w1_se = risk_estimate(model, scheme, **sizes)
        w2_mean, w2_se = risk_estimate(model, scheme, p=2.0, **sizes)
        assert w1_mean > 0
        assert w2_mean == pytest.approx(2.0 * w1_mean, rel=1e-12)
        assert w2_se == pytest.approx(2.0 * w1_se, rel=1e-12)

    def test_higher_order_takes_the_power_of_the_merge(self):
        # the p-th power comes from the quantile merge as it sums it, not
        # from its p-th root raised to the power p again
        model, scheme = make_preset("binary-k2"), KnnScheme(kappa=5)
        setting = (model, scheme, 64, 9, 2, 0)
        queries, flat = _fit_and_predict(*setting, 1)
        preds = MeasureBatch(*flat)
        laws = model.conditional_laws(queries)
        powers = [
            ot._quantile_power(pred.xs, pred.cum_weights, law.xs, law.cum_weights, 2.0)[0]
            for pred, law in zip(preds, laws)
        ]
        assert _risk_replication((*setting, range(1, 2), 2.0)) == [float(np.mean(powers))]
        roots = [ot.wp_quantile(pred, law, 2.0) for pred, law in zip(preds, laws)]
        assert powers == pytest.approx(np.square(roots), rel=1e-14)

    @pytest.mark.parametrize(
        "budget",
        [dict(replications=1, test_points=2), dict(replications=3, test_points=0)],
        ids=["one-replication", "no-test-point"],
    )
    def test_rejects_the_budgets_that_studies_reject(self, budget):
        # these budgets once gave a nan mean or standard error
        with pytest.raises(ValueError) as study:
            tiny_plan(**budget)
        with pytest.raises(ValueError, match=re.escape(str(study.value))):
            risk_estimate(make_preset("binary-k1"), KnnScheme(kappa=1), n=4, **budget)

    def test_higher_order_rejects_analytic_law(self):
        model = make_preset("gaussian-k1")
        with pytest.raises(NotImplementedError):
            risk_estimate(
                model, KnnScheme(kappa=4), n=32, replications=2, test_points=2, p=2.0
            )


def one_replication_risk(model, scheme, n, test_points, seed, n_index, rep, p):
    """The mean error of one replication as the loop once computed it: its
    own prediction batch, its own laws and its own distance call."""
    queries, flat = _fit_and_predict(model, scheme, n, test_points, seed, n_index, rep)
    preds = MeasureBatch(*flat)
    laws = model.conditional_laws(queries)
    if not isinstance(laws, MeasureBatch):
        return float(np.mean(ot.w1_vs_analytic(preds, *laws)))
    if p != 1.0:
        return float(np.mean([
            ot._quantile_power(pred.xs, pred.cum_weights, law.xs, law.cum_weights, p)[0]
            for pred, law in zip(preds, laws)
        ]))
    return float(np.mean(ot.w1_cdf(preds, laws)))


def one_replication_functional(model, scheme, n, test_points, seed, n_index, rep, spec):
    queries, flat = _fit_and_predict(model, scheme, n, test_points, seed, n_index, rep)
    estimates = experiments.evaluate_functional(MeasureBatch(*flat), spec)
    return float(np.mean(np.abs(estimates - model.true_functional(spec, queries))))


KERNEL, KNN = BandwidthPowerSchedule(1.0, -1.0 / 3.0), NeighborPowerSchedule(1.0, 0.5)


class TestBlocksOfReplications:
    """A block worker's value for each replication has the bits of the same
    replication computed on its own, whatever the block budget."""

    @pytest.mark.parametrize("budget", [1, 2**62], ids=["one-per-block", "one-block"])
    @pytest.mark.parametrize(
        "model_name, schedule, n, test_points, p",
        [("binary-k1", KERNEL, 512, 32, 1.0),
         ("gaussian-k1", KERNEL, 1024, 16, 1.0),
         ("binary-k2", KNN, 512, 32, 1.0),
         ("uniform-k1", KNN, 512, 16, 1.0),
         ("binary-k2", KNN, 256, 8, 2.0)],
        ids=["binary-k1-kernel", "gaussian-k1-kernel", "binary-k2-knn", "uniform-k1-knn",
             "binary-k2-knn-p2"],
    )
    def test_risk_values_equal_one_replication_at_a_time(
        self, monkeypatch, budget, model_name, schedule, n, test_points, p
    ):
        monkeypatch.setattr(experiments, "_BLOCK_ATOMS", budget)
        setting = (make_preset(model_name), schedule.scheme(n), n, test_points, 5, 2)
        values = _risk_replication((*setting, range(1, 8), p))
        expected = [one_replication_risk(*setting, rep, p) for rep in range(1, 8)]
        assert [v.hex() for v in values] == [v.hex() for v in expected]

    @pytest.mark.parametrize("budget", [1, 2**62], ids=["one-per-block", "one-block"])
    @pytest.mark.parametrize(
        "model_name, spec",
        [("gaussian-k1", "pwm:1:2"), ("binary-k1", "cte:0.9"), ("uniform-k1", "quantile:0.5"),
         ("gaussian-pair-k1", "cov")],
    )
    def test_functional_values_equal_one_replication_at_a_time(
        self, monkeypatch, budget, model_name, spec
    ):
        monkeypatch.setattr(experiments, "_BLOCK_ATOMS", budget)
        setting = (make_preset(model_name), KNN.scheme(512), 512, 16, 3, 1)
        spec = FunctionalSpec.parse(spec)
        values = _functional_replication((*setting, range(6), spec))
        expected = [one_replication_functional(*setting, rep, spec) for rep in range(6)]
        assert [v.hex() for v in values] == [v.hex() for v in expected]

    def test_a_gaussian_block_stays_within_its_budget(self):
        # at n = 8192 a replication predicts about 13 000 atoms, a block of
        # its own; the 8 replications in one block take about 13 MB
        model, n = make_preset("gaussian-k1"), 8192
        setting = (model, KERNEL.scheme(n), n, 16, 5, 5)
        _risk_replication((*setting, range(1), 1.0))  # imports and caches
        tracemalloc.start()
        try:
            _risk_replication((*setting, range(8), 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestDeterminism:
    def test_parallel_equals_serial(self):
        plan = tiny_plan()
        assert rate_study(plan, workers=1) == rate_study(plan, workers=2)

    def test_functional_study_parallel_equals_serial(self):
        plan = tiny_plan(model_name="gaussian-k1", n_grid=(128, 256), replications=4)
        spec = FunctionalSpec.parse("pwm:1:2")
        assert functional_study(plan, spec, workers=1) == functional_study(
            plan, spec, workers=2
        )

    def test_bound_vs_risk_parallel_equals_serial(self):
        plan = tiny_plan(n_grid=(128, 256), replications=4, test_points=4)
        assert bound_vs_risk(plan, workers=1) == bound_vs_risk(plan, workers=2)

    def test_same_plan_same_report(self):
        plan = tiny_plan()
        r1, r2 = rate_study(plan), rate_study(plan)
        assert r1 == r2
        assert r1.csv_text() == r2.csv_text()

    def test_seed_changes_report(self):
        r1 = rate_study(tiny_plan(seed=1))
        r2 = rate_study(tiny_plan(seed=2))
        assert r1 != r2


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = [2**e for e in range(8, 14)]
        means = [3.0 * n ** (-1 / 3) for n in ns]
        slope, se = fit_loglog_slope(ns, means)
        assert slope == pytest.approx(-1 / 3, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_noisy_slope_reasonable(self, rng):
        ns = [2**e for e in range(8, 15)]
        means = [2.0 * n**-0.25 * np.exp(rng.normal(0, 0.02)) for n in ns]
        slope, se = fit_loglog_slope(ns, means)
        assert slope == pytest.approx(-0.25, abs=0.05)
        assert se < 0.05


class TestReports:
    def test_csv_json_round_trip(self, tmp_path):
        plan = tiny_plan()
        report = rate_study(plan)
        prefix = str(tmp_path / "out")
        csv_path, json_path = report.write(prefix)
        with open(csv_path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "n,param,risk_mean,risk_stderr"
        assert len(lines) == 1 + len(plan.n_grid)
        first = lines[1].split(",")
        assert int(first[0]) == plan.n_grid[0]
        assert float(first[2]) == report.points[0].mean  # 17g digits round-trip
        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload["slope"] == report.slope
        assert payload["passed"] == report.passed

    def test_bound_rows_csv(self):
        plan = tiny_plan(n_grid=(128, 256), replications=4, test_points=4)
        rows = bound_vs_risk(plan)
        text = bound_rows_csv(rows)
        header, *body = text.strip().splitlines()
        assert header == "n,param,risk_mean,risk_stderr,bound,violated"
        assert len(body) == 2
        assert not any(row.violated for row in rows)


class TestStudies:
    def test_invalid_schedule_fails_verdict(self):
        plan = tiny_plan(
            schedule=NeighborPowerSchedule(5, 0.0),
            n_grid=(128, 512, 2048),
            replications=8,
            target_exponent=-1.0 / 3.0,
        )
        report = rate_study(plan)
        assert abs(report.slope) < 0.15  # risk stalls
        assert not report.passed

    def test_functional_study_decreases(self):
        plan = tiny_plan(
            model_name="gaussian-k1",
            schedule=NeighborPowerSchedule(1.0, 0.5),
            n_grid=(128, 1024),
            replications=8,
        )
        pts = functional_study(plan, FunctionalSpec.parse("quantile:0.5"))
        assert pts[-1].mean_abs_error < pts[0].mean_abs_error

    def test_pair_model_covariance_study(self):
        plan = tiny_plan(
            model_name="gaussian-pair-k1",
            schedule=NeighborPowerSchedule(1.0, 0.5),
            n_grid=(64, 1024),
            replications=8,
        )
        pts = functional_study(plan, FunctionalSpec.parse("cov"))
        assert pts[-1].mean_abs_error < pts[0].mean_abs_error

    def test_bound_needs_class_params(self):
        plan = tiny_plan(
            model_name="gaussian-pair-k1",
            schedule=NeighborPowerSchedule(1.0, 0.5),
        )
        with pytest.raises(ValueError):
            bound_vs_risk(plan)

    @pytest.mark.parametrize(
        "model_name, schedule, constants",
        [("binary-k1", BandwidthPowerSchedule(1.0, -1.0 / 3.0), dict(neighbor_const=4.0)),
         ("binary-k2", NeighborPowerSchedule(1.0, 0.5),
          dict(neighbor_const=4.0, covering_const=1.0)),
         ("binary-k1", NeighborPowerSchedule(1.0, 0.5), dict(neighbor_const=4.0))],
        ids=["kernel-neighbor-const", "knn-covering-const", "knn-k1-neighbor-const"],
    )
    def test_unread_constant_is_rejected_before_any_replication(
        self, monkeypatch, model_name, schedule, constants
    ):
        plan = tiny_plan(model_name=model_name, schedule=schedule)

        def no_study(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "grid_study", no_study)
        with pytest.raises(ValueError, match="not read"):
            bound_vs_risk(plan, **constants)

    def test_knn_bound_needs_neighbor_const_in_dim2(self):
        plan = tiny_plan(
            model_name="binary-k2",
            schedule=NeighborPowerSchedule(1.0, 0.5),
            n_grid=(128, 256),
            replications=4,
            test_points=4,
        )
        with pytest.raises(ValueError, match="neighbor_const"):
            bound_vs_risk(plan)
        rows = bound_vs_risk(plan, neighbor_const=4.0)
        assert len(rows) == 2


class TestPresets:
    @pytest.mark.parametrize("seed", [1, 3])
    def test_presets_equal_their_former_definitions(self, seed):
        # the Python objects the presets were before they became configs
        def grid(lo, hi):
            return tuple(2**e for e in range(lo, hi + 1))

        kernel = ("kernel", BandwidthPowerSchedule(1.0, -1.0 / 3.0))
        knn = ("knn", NeighborPowerSchedule(1.0, 0.5))
        former = {
            "binary-k1-kernel": ("binary-k1", *kernel, grid(9, 15), 40, 32, -1.0 / 3.0),
            "binary-k2-knn": ("binary-k2", *knn, grid(9, 15), 40, 32, -0.25),
            "binary-k1-knn": ("binary-k1", *knn, grid(9, 15), 40, 32, -0.25),
            "binary-k1-knn-fixed": (
                "binary-k1", "knn", NeighborPowerSchedule(5, 0.0), grid(9, 14), 24, 32, -1.0 / 3.0
            ),
            "gaussian-k1-kernel": ("gaussian-k1", *kernel, grid(8, 13), 24, 16, -1.0 / 3.0),
            "uniform-k1-knn": ("uniform-k1", *knn, grid(8, 13), 24, 16, -0.25),
        }
        assert sorted(former) == sorted(STUDY_PRESETS)
        for name, (model, family, schedule, n_grid, reps, points, target) in former.items():
            plan = make_experiment_preset(name, seed=seed)
            assert plan.schedule.family == family
            assert plan == ExperimentPlan(
                model=make_preset(model),
                schedule=schedule,
                n_grid=n_grid,
                replications=reps,
                test_points=points,
                seed=seed,
                target_exponent=target,
            )

    def test_preset_keys_are_updated_by_the_config(self):
        cfg = {"preset": "binary-k2-knn", "n_grid": "64,128", "replications": "3",
               "test_points": "5", "seed": "7", "tolerance": "0.5", "out_prefix": "x"}
        expected = dataclasses.replace(
            make_experiment_preset("binary-k2-knn", seed=7),
            n_grid=(64, 128), replications=3, test_points=5, tolerance=0.5,
        )
        assert plan_from_config(cfg, seed=1) == expected

    def test_spelled_out_defaults(self):
        plan = plan_from_config(
            {"model": "binary-k1", "schedule": "kappa-fixed:5", "n_grid": "64,128"}, seed=4
        )
        assert (plan.schedule.family, plan.schedule) == ("knn", NeighborPowerSchedule(5, 0.0))
        assert (plan.replications, plan.test_points, plan.seed) == (16, 16, 4)
        assert (plan.p, plan.target_exponent, plan.tolerance) == (1.0, None, 0.08)

    def test_known_presets_resolve(self):
        plan = make_experiment_preset("binary-k1-kernel")
        assert plan.model.name == "binary-k1"
        assert plan.target_exponent == pytest.approx(-1 / 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown"):
            make_experiment_preset("nope")
