"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are fixed here, not tuned per run.
"""

import time

import numpy as np
import pytest

from distreg import (
    SlicedConfig,
    covariance_functional,
    make_discrete,
    make_preset,
    max_sliced_wp,
    moment,
    pwm,
    sliced_wp,
    tail_expectation,
    w1_cdf,
    wp_bruteforce,
    wp_exact,
    wp_quantile,
)
from distreg.experiments import (
    BandwidthPowerSchedule,
    ExperimentPlan,
    NeighborPowerSchedule,
    bound_vs_risk,
    functional_study,
    make_experiment_preset,
    rate_study,
)
from distreg.functionals import FunctionalSpec
from distreg.weights import stone_diagnostics


def _report(criterion, passed, detail=""):
    # surfaced in the run log through the -rP report option set in pyproject
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{criterion} failed: {detail}"


def _random_discrete(rng, max_support, dim=1, scale=1.0):
    m = int(rng.integers(1, max_support + 1))
    atoms = rng.normal(size=(m, dim)) * scale
    w = rng.random(m) + 0.02
    return make_discrete(atoms, w / w.sum())


def _nonincreasing_within_pooled_se(points):
    def level(pt):
        return pt.mean if hasattr(pt, "mean") else pt.mean_abs_error

    for a, b in zip(points, points[1:]):
        pooled = np.hypot(a.stderr, b.stderr)
        if level(b) > level(a) + pooled:
            return False
    return True


def test_c01_quantile_and_cdf_formulas_agree():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        a = _random_discrete(rng, 50)
        b = _random_discrete(rng, 50)
        worst = max(worst, abs(wp_quantile(a, b, 1.0) - w1_cdf(a, b)))
    elapsed = time.time() - start
    _report(
        "1 formula equivalence (order 1)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_exact_solver_matches_oracles():
    rng = np.random.default_rng(102)
    start = time.time()
    worst_vertex = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        a = _random_discrete(rng, 4, dim=d)
        b = _random_discrete(rng, 4, dim=d)
        p = float(rng.choice([1.0, 2.0]))
        dist, _ = wp_exact(a, b, p)
        worst_vertex = max(worst_vertex, abs(dist - wp_bruteforce(a, b, p)))
    worst_1d = 0.0
    for _ in range(200):
        a = _random_discrete(rng, 20)
        b = _random_discrete(rng, 20)
        p = float(rng.choice([1.0, 2.0]))
        dist, _ = wp_exact(a, b, p)
        worst_1d = max(worst_1d, abs(dist - wp_quantile(a, b, p)))
    elapsed = time.time() - start
    _report(
        "2 exact-OT oracle",
        worst_vertex <= 1e-9 and worst_1d <= 1e-9 and elapsed < 30.0,
        f"vertex gap {worst_vertex:.2e}, 1-d gap {worst_1d:.2e}, {elapsed:.1f}s",
    )


def test_c03_metric_axioms():
    rng = np.random.default_rng(103)
    violations = 0
    for trial in range(500):
        if trial % 2 == 0:
            dim, dist_fn = 1, lambda a, b, p: wp_quantile(a, b, p)
        else:
            dim = int(rng.integers(2, 4))
            dist_fn = lambda a, b, p: wp_exact(a, b, p)[0]
        p = float(rng.choice([1.0, 2.0]))
        a = _random_discrete(rng, 4, dim=dim)
        b = _random_discrete(rng, 4, dim=dim)
        c = _random_discrete(rng, 4, dim=dim)
        dab, dba = dist_fn(a, b, p), dist_fn(b, a, p)
        dbc, dac = dist_fn(b, c, p), dist_fn(a, c, p)
        if dab < 0 or abs(dab - dba) > 1e-10:
            violations += 1
        if dist_fn(a, a, p) > 1e-12:
            violations += 1
        if dac > dab + dbc + 1e-9:
            violations += 1
    _report("3 metric axioms", violations == 0, f"{violations} violations / 500 triples")


def test_c04_lipschitz_theorems():
    rng = np.random.default_rng(104)
    start = time.time()
    viol_cte = viol_pwm = viol_cov = 0
    for _ in range(10_000):
        g1 = _random_discrete(rng, 12)
        g2 = _random_discrete(rng, 12)
        w1 = w1_cdf(g1, g2)
        for alpha in (0.5, 0.9, 0.99):
            gap = abs(tail_expectation(g1, alpha) - tail_expectation(g2, alpha))
            if gap > w1 / (1 - alpha) + 1e-9:
                viol_cte += 1
        for p, q in ((1.0, 1.0), (2.0, 3.0)):
            const = (p / (p + q)) ** p * (q / (p + q)) ** q
            if abs(pwm(g1, p, q) - pwm(g2, p, q)) > const * w1 + 1e-9:
                viol_pwm += 1
    for _ in range(10_000):
        g1 = _random_discrete(rng, 6, dim=2)
        g2 = _random_discrete(rng, 6, dim=2)
        w2, _ = wp_exact(g1, g2, 2.0)
        gap = abs(covariance_functional(g1) - covariance_functional(g2))
        if gap > (moment(g1, 2.0) + moment(g2, 2.0)) * w2 + 1e-9:
            viol_cov += 1
    elapsed = time.time() - start
    _report(
        "4 Lipschitz contracts",
        viol_cte == 0 and viol_pwm == 0 and viol_cov == 0 and elapsed < 120.0,
        f"cte {viol_cte}, pwm {viol_pwm}, cov {viol_cov} violations, {elapsed:.1f}s",
    )


def test_c05_bounds_never_violated():
    grid = tuple(2**e for e in range(9, 14))
    plan1 = ExperimentPlan(
        model=make_preset("binary-k1"),
        schedule=BandwidthPowerSchedule(1.0, -1.0 / 3.0),
        n_grid=grid,
        replications=40,
        test_points=32,
        seed=105,
    )
    rows1 = bound_vs_risk(plan1)
    plan2 = ExperimentPlan(
        model=make_preset("binary-k2"),
        schedule=NeighborPowerSchedule(1.0, 0.5),
        n_grid=grid,
        replications=40,
        test_points=32,
        seed=105,
    )
    # the neighbor-distance constant for k = 2 is a user parameter; any
    # plausible magnitude keeps the bound valid-loose
    rows2 = bound_vs_risk(plan2, neighbor_const=4.0)
    bad = [r for r in rows1 + rows2 if r.violated]
    ratios = [r.bound / r.risk_mean for r in rows1 + rows2]
    _report(
        "5 closed-form bounds dominate risk",
        not bad,
        f"{len(bad)} violations / {len(rows1) + len(rows2)} rows, "
        f"min bound/risk ratio {min(ratios):.2f}",
    )


def test_c06_kernel_minimax_exponent():
    start = time.time()
    report = rate_study(make_experiment_preset("binary-k1-kernel", seed=106))
    elapsed = time.time() - start
    _report(
        "6 kernel rate (k=1)",
        abs(report.slope + 1.0 / 3.0) <= 0.08,
        f"slope {report.slope:.4f} vs -1/3 +- 0.08, {elapsed:.0f}s",
    )


def test_c07_knn_minimax_exponent_dim2():
    start = time.time()
    report = rate_study(make_experiment_preset("binary-k2-knn", seed=107))
    elapsed = time.time() - start
    _report(
        "7 neighbor rate (k=2)",
        abs(report.slope + 0.25) <= 0.08,
        f"slope {report.slope:.4f} vs -1/4 +- 0.08, {elapsed:.0f}s",
    )


def test_c08_knn_suboptimal_dim1():
    report = rate_study(make_experiment_preset("binary-k1-knn", seed=108))
    within = abs(report.slope + 0.25) <= 0.08
    lo = report.slope - 2.0 * report.slope_stderr
    hi = report.slope + 2.0 * report.slope_stderr
    excludes = not (lo <= -1.0 / 3.0 <= hi)
    _report(
        "8 neighbor non-optimality (k=1)",
        within and excludes,
        f"slope {report.slope:.4f} +- {report.slope_stderr:.4f}, "
        f"2-sigma interval [{lo:.3f}, {hi:.3f}] excludes -1/3: {excludes}",
    )


def test_c09_consistency_and_invalid_schedule():
    grid = (2**8, 2**10, 2**12)
    combos = [
        ("binary-k1", BandwidthPowerSchedule(1.0, -1.0 / 3.0)),
        ("binary-k2", NeighborPowerSchedule(1.0, 0.5)),
        ("gaussian-k1", BandwidthPowerSchedule(1.0, -1.0 / 3.0)),
        ("uniform-k1", NeighborPowerSchedule(1.0, 0.5)),
    ]
    monotone_ok = []
    for name, schedule in combos:
        plan = ExperimentPlan(
            model=make_preset(name),
            schedule=schedule,
            n_grid=grid,
            replications=16,
            test_points=16,
            seed=109,
        )
        points = rate_study(plan).points
        monotone_ok.append(_nonincreasing_within_pooled_se(points))
    valid_plan = ExperimentPlan(
        model=make_preset("binary-k1"),
        schedule=NeighborPowerSchedule(1.0, 0.5),
        n_grid=grid,
        replications=16,
        test_points=16,
        seed=109,
    )
    frozen_plan = ExperimentPlan(
        model=make_preset("binary-k1"),
        schedule=NeighborPowerSchedule(5, 0.0),
        n_grid=grid,
        replications=16,
        test_points=16,
        seed=109,
    )
    valid_final = rate_study(valid_plan).points[-1].mean
    frozen_final = rate_study(frozen_plan).points[-1].mean
    stalls = frozen_final > 2.0 * valid_final
    _report(
        "9 consistency along n",
        all(monotone_ok) and stalls,
        f"monotone {sum(monotone_ok)}/4, frozen-kappa final {frozen_final:.3f} "
        f"vs valid {valid_final:.3f}",
    )


def test_c10_weight_diagnostics():
    model = make_preset("binary-k1")
    n_grid = [2**e for e in range(8, 15)]

    def check(rows):
        for col in ("max_weight", "far_weight"):
            vals = [getattr(r, col) for r in rows]
            ses = [getattr(r, col + "_se") for r in rows]
            inversions = [
                i for i in range(len(vals) - 1) if vals[i + 1] > vals[i]
            ]
            if len(inversions) > 1:
                return False
            for i in inversions:
                pooled = np.hypot(ses[i], ses[i + 1])
                if vals[i + 1] > vals[i] + pooled:
                    return False
        return True

    knn_rows = stone_diagnostics(
        NeighborPowerSchedule(1.0, 0.5), model, n_grid, eps=0.05, replications=12, seed=110,
    )
    kern_rows = stone_diagnostics(
        BandwidthPowerSchedule(1.0, -1.0 / 3.0), model, n_grid, eps=0.05, replications=12,
        seed=110,
    )
    single = stone_diagnostics(
        NeighborPowerSchedule(1.0, 0.0), model, [2**8, 2**11, 2**14],
        eps=0.05, replications=4, seed=110,
    )
    unit_max = all(r.max_weight == 1.0 for r in single)
    _report(
        "10 weight-consistency diagnostics",
        check(knn_rows) and check(kern_rows) and unit_max,
        f"knn ok {check(knn_rows)}, kernel ok {check(kern_rows)}, "
        f"kappa=1 max weight identically 1: {unit_max}",
    )


def test_c11_functional_plug_in_consistency():
    plan = ExperimentPlan(
        model=make_preset("gaussian-k1"),
        schedule=NeighborPowerSchedule(1.0, 0.5),
        n_grid=(2**8, 2**10, 2**12),
        replications=12,
        test_points=16,
        seed=111,
    )
    ok = {}
    for text in ("quantile:0.5", "cte:0.9", "pwm:1:1"):
        pts = functional_study(plan, FunctionalSpec.parse(text))
        ok[text] = _nonincreasing_within_pooled_se(pts) and (
            pts[-1].mean_abs_error < pts[0].mean_abs_error
        )
    pair_plan = ExperimentPlan(
        model=make_preset("gaussian-pair-k1"),
        schedule=NeighborPowerSchedule(1.0, 0.5),
        n_grid=(2**6, 2**9, 2**12, 2**14),
        replications=12,
        test_points=16,
        seed=111,
    )
    cov_pts = functional_study(pair_plan, FunctionalSpec(kind="cov"))
    cov_ok = cov_pts[-1].mean_abs_error < 0.5 * cov_pts[0].mean_abs_error
    _report(
        "11 plug-in functional consistency",
        all(ok.values()) and cov_ok,
        f"{ {k: v for k, v in ok.items()} }, cov first {cov_pts[0].mean_abs_error:.4f}"
        f" -> final {cov_pts[-1].mean_abs_error:.4f}",
    )


def test_c12_sliced_sanity():
    a = make_discrete([[0.0, 0.0]], [1.0])
    b = make_discrete([[1.0, 0.0]], [1.0])
    est = sliced_wp(a, b, SlicedConfig(p=2.0, num_directions=100_000, seed=112))
    target = np.sqrt(0.5)
    within = abs(est.value - target) <= 3.0 * est.stderr
    max_val = max_sliced_wp(
        a, b, SlicedConfig(p=2.0, num_directions=64, seed=112)
    )
    max_ok = abs(max_val - 1.0) <= 1e-6
    _report(
        "12 sliced estimators",
        within and max_ok,
        f"sliced {est.value:.5f} vs {target:.5f} (3se {3 * est.stderr:.5f}), "
        f"max-sliced {max_val:.9f} vs 1",
    )
