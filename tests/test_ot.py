from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from distreg import (
    SlicedConfig,
    dirac,
    gaussian_law,
    make_discrete,
    max_sliced_wp,
    moment,
    sliced_wp,
    uniform_law,
    w1_cdf,
    w1_vs_analytic,
    wp_bruteforce,
    wp_exact,
    wp_quantile,
)
from distreg import ot
from distreg.ot import _northwest_corner, _tree_flow

from conftest import random_discrete


class TestW1Cdf:
    def test_dirac_shift(self):
        assert w1_cdf(dirac(0.0), dirac(1.0)) == pytest.approx(1.0)

    def test_split_mass_to_center(self):
        a = make_discrete([0.0, 1.0], [0.5, 0.5])
        b = dirac(0.5)
        # oracle: every coupling moves each half-mass by exactly 0.5
        assert w1_cdf(a, b) == pytest.approx(0.5, abs=1e-15)
        assert wp_bruteforce(a, b, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_two_point_laws_closed_form(self):
        p, q, b = 0.3, 0.5, 2.0
        da = make_discrete([0.0, b], [1 - p, p])
        db = make_discrete([0.0, b], [1 - q, q])
        assert w1_cdf(da, db) == pytest.approx(b * abs(p - q), abs=1e-12)
        assert w1_cdf(da, db) == pytest.approx(0.4)

    def test_matches_scipy(self, rng):
        for _ in range(50):
            a = random_discrete(rng, max_support=9)
            b = random_discrete(rng, max_support=9)
            oracle = wasserstein_distance(
                a.xs, b.xs, u_weights=a.weights, v_weights=b.weights
            )
            assert w1_cdf(a, b) == pytest.approx(oracle, abs=1e-10)

    def test_requires_dim1(self):
        with pytest.raises(ValueError):
            w1_cdf(make_discrete([[0.0, 0.0]], [1.0]), dirac(0.0))


class TestWpQuantile:
    def test_identity(self, rng):
        for p in (1.0, 2.0, 3.0):
            d = random_discrete(rng, max_support=6)
            assert wp_quantile(d, d, p) == 0.0

    def test_dirac_pair(self):
        for p in (1.0, 2.0, 5.0):
            assert wp_quantile(dirac(-1.0), dirac(2.0), p) == pytest.approx(3.0)

    def test_equals_cdf_route_at_order_one(self, rng):
        for _ in range(200):
            a = random_discrete(rng, max_support=12)
            b = random_discrete(rng, max_support=12)
            assert abs(wp_quantile(a, b, 1.0) - w1_cdf(a, b)) <= 1e-10

    def test_monotone_in_order(self, rng):
        for _ in range(50):
            a = random_discrete(rng, max_support=8)
            b = random_discrete(rng, max_support=8)
            assert wp_quantile(a, b, 1.0) <= wp_quantile(a, b, 2.0) + 1e-12

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            wp_quantile(dirac(0.0), dirac(1.0), 0.5)


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_non_finite_order_rejected(p):
    a = make_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    b = make_discrete([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        wp_quantile(dirac(0.0), dirac(1.0), p)
    with pytest.raises(ValueError, match="finite"):
        wp_exact(a, b, p)
    with pytest.raises(ValueError, match="finite"):
        SlicedConfig(p=p)


@pytest.mark.parametrize("p", [1000.0, np.float64(1000.0)], ids=["float", "numpy"])
def test_order_whose_power_overflows_rejected(p):
    # 3^1000 is beyond the double range; a numpy order must not slip
    # through as an inf power
    with pytest.raises(ValueError, match="order p = 1000 is too large"):
        wp_quantile(dirac(0.0), dirac(3.0), p)
    with pytest.raises(ValueError, match="order p = 1000 is too large"):
        wp_exact(dirac(0.0), dirac(3.0), p)


@pytest.mark.parametrize(
    "scale, p", [(8e307, 1.0), (1e200, 1.0), (6e153, 2.0)],
    ids=["gaps-near-max", "squares-overflow", "powers-near-max"],
)
def test_exact_matches_quantile_route_near_the_double_range(scale, p):
    # costs whose squares, p-th powers or duals would overflow: the plan is
    # found on scaled distances and paid at the unscaled ones
    rng = np.random.default_rng(int(np.log2(scale)) + int(p))
    for _ in range(5):
        a = random_discrete(rng, max_support=30, scale=scale / 4.0, min_support=10)
        b = random_discrete(rng, max_support=30, scale=scale / 4.0, min_support=10)
        assert wp_exact(a, b, p)[0] == pytest.approx(wp_quantile(a, b, p), rel=1e-12)


def test_exact_on_the_line_runs_no_simplex(monkeypatch, rng):
    # the monotone coupling is optimal at every order, so it is the plan
    def simplex(*args):
        raise AssertionError("the simplex ran on the line")

    monkeypatch.setattr(ot, "_transport_simplex", simplex)
    for p in (1.0, 1.5, 2.0, 30.0):
        a, b = random_discrete(rng, max_support=30), random_discrete(rng, max_support=30)
        assert wp_exact(a, b, p)[0] == pytest.approx(wp_quantile(a, b, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_in_the_plane_matches_bruteforce_near_the_double_range(p):
    # the largest cost times 4(m + n) overflows, so the plan is found on
    # distances scaled by a power of two; the same measures shrunk by
    # 2^(1020 / p) give every cost times 2^-1020
    rng = np.random.default_rng(int(p))
    up = int(1020 / p)
    for _ in range(5):
        a, b = (
            make_discrete(rng.uniform(-1.0, 1.0, size=(k, 2)), np.full(k, 1.0 / k))
            for k in rng.integers(3, 5, size=2)
        )
        big_a = make_discrete(np.ldexp(a.atoms, up), a.weights)
        big_b = make_discrete(np.ldexp(b.atoms, up), b.weights)
        gap = np.linalg.norm(a.atoms[:, None] - b.atoms[None], axis=2).max()
        top = np.ldexp(gap, up)
        with np.errstate(over="ignore"):
            assert not np.isfinite(top**p * 4 * (a.support_size + b.support_size))
        expected = np.ldexp(wp_bruteforce(a, b, p), up)
        assert wp_exact(big_a, big_b, p)[0] == pytest.approx(expected, rel=1e-12)


def test_exact_rejects_a_plan_its_scaled_costs_cannot_tell_apart():
    # at p = 1000 the largest distance, 100 from (0, 0) to (100, 0), sets
    # the scale, and every distance below about 100 / 4.2 prices to 0: the
    # corner plan 0 -> 1.7, 1 -> 1.5 would be kept, while the optimum moves
    # 0 -> 1.5, 1 -> 1.7
    a = make_discrete([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]], np.full(3, 1 / 3))
    b = make_discrete([[1.7, 0.0], [1.5, 0.0], [100.0, 0.0]], np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="p = 1000 is too large.*cannot be told from 0"):
        wp_exact(a, b, 1000.0)
    # at an order whose costs the simplex tells apart, it finds that optimum
    assert wp_exact(a, b, 3.0)[0] == pytest.approx(
        ((1.5**3 + 0.7**3) / 3) ** (1 / 3), rel=1e-12
    )


@pytest.mark.parametrize("k", [-300, -100, -40, 20, 100, 300])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_keeps_its_plan_whatever_the_units(p, k):
    # scaling every atom by 2^k scales every cost by 2^(kp) exactly, and the
    # simplex's stopping tolerance with them, so the distance scales by
    # 2^k bit for bit; a tolerance with an absolute floor stopped at the
    # northwest corner once every cost was far below 1
    rng = np.random.default_rng([k + 300, int(p)])
    for _ in range(30):
        a, b = (
            make_discrete(rng.normal(size=(4, 2)), w / w.sum())
            for w in rng.random((2, 4)) + 0.05
        )
        small_a, small_b = (make_discrete(np.ldexp(d.atoms, k), d.weights) for d in (a, b))
        assert wp_exact(small_a, small_b, p)[0] == np.ldexp(wp_exact(a, b, p)[0], k)


class TestWpExact:
    def test_single_pair_euclidean(self):
        a = make_discrete([[0.0, 0.0]], [1.0])
        b = make_discrete([[3.0, 4.0]], [1.0])
        dist, plan = wp_exact(a, b, 2.0)
        assert dist == pytest.approx(5.0)
        assert plan.cost == pytest.approx(25.0)

    def test_matches_quantile_route_in_1d(self, rng):
        for _ in range(80):
            a = random_discrete(rng, max_support=7)
            b = random_discrete(rng, max_support=7)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            d_exact, _ = wp_exact(a, b, p)
            assert d_exact == pytest.approx(wp_quantile(a, b, p), abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 4))
            a = random_discrete(rng, max_support=4, dim=d)
            b = random_discrete(rng, max_support=4, dim=d)
            p = float(rng.choice([1.0, 2.0]))
            d_exact, _ = wp_exact(a, b, p)
            assert d_exact == pytest.approx(wp_bruteforce(a, b, p), abs=1e-9)

    def test_rational_weights_3x3(self):
        a = make_discrete([[0.0], [1.0], [2.0]], [1 / 3, 1 / 3, 1 / 3])
        b = make_discrete([[0.5], [1.5], [2.5]], [1 / 2, 1 / 4, 1 / 4])
        for p in (1.0, 2.0):
            d_exact, _ = wp_exact(a, b, p)
            assert d_exact == pytest.approx(wp_bruteforce(a, b, p), abs=1e-10)

    def test_plan_margins_and_cost(self, rng):
        for _ in range(30):
            a = random_discrete(rng, max_support=6, dim=2)
            b = random_discrete(rng, max_support=6, dim=2)
            dist, plan = wp_exact(a, b, 2.0)
            assert np.all(plan.masses >= 0.0)
            assert np.allclose(
                plan.marginal_source(a.support_size), a.weights, atol=1e-9
            )
            assert np.allclose(
                plan.marginal_target(b.support_size), b.weights, atol=1e-9
            )
            diffs = a.atoms[plan.sources] - b.atoms[plan.targets]
            recomputed = float(
                np.sum(plan.masses * np.linalg.norm(diffs, axis=1) ** 2.0)
            )
            assert plan.cost == pytest.approx(recomputed, rel=1e-12, abs=1e-15)
            assert dist == pytest.approx(recomputed**0.5, rel=1e-12)

    def test_size_guard(self):
        big = make_discrete(np.arange(1001.0), np.full(1001, 1 / 1001))
        with pytest.raises(ValueError, match="guard"):
            wp_exact(big, big, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            wp_exact(dirac(0.0), make_discrete([[0.0, 0.0]], [1.0]), 1.0)

    def test_degenerate_uniform_weights(self):
        # equal masses force ties in the initial basis; the perturbation
        # must keep the pivots nondegenerate
        a = make_discrete(np.arange(8.0), np.full(8, 1 / 8))
        b = make_discrete(np.arange(8.0) + 0.25, np.full(8, 1 / 8))
        d_exact, _ = wp_exact(a, b, 1.0)
        assert d_exact == pytest.approx(wp_quantile(a, b, 1.0), abs=1e-9)

    def test_bruteforce_support_guard(self):
        big = make_discrete(np.arange(5.0), np.full(5, 0.2))
        with pytest.raises(ValueError, match="brute force"):
            wp_bruteforce(big, big, 1.0)


# Reference transportation simplex: a pivot loop that rebuilds the basis
# graph twice per pivot, once for the duals and once for the cycle.
# ``wp_exact`` updates one basis tree in place and must reproduce these plans
# bit for bit.


def reference_duals(cells, cost, m, n):
    rows_of = [[] for _ in range(m)]
    cols_of = [[] for _ in range(n)]
    for (i, j) in cells:
        rows_of[i].append(j)
        cols_of[j].append(i)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    queue = deque([("r", 0)])
    while queue:
        kind, idx = queue.popleft()
        if kind == "r":
            for j in rows_of[idx]:
                if np.isnan(v[j]):
                    v[j] = cost[idx, j] - u[idx]
                    queue.append(("c", j))
        else:
            for i in cols_of[idx]:
                if np.isnan(u[i]):
                    u[i] = cost[i, idx] - v[idx]
                    queue.append(("r", i))
    return u, v


def reference_cycle(cells, enter, m):
    adj = {}
    for cell in cells:
        i, j = cell
        adj.setdefault(i, []).append((m + j, cell))
        adj.setdefault(m + j, []).append((i, cell))
    start, goal = enter[0], m + enter[1]
    parent = {start: (-1, enter)}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, cell)
                queue.append(nxt)
    path = []
    node = goal
    while node != start:
        prev, cell = parent[node]
        path.append(cell)
        node = prev
    return [enter] + path


def reference_exact(a, b, p):
    cost = np.linalg.norm(a.atoms[:, None, :] - b.atoms[None, :, :], axis=2) ** p
    m, n = cost.shape
    eps = 1e-11 / m
    supply = a.weights + eps
    demand = b.weights.copy()
    demand[-1] += m * eps
    cells, masses = _northwest_corner(supply, demand)
    mass_of = dict(zip(cells, masses))
    tol = 1e-11 * float(np.max(cost))
    for _ in range(2000 + 60 * m * n):
        u, v = reference_duals(cells, cost, m, n)
        reduced = cost - u[:, None] - v[None, :]
        for (i, j) in cells:
            reduced[i, j] = 0.0
        flat = int(np.argmin(reduced))
        if reduced.flat[flat] >= -tol:
            break
        enter = (flat // n, flat % n)
        cycle = reference_cycle(cells, enter, m)
        minus = cycle[1::2]
        leave = minus[min(range(len(minus)), key=lambda t: (mass_of[minus[t]], minus[t]))]
        theta = mass_of[leave]
        mass_of[enter] = theta
        for t, cell in enumerate(cycle[1:], start=1):
            mass_of[cell] += theta if t % 2 == 0 else -theta
        del mass_of[leave]
        cells = [enter if c == leave else c for c in cells]
    else:
        raise AssertionError("reference simplex failed to converge")
    masses = np.maximum(_tree_flow(cells, a.weights, b.weights), 0.0)
    src = np.array([c[0] for c in cells], dtype=int)
    tgt = np.array([c[1] for c in cells], dtype=int)
    total = float(np.sum(masses * cost[src, tgt]))
    return float(total ** (1.0 / p)), src, tgt, masses, total


def reference_instance(rng, dim, ties, uniform, size=None):
    def measure():
        m = int(rng.integers(1, 26)) if size is None else size
        atoms = rng.normal(size=(m, dim))
        if ties:
            atoms = np.round(2.0 * atoms) / 2.0
        w = np.ones(m) if uniform else rng.random(m) + 0.05
        return make_discrete(atoms, w / w.sum())

    return measure(), measure()


def assert_matches_reference(a, b, p):
    dist, plan = wp_exact(a, b, p)
    ref_dist, src, tgt, masses, total = reference_exact(a, b, p)
    assert dist == ref_dist
    assert plan.cost == total
    assert np.array_equal(plan.sources, src)
    assert np.array_equal(plan.targets, tgt)
    assert np.array_equal(plan.masses, masses)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_matches_reference_pivot_loop(dim, p):
    rng = np.random.default_rng([dim, int(2 * p)])
    for k in range(20):
        a, b = reference_instance(rng, dim, ties=k % 2 == 0, uniform=k % 4 < 2)
        assert_matches_reference(a, b, p)
    # a long pivot run, whose re-hung subtrees are deep
    assert_matches_reference(*reference_instance(rng, dim, False, False, size=60), p)


@st.composite
def transport_instance(draw):
    """Two measures of 1-12 atoms in dimension 1-3, possibly of shape 1 x k
    or k x 1, with equal weights or atoms rounded to half integers (repeated
    atoms and tied costs), and an order."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12))
    m, n = draw(st.sampled_from([(1, k), (k, 1), (k, draw(st.integers(1, 12)))]))
    halves = draw(st.booleans())

    def measure(size):
        coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        atoms = np.array(draw(st.lists(coords, min_size=size * dim, max_size=size * dim)))
        if halves:
            atoms = np.round(2.0 * atoms) / 2.0
        if draw(st.booleans()):
            w = np.ones(size)
        else:
            w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
        return make_discrete(atoms.reshape(size, dim), w / w.sum())

    return measure(m), measure(n), draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))


@settings(max_examples=150, deadline=None)
@given(instance=transport_instance())
def test_exact_matches_reference_pivot_loop_on_drawn_instances(instance):
    assert_matches_reference(*instance)


class TestMetricAxioms:
    def test_axioms_on_random_triples(self, rng):
        for _ in range(60):
            dim = int(rng.integers(1, 4))
            p = float(rng.choice([1.0, 2.0]))
            a = random_discrete(rng, max_support=4, dim=dim)
            b = random_discrete(rng, max_support=4, dim=dim)
            c = random_discrete(rng, max_support=4, dim=dim)
            dab, _ = wp_exact(a, b, p)
            dba, _ = wp_exact(b, a, p)
            dbc, _ = wp_exact(b, c, p)
            dac, _ = wp_exact(a, c, p)
            daa, _ = wp_exact(a, a, p)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-10
            assert daa <= 1e-12
            assert dac <= dab + dbc + 1e-9

    def test_distance_to_origin_is_moment(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            p = float(rng.choice([1.0, 2.0, 3.0]))
            mu = random_discrete(rng, max_support=6, dim=dim)
            origin = make_discrete([np.zeros(dim)], [1.0])
            dist, _ = wp_exact(mu, origin, p)
            assert abs(dist - moment(mu, p)) <= 1e-10


class TestSliced:
    def test_identical_measures(self):
        a = make_discrete([[0.0, 1.0], [2.0, -1.0]], [0.5, 0.5])
        est = sliced_wp(a, a, SlicedConfig(p=2.0, num_directions=16, seed=0))
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_dirac_pair_expected_projection(self):
        a = make_discrete([[0.0, 0.0]], [1.0])
        b = make_discrete([[1.0, 0.0]], [1.0])
        est = sliced_wp(a, b, SlicedConfig(p=2.0, num_directions=100_000, seed=3))
        # E[u1^2] = 1/2 on the unit circle
        assert abs(est.power_mean - 0.5) <= 3.0 * est.stderr
        assert est.value == pytest.approx(np.sqrt(0.5), abs=3.0 * est.stderr)

    def test_average_below_maximum(self, rng):
        cfg = SlicedConfig(p=2.0, num_directions=64, seed=7)
        for _ in range(10):
            a = random_discrete(rng, max_support=5, dim=2)
            b = random_discrete(rng, max_support=5, dim=2)
            est = sliced_wp(a, b, cfg)
            assert est.value <= max_sliced_wp(a, b, cfg) + 3.0 * est.stderr + 1e-12

    def test_standard_error_of_tiny_powers_does_not_underflow(self):
        # the projected squares below are near 1e-200, and so their squared
        # deviations near 1e-400; the estimate must still be the one of the
        # measures 2^332 times larger, scaled back by 2^-664
        cfg = SlicedConfig(p=2.0, num_directions=64, seed=1)
        big = [make_discrete([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]),
               make_discrete([[0.0, 0.0], [3.0, 0.0]], [0.5, 0.5])]
        tiny = [make_discrete(np.ldexp(m.atoms, -332), m.weights) for m in big]
        est, small = sliced_wp(*big, cfg), sliced_wp(*tiny, cfg)
        assert 0.0 < small.stderr == np.ldexp(est.stderr, -664)
        assert small.power_mean == np.ldexp(est.power_mean, -664)

    def test_reproducible_given_seed(self):
        a = make_discrete([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        b = make_discrete([[0.5, 0.5]], [1.0])
        cfg = SlicedConfig(p=2.0, num_directions=128, seed=11)
        e1 = sliced_wp(a, b, cfg)
        e2 = sliced_wp(a, b, cfg)
        assert e1 == e2

    def test_dim_errors(self):
        a = dirac(0.0)
        cfg = SlicedConfig()
        with pytest.raises(ValueError):
            sliced_wp(a, a, cfg)
        with pytest.raises(ValueError):
            max_sliced_wp(a, a, cfg)
        b = make_discrete([[0.0, 0.0, 0.0]], [1.0])
        c = make_discrete([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            sliced_wp(b, c, cfg)


class TestMaxSliced:
    def test_dirac_pair_norm_2d(self):
        a = make_discrete([[0.0, 0.0]], [1.0])
        b = make_discrete([[3.0, 4.0]], [1.0])
        cfg = SlicedConfig(p=2.0, num_directions=32, seed=1)
        assert max_sliced_wp(a, b, cfg) == pytest.approx(5.0, abs=1e-8)

    def test_dirac_pair_norm_3d(self):
        a = make_discrete([[0.0, 0.0, 0.0]], [1.0])
        b = make_discrete([[1.0, 2.0, 2.0]], [1.0])
        cfg = SlicedConfig(p=1.0, num_directions=8, seed=5)
        assert max_sliced_wp(a, b, cfg) == pytest.approx(3.0, abs=1e-6)

    def test_identity(self):
        a = make_discrete([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        assert max_sliced_wp(a, a, SlicedConfig(num_directions=8, seed=0)) == 0.0

    def test_projection_contracts_exact_distance(self, rng):
        cfg = SlicedConfig(p=2.0, num_directions=64, seed=3)
        for _ in range(15):
            a = random_discrete(rng, max_support=4, dim=2)
            b = random_discrete(rng, max_support=4, dim=2)
            d_exact, _ = wp_exact(a, b, 2.0)
            assert max_sliced_wp(a, b, cfg) <= d_exact + 1e-8

    def test_nondecreasing_in_nested_grids(self, rng):
        # refinement lands within its tolerance times the slope of a kinked peak, so
        # monotonicity is asserted up to that solver noise
        for _ in range(8):
            a = random_discrete(rng, max_support=5, dim=2)
            b = random_discrete(rng, max_support=5, dim=2)
            vals = [
                max_sliced_wp(a, b, SlicedConfig(p=2.0, num_directions=k, seed=2))
                for k in (8, 16, 32, 64)
            ]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-7


class TestW1VsAnalytic:
    def test_dirac_at_gaussian_mean(self):
        law = gaussian_law(0.3, 0.25)
        # mean absolute deviation of a normal law is sigma sqrt(2/pi)
        assert w1_vs_analytic(dirac(0.3), law) == pytest.approx(
            0.25 * np.sqrt(2 / np.pi), abs=1e-12
        )

    def test_against_fine_discretization(self, rng):
        law = gaussian_law(0.2, 0.5)
        grid = (np.arange(20_000) + 0.5) / 20_000
        fine = make_discrete(law.quantile(grid), np.full(20_000, 1 / 20_000))
        for _ in range(5):
            d = random_discrete(rng, max_support=6, scale=0.5)
            approx = wp_quantile(d, fine, 1.0)
            assert w1_vs_analytic(d, law) == pytest.approx(approx, abs=5e-4)

    def test_uniform_law_exact(self):
        law = uniform_law(0.0, 1.0)
        # W1(delta_{1/2}, U(0,1)) = 2 int_0^{1/2} u du = 1/4
        assert w1_vs_analytic(dirac(0.5), law) == pytest.approx(0.25, abs=1e-14)
