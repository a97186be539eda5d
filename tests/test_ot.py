from bisect import bisect_left
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from distreg.ot import _tree_flow

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
    # the monotone coupling is optimal at every order, so it is the plan:
    # neither the simplex nor an m x n distance matrix is needed
    def unused(*args):
        raise AssertionError("the line took the path of the plane")

    monkeypatch.setattr(ot, "_transport_simplex", unused)
    monkeypatch.setattr(ot, "_distances", unused)
    for p in (1.0, 1.5, 2.0, 30.0):
        a, b = random_discrete(rng, max_support=30), random_discrete(rng, max_support=30)
        dist, plan = wp_exact(a, b, p)
        assert dist == wp_quantile(a, b, p)
        assert plan.pivots == 0
        assert np.abs(plan.marginal_source(a.support_size) - a.weights).max() <= 1e-12
        assert np.abs(plan.marginal_target(b.support_size) - b.weights).max() <= 1e-12


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("x", [1e-200, 1e-160, 1.0])
def test_exact_in_the_plane_equals_the_line_on_the_x_axis(x, p):
    # below about 2^-500 the squares of a pair's differences may underflow,
    # so that pair's norm is taken on differences scaled by a power of two;
    # p-th powers that leave the normal range are summed scaled the same way
    line = wp_exact(make_discrete([x, 2 * x], [0.25, 0.75]), dirac(0.0), p)[0]
    plane = wp_exact(
        make_discrete([[x, 0.0], [2 * x, 0.0]], [0.25, 0.75]), dirac([0.0, 0.0]), p
    )[0]
    assert plane == line
    assert line == wp_quantile(make_discrete([x, 2 * x], [0.25, 0.75]), dirac(0.0), p)
    if p == 1.0:
        assert plane == 0.25 * x + 0.75 * 2 * x
    assert plane == pytest.approx(x * (0.25 + 0.75 * 2**p) ** (1 / p), rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "atoms, weights, p, expected",
    [([1e-200], [1.0], 2.0, 1e-200),
     ([1e-160], [1.0], 2.0, 1e-160),
     ([1e-110], [1.0], 3.0, 1e-110),
     ([1e-200, 1.0], [0.5, 0.5], 2.0, 1e-200 / np.sqrt(2.0))],
    ids=["1e-200-p2", "1e-160-p2", "1e-110-p3", "half-1e-200-p2"],
)
def test_line_distances_whose_powers_underflow(atoms, weights, p, expected):
    # the same measure with each atom rounded to a whole number
    a, b = make_discrete(atoms, weights), make_discrete(np.round(atoms), weights)
    assert wp_quantile(a, b, p) == pytest.approx(expected, rel=1e-15, abs=0.0)
    value, plan = wp_exact(a, b, p)
    assert value == wp_quantile(a, b, p)
    assert plan.cost == value**p


@pytest.mark.parametrize(
    "atoms, weights, exact, max_sliced",
    [([[1e-200, 0.0], [0.0, 1e-200]], [0.5, 0.5], 1e-200, 1e-200 / np.sqrt(2.0)),
     ([[1e-160, 0.0]], [1.0], 1e-160, 1e-160)],
    ids=["two-1e-200", "1e-160"],
)
def test_plane_distances_whose_powers_underflow(atoms, weights, exact, max_sliced):
    a, b = make_discrete(atoms, weights), dirac([0.0, 0.0])
    assert wp_exact(a, b, 2.0)[0] == pytest.approx(exact, rel=1e-15, abs=0.0)
    got = max_sliced_wp(a, b, SlicedConfig(p=2.0))
    assert got == pytest.approx(max_sliced, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_scaling_the_atoms_by_a_power_of_two_scales_the_distance(rng, p):
    # scaled by 2^-k the powers leave the normal range, and the distance is
    # still 2^-k times the unscaled one
    for k in (600, 900):
        for dim in (1, 2):
            a, b = random_discrete(rng, 5, dim), random_discrete(rng, 5, dim)
            small_a = make_discrete(np.ldexp(a.atoms, -k), a.weights)
            small_b = make_discrete(np.ldexp(b.atoms, -k), b.weights)
            expected = np.ldexp(wp_exact(a, b, p)[0], -k)
            got = wp_exact(small_a, small_b, p)[0]
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
            if dim == 2:
                cfg = SlicedConfig(p=p, num_directions=16, seed=k)
                expected = np.ldexp(sliced_wp(a, b, cfg).value, -k)
                got = sliced_wp(small_a, small_b, cfg).value
                assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_exact_prices_the_plan_where_every_cost_underflows():
    # every squared distance is 0 as a double; the plan that keeps each atom
    # in place costs 0, the crossing one does not
    a = make_discrete([[0.0, 0.0], [1e-200, 0.0]], [0.5, 0.5])
    b = make_discrete([[1e-200, 0.0], [0.0, 0.0]], [0.5, 0.5])
    value, plan = wp_exact(a, b, 2.0)
    assert value == 0.0
    carried = plan.masses > 0
    assert sorted(zip(plan.sources[carried], plan.targets[carried])) == [(0, 1), (1, 0)]


def test_powers_that_underflow_in_the_plane_keep_their_digits():
    # every projection of the pair has W2 = 1e-200 / sqrt 2, and its norms
    # are 1e-200: their squares underflow to 0 as doubles
    a = make_discrete([[1e-200, 0.0], [0.0, 1e-200]], [0.5, 0.5])
    b = dirac([0.0, 0.0])
    assert wp_bruteforce(a, b, 2.0) == pytest.approx(1e-200, rel=1e-15, abs=0.0)
    assert moment(a, 2.0) == pytest.approx(1e-200, rel=1e-15, abs=0.0)
    assert moment(dirac(1e-200), 2.0) == 1e-200
    got = sliced_wp(a, b, SlicedConfig(p=2.0)).value
    assert got == pytest.approx(1e-200 / np.sqrt(2.0), rel=1e-15, abs=0.0)


def test_exact_in_the_plane_is_not_below_max_sliced_where_squares_underflow():
    a = make_discrete([[1e-200, 0.0], [0.0, 1e-200]], [0.5, 0.5])
    b = dirac([0.0, 0.0])
    assert wp_exact(a, b, 1.0)[0] == 1e-200
    assert wp_bruteforce(a, b, 1.0) == 1e-200
    assert max_sliced_wp(a, b, SlicedConfig(p=1.0)) <= 1e-200


def test_distances_keep_the_bits_of_the_norm_where_squares_are_normal(rng):
    xa = np.vstack((rng.normal(size=(5, 2)), [[0.0, 0.0]]))
    xb = np.vstack((rng.normal(size=(4, 2)), [[3e-200, 4e-200], [1.1125369292536007e-308, 0.0]]))
    got = ot._distances(xa, xb)
    plain = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=2)
    normal = plain >= 2.0**-500
    assert normal.sum() == 6 * 6 - 2
    assert np.array_equal(got[normal], plain[normal])
    assert got[5, 4] == pytest.approx(5e-200, rel=1e-15, abs=0.0)
    assert got[5, 5] == 1.1125369292536007e-308
    assert wp_bruteforce(dirac(1.1125369292536007e-308), dirac(0.0), 1.0) == 1.1125369292536007e-308


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
        # the guard bounds the simplex's cost matrix, which only the plane
        # and space build
        atoms = np.column_stack((np.arange(1001.0), np.zeros(1001)))
        big = make_discrete(atoms, np.full(1001, 1 / 1001))
        with pytest.raises(ValueError, match="guard"):
            wp_exact(big, big, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            wp_exact(dirac(0.0), make_discrete([[0.0, 0.0]], [1.0]), 1.0)

    def test_degenerate_uniform_weights(self):
        # equal masses tie the cumulative weights of the two measures, so the
        # quantile merge has segments of length 0; the plan leaves them out
        # and moves each atom to its shifted copy
        a = make_discrete(np.arange(8.0), np.full(8, 1 / 8))
        b = make_discrete(np.arange(8.0) + 0.25, np.full(8, 1 / 8))
        d_exact, plan = wp_exact(a, b, 1.0)
        assert d_exact == pytest.approx(wp_quantile(a, b, 1.0), abs=1e-9)
        assert np.array_equal(plan.sources, np.arange(8))
        assert np.array_equal(plan.targets, np.arange(8))

    def test_bruteforce_support_guard(self):
        big = make_discrete(np.arange(5.0), np.full(5, 0.2))
        with pytest.raises(ValueError, match="brute force"):
            wp_bruteforce(big, big, 1.0)


# Reference transportation simplex: a pivot loop that rebuilds the basis
# graph twice per pivot, once for the duals and once for the cycle, from a
# starting basis that it is given.  ``wp_exact`` updates one basis tree in
# place from the least-cost start, and must reproduce these plans bit for
# bit when the loop starts there.  From the northwest corner the loop takes
# other pivots to a plan of the same cost, an oracle for the start itself
# and, on the line, where the northwest corner of the sorted supports is
# the monotone coupling, for the quantile merge that ``wp_exact`` takes.


def least_cost_start(cost, supply, demand):
    """The least-cost start written apart from ``ot``: the open cells in
    ascending (cost, flat index) order each take what is left of the
    smaller of their row and column, and close the line that runs out,
    keeping one row and one column open until the m + n - 1st cell."""
    m, n = cost.shape
    rows, cols = set(range(m)), set(range(n))
    left_a, left_b = list(supply), list(demand)
    cells, masses = [], []
    for flat in sorted(range(m * n), key=lambda f: (cost.flat[f], f)):
        i, j = divmod(flat, n)
        if i not in rows or j not in cols:
            continue
        t = min(left_a[i], left_b[j])
        cells.append((i, j))
        masses.append(t)
        if len(cells) == m + n - 1:
            return cells, masses
        left_a[i] -= t
        left_b[j] -= t
        # a row runs out exactly when its supply was at most the demand
        if len(cols) == 1 or (len(rows) > 1 and left_a[i] == 0.0):
            rows.remove(i)
        else:
            cols.remove(j)
    raise AssertionError("the least-cost start did not span the lines")


def northwest_corner(a, b):
    """The northwest-corner basis of marginals ``a`` and ``b``: from cell
    (0, 0), each cell takes what is left of the smaller of its row and
    column and steps past the line that runs out."""
    m, n = len(a), len(b)
    cells, masses = [], []
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        t = min(ra, rb)
        cells.append((i, j))
        masses.append(t)
        if ra <= rb:
            i += 1
            rb -= t
            if i == m:
                break
            ra = a[i]
        else:
            j += 1
            ra -= t
            if j == n:
                break
            rb = b[j]
    return cells, masses


def northwest_corner_start(cost, supply, demand):
    return northwest_corner(supply, demand)


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


def reference_distances(a, b):
    """The distances between the atoms of ``a`` and those of ``b``: |x - y|
    on the line; elsewhere each pair's norm, taken of its differences scaled
    by the power of two of the largest one, so that no square underflows,
    and scaled back.  Where the squares are normal the scaling keeps the
    bits of the plain norm."""
    diffs = a.atoms[:, None, :] - b.atoms[None, :, :]
    if a.dim == 1:
        return np.abs(diffs[:, :, 0])
    shift = np.frexp(np.abs(diffs).max(axis=2))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(diffs, -shift[:, :, None]), axis=2), shift)


def reference_exact(a, b, p, start):
    """The distance, the plan's sources, targets, masses and cost, and the
    number of pivots, from the basis ``start(cost, supply, demand)`` on the
    perturbed marginals."""
    cost = reference_distances(a, b) ** p
    m, n = cost.shape
    eps = 1e-11 / m
    supply = a.weights + eps
    demand = b.weights.copy()
    demand[-1] += m * eps
    cells, masses = start(cost, supply, demand)
    mass_of = dict(zip(cells, masses))
    tol = 1e-11 * float(np.max(cost))
    for pivots in range(2000 + 60 * m * n):
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
    return float(total ** (1.0 / p)), src, tgt, masses, total, pivots


def reference_instance(rng, dim, ties, uniform, size=None):
    def measure():
        m = int(rng.integers(1, 26)) if size is None else size
        atoms = rng.normal(size=(m, dim))
        if ties:
            atoms = np.round(2.0 * atoms) / 2.0
        w = np.ones(m) if uniform else rng.random(m) + 0.05
        return make_discrete(atoms, w / w.sum())

    return measure(), measure()


def pinned_instances(dim, p):
    """20 small instances, half with tied costs and half with equal
    weights, and a long pivot run, whose re-hung subtrees are deep."""
    rng = np.random.default_rng([dim, int(2 * p)])
    for k in range(20):
        yield reference_instance(rng, dim, ties=k % 2 == 0, uniform=k % 4 < 2)
    yield reference_instance(rng, dim, False, False, size=60)


def quantile_coupling(a, b):
    """The monotone coupling on the line, written apart from ``ot``: the
    cumulative weights of both measures but their last cut (0, 1) into
    segments, and each segment of positive length carries its length from
    the first atom of ``a`` and the first atom of ``b`` whose cumulative
    weight reaches its midpoint."""
    ca, cb = a.cum_weights.tolist(), b.cum_weights.tolist()
    cuts = [0.0] + sorted(ca[:-1] + cb[:-1]) + [1.0]
    src, tgt, masses = [], [], []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > 0.0:
            mid = 0.5 * (lo + hi)
            src.append(min(bisect_left(ca, mid), len(ca) - 1))
            tgt.append(min(bisect_left(cb, mid), len(cb) - 1))
            masses.append(hi - lo)
    return src, tgt, masses


def assert_matches_reference(a, b, p):
    dist, plan = wp_exact(a, b, p)
    if a.dim == 1:
        # the plan is the quantile coupling, and its cost that of the
        # northwest-corner loop
        src, tgt, masses = quantile_coupling(a, b)
        assert dist == wp_quantile(a, b, p)
        assert plan.sources.tolist() == src
        assert plan.targets.tolist() == tgt
        assert plan.masses.tolist() == masses
        assert plan.pivots == 0
        assert_cost_matches_the_northwest_corner(a, b, p)
        return
    ref_dist, src, tgt, masses, total, pivots = reference_exact(a, b, p, least_cost_start)
    assert dist == ref_dist
    assert plan.cost == total
    assert np.array_equal(plan.sources, src)
    assert np.array_equal(plan.targets, tgt)
    assert np.array_equal(plan.masses, masses)
    assert plan.pivots == pivots


def assert_cost_matches_the_northwest_corner(a, b, p):
    cost = wp_exact(a, b, p)[1].cost
    old = reference_exact(a, b, p, northwest_corner_start)[4]
    # the two sums round differently: equal measures built two ways may
    # have cumulative weights an ulp apart, which the two plans may move
    # as far as the largest distance, or not at all
    top = float(np.max(reference_distances(a, b) ** p))
    rounding = (a.support_size + b.support_size) * np.finfo(float).eps * top
    assert abs(cost - old) <= 1e-12 * old + rounding


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_matches_reference_pivot_loop(dim, p):
    for a, b in pinned_instances(dim, p):
        assert_matches_reference(a, b, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_exact_cost_matches_the_northwest_corner_loop(dim, p):
    for a, b in pinned_instances(dim, p):
        assert_cost_matches_the_northwest_corner(a, b, p)


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


def drawn_line_measure(atoms, w):
    """A measure on the line built as ``transport_instance`` builds one."""
    w = np.asarray(w, dtype=float)
    return make_discrete(np.array(atoms, dtype=float)[:, None], w / w.sum())


# drawn instances on which the reference loop was off, not ``wp_exact``:
# cumulative weights an ulp apart, where the exact W1 of the doubles is an
# ulp and the loop gave 0 or 2.8e-17; and a distance whose square underflows
ROUNDING_INSTANCES = [
    (drawn_line_measure([0, 0, 1], np.ones(3)), drawn_line_measure([0] * 6 + [1] * 3, np.ones(9)), 1.0),
    (drawn_line_measure([0] * 5 + [1], np.ones(6)), drawn_line_measure([0, 1], [0.25, 0.05]), 1.0),
    (drawn_line_measure([1.1125369292536007e-308], [1.0]), drawn_line_measure([0.0], [1.0]), 1.0),
]


@settings(max_examples=150, deadline=None)
@given(instance=transport_instance())
@example(instance=ROUNDING_INSTANCES[0])
@example(instance=ROUNDING_INSTANCES[1])
@example(instance=ROUNDING_INSTANCES[2])
def test_exact_matches_reference_pivot_loop_on_drawn_instances(instance):
    assert_matches_reference(*instance)


@settings(max_examples=150, deadline=None)
@given(instance=transport_instance())
@example(instance=ROUNDING_INSTANCES[0])
@example(instance=ROUNDING_INSTANCES[1])
@example(instance=ROUNDING_INSTANCES[2])
def test_exact_cost_matches_the_northwest_corner_loop_on_drawn_instances(instance):
    assert_cost_matches_the_northwest_corner(*instance)


@st.composite
def line_instance(draw):
    """Two measures of 1-4 atoms on the line, drawn from six values (so
    atoms repeat within and across the measures), with equal weights or
    weights such as 1/3 and 0.1, and an order."""

    def measure():
        size = draw(st.integers(1, 4))
        atoms = draw(st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.0, 2.5]),
                              min_size=size, max_size=size))
        if draw(st.booleans()):
            w = np.ones(size)
        else:
            w = np.array(draw(st.lists(st.sampled_from([1 / 3, 0.1, 0.7, 1.0, 0.05]),
                                       min_size=size, max_size=size)))
        return make_discrete(np.array(atoms), w / w.sum())

    return measure(), measure(), draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 30.0]))


@settings(max_examples=300, deadline=None)
@given(instance=line_instance())
# weights 1/3 and 2/3 built two ways, an ulp apart: the enumeration meets a
# vertex with a mass of about -6e-17, and the exact cost is that ulp, whose
# p-th root is about 1e-11
@example(
    instance=(
        drawn_line_measure([-0.5, 0.5, 0.5], np.full(3, 0.7)),
        drawn_line_measure([-0.5, 0.5], [0.05, 0.1]),
        1.5,
    )
)
def test_exact_on_the_line_matches_vertex_enumeration(instance):
    # the costs are compared, not their p-th roots, which blow a cost at the
    # rounding level of the masses up far beyond it
    a, b, p = instance
    cost = wp_exact(a, b, p)[1].cost
    assert cost == pytest.approx(wp_bruteforce(a, b, p) ** p, rel=1e-9, abs=1e-12)


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


@st.composite
def start_instance(draw):
    """A cost matrix of shape 1 x k, k x 1 or k x k with few distinct values
    (so many ties), and marginals that are uniform or built from weights
    such as 1/3 and 0.1, whose perturbed totals differ by rounding."""
    k = draw(st.integers(1, 12))
    m, n = draw(st.sampled_from([(1, k), (k, 1), (k, k)]))
    cost = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1 / 3]),
                                  min_size=m * n, max_size=m * n))).reshape(m, n)

    def marginal(size):
        if draw(st.booleans()):
            return np.full(size, 1.0 / size)
        w = np.array(draw(st.lists(st.sampled_from([1 / 3, 0.1, 0.7, 1.0, 0.05]),
                                   min_size=size, max_size=size)))
        return w / w.sum()

    return cost, marginal(m), marginal(n)


def assert_spanning_start(cost, a, b):
    m, n = cost.shape
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cells, masses = ot._least_cost_start(cost, a, b)
    assert len(cells) == m + n - 1
    parent = list(range(m + n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in cells:
        ri, rj = find(i), find(m + j)
        assert ri != rj, "the cells close a cycle"
        parent[ri] = rj
    assert len({find(x) for x in range(m + n)}) == 1
    masses = np.array(masses)
    rows, cols = (np.array(c, dtype=int) for c in zip(*cells))
    assert masses.min() >= 0.0
    assert np.abs(np.bincount(rows, masses, minlength=m) - a).max() <= 1e-15
    assert np.abs(np.bincount(cols, masses, minlength=n) - b).max() <= 1e-15


@settings(max_examples=300, deadline=None)
@given(instance=start_instance())
def test_least_cost_start_is_a_spanning_tree_on_the_perturbed_marginals(instance):
    cost, supply, demand = instance
    assert_spanning_start(cost, *ot._perturbed(supply, demand))


def test_least_cost_start_keeps_the_last_row_and_column_open():
    # totals that differ in their last bits: closing the line that runs
    # out would close the last open row or column and leave a line that
    # still holds an ulp out of the tree
    up, down = np.nextafter(0.6, 1.0), np.nextafter(0.4, 0.0)
    # after cell (0, 1), row 1 is the last open row; it runs out on cell
    # (1, 0) while column 1 still holds an ulp
    assert_spanning_start(np.array([[3.0, 0.0], [1.0, 2.0]]), [0.6, 0.4], [0.4, up])
    # after cell (0, 0), column 1 is the last open column; it runs out on
    # cell (1, 1) while row 0 still holds an ulp
    assert_spanning_start(np.array([[0.0, 2.0], [3.0, 1.0]]), [up, 0.4], [0.6, down])


def test_least_cost_start_takes_fewer_pivots_than_the_northwest_corner():
    # a 150 x 150 pair drawn as the benchmark draws its largest: standard
    # normal atoms in the plane, the second measure shifted by (0.5, 0),
    # and weights U(0, 1) + 0.05, normalised
    rng = np.random.default_rng(5)

    def measure(shift):
        atoms = rng.standard_normal((150, 2)) + shift
        w = rng.random(150) + 0.05
        return make_discrete(atoms, w / w.sum())

    a, b = measure((0.0, 0.0)), measure((0.5, 0.0))
    plan = wp_exact(a, b, 1.0)[1]
    _, _, _, _, total, pivots = reference_exact(a, b, 1.0, northwest_corner_start)
    assert 0 < plan.pivots < pivots
    assert abs(plan.cost - total) <= 1e-12 * total
