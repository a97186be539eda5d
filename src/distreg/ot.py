"""Wasserstein distances between finitely supported measures.

One-dimensional distances are evaluated in closed form (quantile-function
merge for any order, CDF-difference integration for order 1).  The order-1
forms, :func:`w1_cdf` and :func:`w1_vs_analytic`, work row by row over a
:class:`MeasureBatch` and give a float for a single measure, which is a
batch of one row.  Higher dimensions use an exact network-simplex solver,
with a brute-force vertex enumeration available as an independent oracle,
plus Monte-Carlo sliced and grid-refined max-sliced estimates.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._rng import stream
from .measures import (
    _POWER_LOW,
    AnalyticDistribution1D,
    DiscreteDistribution,
    MeasureBatch,
    _norms,
    _per_row,
    _power_sum,
    _row_sums,
)

SIZE_GUARD = 1_000_000
_STREAM_TAG = 71  # domain tag for direction sampling
# the transportation simplex gives up after base + per-cell * m * n pivots
_PIVOTS_BASE, _PIVOTS_PER_CELL = 2000, 60
_ASCENT_SWEEPS = 40  # most coordinate sweeps of one max-sliced ascent (d >= 3)
_REFINE_TOL = 1e-9  # bracket width at which a max-sliced golden section stops


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap; indicates a bug."""


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two discrete measures.

    ``sources``/``targets`` index the atoms of the two inputs; ``masses`` is
    the transported mass per pair.  ``cost`` is the total p-power objective
    sum(mass * ||y_src - y_tgt||^p), and ``pivots`` the number of simplex
    pivots from the least-cost start to the plan, 0 on the line.
    """

    sources: np.ndarray
    targets: np.ndarray
    masses: np.ndarray
    cost: float
    pivots: int = 0

    def marginal_source(self, m: int) -> np.ndarray:
        return np.bincount(self.sources, weights=self.masses, minlength=m)

    def marginal_target(self, n: int) -> np.ndarray:
        return np.bincount(self.targets, weights=self.masses, minlength=n)


@dataclass(frozen=True)
class SlicedConfig:
    """Settings for sliced / max-sliced estimation."""

    p: float = 2.0
    num_directions: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:
            raise ValueError("order p must be finite and >= 1")
        if self.num_directions < 1:
            raise ValueError("num_directions must be >= 1")


@dataclass(frozen=True)
class SlicedEstimate:
    value: float
    stderr: float  # standard error of the mean of the p-th powers
    power_mean: float


# ---------------------------------------------------------------------------
# 1-d closed forms


def _require_pair_dim1(a: MeasureBatch, b: MeasureBatch) -> None:
    if a.dim != 1 or b.dim != 1:
        raise ValueError("both measures must be one-dimensional")


def w1_cdf(a: MeasureBatch, b: MeasureBatch):
    """Order-1 distance between row i of ``a`` and row i of ``b``, as the
    integral of |F_a - F_b|: the integrand is constant between consecutive
    points of the merged support, so the integral is an exact finite sum.
    A float for two DiscreteDistributions, and one value per row otherwise;
    a distance beyond the double range raises OverflowError.

    One stable sort by (row, atom) merges every pair of supports; each
    measure's CDF at a merged point is the cumulative weight of its last
    atom at or before that point in the row.  Between tied points the
    segment length is zero, so the tie order does not matter.
    """
    _require_pair_dim1(a, b)
    if len(a) != len(b):
        raise ValueError(f"row count mismatch: {len(a)} vs {len(b)}")
    na = a.weights.shape[0]
    points = np.concatenate((a.atoms[:, 0], b.atoms[:, 0]))
    order = np.lexsort((points, np.concatenate((a.rows, b.rows))))
    grid = points[order]
    offsets = a.offsets + b.offsets  # rows of the merged support
    row_start = np.repeat(offsets[:-1], np.diff(offsets))
    pos = np.arange(order.shape[0])

    def cdf_on_grid(mine: np.ndarray, cum: np.ndarray, shift: int) -> np.ndarray:
        last = np.maximum.accumulate(np.where(mine, pos, -1))
        at = np.where(last >= row_start, order[last] - shift + 1, 0)
        return np.concatenate(([0.0], cum))[at]

    fa = cdf_on_grid(order < na, a.cum_weights, 0)
    fb = cdf_on_grid(order >= na, b.cum_weights, na)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.diff(grid) * np.abs(fa[:-1] - fb[:-1])
        # drop the step from each row's last point to the next row's first
        terms = np.delete(terms, offsets[1:-1] - 1)
        values = _row_sums(terms, offsets - np.arange(offsets.shape[0]))
    _require_in_range(values.max(initial=0.0))
    return _per_row(values, a, b)


def wp_quantile(a: DiscreteDistribution, b: DiscreteDistribution, p: float) -> float:
    """Order-p distance via the quantile-function representation.

    Merges the two cumulative-weight breakpoint sequences; on each of the
    O(m_a + m_b) segments both quantile functions are constant, so the
    integral of |Fa^{-1} - Fb^{-1}|^p is evaluated exactly.
    """
    _require_pair_dim1(a, b)
    if not 1.0 <= p < np.inf:
        raise ValueError("order p must be finite and >= 1")
    return _quantile_power(a.xs, a.cum_weights, b.xs, b.cum_weights, p)[1]


def _quantile_power(xa, ca, xb, cb, p):
    """int_0^1 |Qa(u) - Qb(u)|^p du and its p-th root, as :func:`_power_sum`
    gives them, for sorted atoms with cumulative weights, and the monotone
    coupling: segment s of the merge moves ``lengths[s]`` from atom
    ``ia[s]`` to atom ``ib[s]``."""
    cuts = np.sort(np.concatenate((ca[:-1], cb[:-1])))
    lo = np.concatenate(([0.0], cuts))
    hi = np.concatenate((cuts, [1.0]))
    lengths = hi - lo
    mids = 0.5 * (lo + hi)
    ia = np.minimum(np.searchsorted(ca, mids, side="left"), len(xa) - 1)
    ib = np.minimum(np.searchsorted(cb, mids, side="left"), len(xb) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(xa[ia] - xb[ib])
    top = gaps.max()  # inf or nan when a gap overflowed
    _require_in_range(top)
    _require_power_in_range(top, p)
    return *_power_sum(lengths, gaps, p), ia, ib, lengths


def _require_in_range(value, what="a distance") -> None:
    """Raise OverflowError when ``what`` between atoms was beyond the double
    range and came out inf or nan."""
    if not math.isfinite(value):
        raise OverflowError(f"the atoms are too far apart: {what} overflows a double")


def _require_power_in_range(top, p) -> None:
    """Raise ValueError when ``top ** p``, the largest term of a sum of p-th
    powers weighted by masses summing to 1, overflows a double."""
    try:
        float(top) ** float(p)  # a numpy p would give inf, not OverflowError
    except OverflowError:
        raise _order_too_large(p, top) from None


def _order_too_large(p, top) -> ValueError:
    return ValueError(
        f"order p = {p:g} is too large: the largest distance {float(top):g} "
        "to the power p overflows"
    )


def w1_vs_analytic(dist: MeasureBatch, law: AnalyticDistribution1D, shifts=None):
    """Order-1 distance between row i of ``dist`` and ``law`` shifted by
    ``shifts[i]`` (0 by default), the law of Y + shifts[i] for Y ~ law: a
    float for a DiscreteDistribution, and one value per row for a batch.

    |F_hat - F| is integrated in closed form segment by segment over each
    row's atoms, through the law's exact ``integrated_cdf``.  The shifted
    law's integrated CDF is z -> G(z - s) and its quantile u -> Q(u) + s,
    so for the closed forms of :func:`gaussian_law` a row has the bits of
    ``gaussian_law(s, sigma)``.
    """
    if dist.dim != 1:
        raise ValueError("discrete measures must be one-dimensional")
    if shifts is None:
        shifts = np.zeros(len(dist))
    shifts = np.asarray(shifts, dtype=float).reshape(-1)
    if shifts.shape[0] != len(dist):
        raise ValueError(f"need one shift per row: {shifts.shape[0]} vs {len(dist)}")
    gc = law.integrated_cdf
    xs, cum, offsets = dist.atoms[:, 0], dist.cum_weights, dist.offsets
    at_shift = shifts[dist.rows]
    g_at = np.asarray(gc(xs - at_shift), dtype=float)
    first, last = offsets[:-1], offsets[1:] - 1
    # the segments between consecutive atoms of a row start at every atom
    # but the last of its row
    j = np.delete(np.arange(xs.shape[0]), last)
    c, s = cum[j], at_shift[j]
    zstar = np.clip(np.asarray(law.quantile(c), dtype=float) + s, xs[j], xs[j + 1])
    g_star = np.asarray(gc(zstar - s), dtype=float)
    below = c * (zstar - xs[j]) - (g_star - g_at[j])
    above = (g_at[j + 1] - g_star) - c * (xs[j + 1] - zstar)
    total = g_at[first] + _row_sums(below + above, offsets - np.arange(offsets.shape[0]))
    return _per_row(total + ((g_at[last] - xs[last]) + (law.mean + shifts)), dist)


# ---------------------------------------------------------------------------
# Exact discrete optimal transport


def wp_exact(
    a: DiscreteDistribution, b: DiscreteDistribution, p: float
) -> tuple[float, TransportPlan]:
    """Exact order-p distance between discrete measures of any dimension,
    and an optimal plan.

    On the line the plan is the monotone coupling of the quantile merge,
    optimal for every p >= 1, less its segments of length 0; the distance is
    that of :func:`wp_quantile`, bit for bit, and no simplex runs.  For d >= 2
    a network simplex solves the transportation problem with cost
    ||y_i - y_j||^p when m * n is at most ``SIZE_GUARD``.  It starts from the
    least-cost basis, the cheapest cells first; Dantzig's rule picks the
    entering cell, a supply perturbation removes degeneracy and ties are
    broken lexicographically.  The basis tree keeps its parents, depths and
    duals across pivots; a pivot re-hangs the subtree that the leaving cell
    cuts off and recomputes only that subtree's duals, by the same recurrence
    as a full rebuild, so every dual keeps its bits.  The plan is paid at the
    unscaled powers, so only a transported distance whose power overflows
    fails.  Where the powers come near the top of the double range or beyond
    it, the plan is found on distances scaled by a power of two, and rejected
    where the scaling prices a transported cell too close to 0 for the
    simplex's tolerance to tell apart.  Where the largest power is below
    ``_POWER_LOW`` the plan is found on the same scaled distances, and a
    plan whose cost is below it is paid as :func:`_power_sum` pays it.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not 1.0 <= p < np.inf:
        raise ValueError("order p must be finite and >= 1")
    if a.dim == 1:
        power, root, ia, ib, lengths = _quantile_power(a.xs, a.cum_weights, b.xs, b.cum_weights, p)
        kept = lengths > 0.0
        return root, TransportPlan(ia[kept], ib[kept], lengths[kept], cost=power)
    m, n = a.support_size, b.support_size
    if m * n > SIZE_GUARD:
        raise ValueError(f"support product {m * n} exceeds guard {SIZE_GUARD}")
    dists = _distances(a.atoms, b.atoms)
    with np.errstate(over="ignore"):
        cost = dists**p
    # a dual is an alternating sum of up to m + n costs, and a reduced cost
    # subtracts two duals from a cost: all of them must stay finite
    top_cost = float(cost.max())
    scaled = not math.isfinite(top_cost * 4 * (m + n))
    priced = cost
    if scaled or (top_cost < _POWER_LOW and dists.max() > 0):
        # the largest scaled power stays below 2^1000, and m + n < 2^20
        # under the size guard
        shift = int(np.frexp(dists.max())[1]) - math.floor(1000 / p)
        priced = np.ldexp(dists, -shift) ** p
    cells, masses, pivots = _transport_simplex(priced, a.weights, b.weights)
    src, tgt = np.array(cells, dtype=int).T
    masses = np.maximum(masses, 0.0)
    carried = masses > 0.0
    total, root = _power_sum(masses, np.where(carried, dists[src, tgt], 0.0), p)
    if not math.isfinite(total):
        raise _order_too_large(p, dists[src, tgt][carried].max())
    if scaled:
        unpriced = priced[src, tgt] < _tolerance(priced)
        blurred = carried & unpriced & (cost[src, tgt] > 0)
        if blurred.any():
            raise ValueError(
                f"order p = {p:g} is too large: next to the largest distance "
                f"{float(dists.max()):g} to the power p, the transported distance "
                f"{float(dists[src, tgt][blurred].max()):g} to the power p cannot "
                "be told from 0"
            )
    plan = TransportPlan(
        sources=src, targets=tgt, masses=masses, cost=total, pivots=pivots
    )
    return root, plan


def _distances(xa, xb):
    """Euclidean distances between the rows of ``xa`` and those of ``xb``,
    each pair's as :func:`_norms` takes it; a difference or a distance
    beyond the double range raises OverflowError."""
    with np.errstate(over="ignore"):
        dists = _norms(xa[:, None, :] - xb[None, :, :])
    _require_in_range(dists.max())
    return dists


def _tolerance(cost):
    """The simplex stops once no reduced cost is below minus this.  It is
    relative to the largest cost, so scaling every atom by one factor
    scales the tolerance with the costs and leaves the plan unchanged."""
    return 1e-11 * float(np.max(cost))


def _transport_simplex(cost, supply, demand):
    """The plan's cells, its masses on the true marginals and the number of
    pivots taken from the least-cost start."""
    m, n = cost.shape
    cells, masses = _least_cost_start(cost, *_perturbed(supply, demand))
    # The basis is a spanning tree over row nodes 0..m-1 and column nodes
    # m..m+n-1, updated in place; a cell (i, j) is keyed by i * n + j, which
    # orders cells as the (i, j) tuples do.  ``basis`` keeps each cell in
    # the slot of the cell it replaced, the order of the returned plan.
    basis = [i * n + j for i, j in cells]
    basic = np.array(basis, dtype=np.intp)
    slot_of = {cell: s for s, cell in enumerate(basis)}
    mass_of = dict(zip(basis, masses))
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in cells:
        adj[i].add(m + j)
        adj[m + j].add(i)
    costs = cost.ravel().tolist()
    tol = _tolerance(cost)
    parent, depth, dual = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    _grow(0, adj, costs, parent, depth, dual, m, n)
    reduced = np.empty_like(cost)

    for pivots in range(_PIVOTS_BASE + _PIVOTS_PER_CELL * m * n):
        duals = np.array(dual, dtype=float)
        np.subtract(cost, duals[:m, None], out=reduced)
        np.subtract(reduced, duals[None, m:], out=reduced)
        reduced.flat[basic] = 0.0
        enter = int(reduced.argmin())
        if reduced.flat[enter] >= -tol:
            break
        # The entering cell closes a cycle with the tree path from its column
        # to its row, found by walking the deeper end up until the ends meet
        # (the cell joining row node i and column node m + j is i * n + j);
        # cells at even positions (from ``enter``) gain mass, odd ones lose it.
        col, row = m + enter % n, enter // n
        up_col, up_row = [], []
        while col != row:
            if depth[col] >= depth[row]:
                up = parent[col]
                up_col.append(col * n + up - m if col < m else up * n + col - m)
                col = up
            else:
                up = parent[row]
                up_row.append(row * n + up - m if row < m else up * n + row - m)
                row = up
        cycle = [enter] + up_col + up_row[::-1]
        leave = min(cycle[1::2], key=lambda cell: (mass_of[cell], cell))
        theta = mass_of[leave]
        mass_of[enter] = theta
        for t, cell in enumerate(cycle[1:], start=1):
            mass_of[cell] += theta if t % 2 == 0 else -theta
        del mass_of[leave]
        slot = slot_of.pop(leave)
        basis[slot] = basic[slot] = enter
        slot_of[enter] = slot
        for cell, update in ((leave, set.remove), (enter, set.add)):
            i, j = divmod(cell, n)
            update(adj[i], m + j)
            update(adj[m + j], i)
        # Dropping ``leave`` cuts off the subtree below it, which holds the
        # end of ``enter`` on the same side of the cycle; re-hang the subtree
        # from that end.  Only its nodes change root path, so only their
        # parents, depths and duals are recomputed.
        inner, outer = m + enter % n, enter // n
        if leave in up_row:
            inner, outer = outer, inner
        parent[inner], depth[inner] = outer, depth[outer] + 1
        dual[inner] = costs[enter] - dual[outer]
        _grow(inner, adj, costs, parent, depth, dual, m, n)
    else:
        raise ConvergenceError("transportation simplex failed to converge")

    # Re-solve the flow on the final basis with the unperturbed marginals so
    # the plan matches the inputs exactly.
    cells = [divmod(cell, n) for cell in basis]
    exact = _tree_flow(cells, np.asarray(supply, float), np.asarray(demand, float))
    return cells, exact, pivots


def _perturbed(supply, demand):
    """Supplies perturbed so no partial sums tie: masses stay strictly
    positive along the pivots, which rules out degenerate cycling."""
    eps = 1e-11 / max(len(supply), 1)
    a = np.asarray(supply, dtype=float) + eps
    b = np.asarray(demand, dtype=float).copy()
    b[-1] += len(supply) * eps
    return a, b


def _least_cost_start(cost, a, b):
    """A basic plan of m + n - 1 cells from the cheapest cells first, the
    least-cost start of the classical transportation method.

    Cells are visited in ascending cost, ties by flat index.  A cell whose
    row and column are both open takes the smaller of what is left of the
    two, and the line it exhausts closes; the last open row and the last
    open column stay open until the final cell, so every cell closes one
    line and the cells span the row and column nodes.
    """
    m, n = cost.shape
    left_a, left_b = a.tolist(), b.tolist()
    open_row, open_col = [True] * m, [True] * n
    rows, cols = m, n  # lines still open
    cells, masses = [], []
    for flat in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if not (open_row[i] and open_col[j]):
            continue
        ra, rb = left_a[i], left_b[j]
        t = min(ra, rb)
        cells.append((i, j))
        masses.append(t)
        if len(cells) == m + n - 1:
            break
        left_a[i], left_b[j] = ra - t, rb - t
        if (ra <= rb and rows > 1) or cols == 1:
            open_row[i] = False
            rows -= 1
        else:
            open_col[j] = False
            cols -= 1
    return cells, masses


def _grow(top, adj, costs, parent, depth, dual, m, n):
    """Fill in the parents, depths and duals of the basis tree below ``top``,
    whose own are set.

    The tree is rooted at row 0.  Each dual is fixed along the unique tree
    path from the root (u_0 = 0, u_i + v_j = c_ij on every basis cell), so
    its value does not depend on the order in which nodes are visited, nor
    on whether it was computed in one pass or in a re-hung subtree.
    """
    stack = [top]
    while stack:
        node = stack.pop()
        up, below, reach = parent[node], depth[node] + 1, dual[node]
        # the cell joining ``node`` to ``other`` is costs[at + step * other]
        at, step = (node * n - m, 1) if node < m else (node - m, n)
        for other in adj[node]:
            if other != up:
                parent[other] = node
                depth[other] = below
                dual[other] = costs[at + step * other] - reach
                stack.append(other)


def _tree_flow(cells, supply, demand):
    """Solve the flow on a spanning-tree basis by stripping leaves."""
    m, n = len(supply), len(demand)
    residual = np.concatenate((supply, demand))
    incident: list[list[int]] = [[] for _ in range(m + n)]
    for idx, (i, j) in enumerate(cells):
        incident[i].append(idx)
        incident[m + j].append(idx)
    degree = np.array([len(lst) for lst in incident])
    alive = np.ones(len(cells), dtype=bool)
    masses = np.zeros(len(cells))
    leaves = deque(node for node in range(m + n) if degree[node] == 1)
    while leaves:
        node = leaves.popleft()
        edge = next((e for e in incident[node] if alive[e]), None)
        if edge is None:
            continue
        masses[edge] = residual[node]
        alive[edge] = False
        i, j = cells[edge]
        other = m + j if node == i else i
        residual[other] -= residual[node]
        residual[node] = 0.0
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return masses


def wp_bruteforce(
    a: DiscreteDistribution, b: DiscreteDistribution, p: float, max_support: int = 4
) -> float:
    """Exhaustive minimum over transportation-polytope vertices.

    Every basic feasible solution corresponds to a spanning tree of the
    bipartite support graph; all of them are enumerated, so this is an
    independent (if slow) oracle limited to small supports.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    m, n = a.support_size, b.support_size
    if m > max_support or n > max_support:
        raise ValueError(f"brute force limited to supports <= {max_support}")
    dists = _distances(a.atoms, b.atoms)
    all_cells = [(i, j) for i in range(m) for j in range(n)]
    best = np.inf
    nodes = m + n
    for combo in combinations(all_cells, nodes - 1):
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for (i, j) in combo:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        masses = _tree_flow(list(combo), a.weights, b.weights)
        if masses.min() < -1e-12:
            continue
        # as in wp_exact, a mass rounded below 0 carries nothing, and a plan
        # is paid as _power_sum pays it
        masses = np.maximum(masses, 0.0)
        gaps = dists[tuple(np.array(combo).T)]
        best = min(best, _power_sum(masses, np.where(masses > 0.0, gaps, 0.0), p)[1])
    return float(best)


# ---------------------------------------------------------------------------
# Sliced variants


def _projected(dist: DiscreteDistribution, direction: np.ndarray):
    proj = dist.atoms @ direction
    order = np.argsort(proj, kind="stable")
    xs = proj[order]
    cum = np.cumsum(dist.weights[order])
    cum[-1] = 1.0
    return xs, cum


def _require_sliceable(a: DiscreteDistribution, b: DiscreteDistribution) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim < 2:
        raise ValueError("use the exact 1-d formulas for dim = 1")


def sliced_wp(
    a: DiscreteDistribution, b: DiscreteDistribution, cfg: SlicedConfig
) -> SlicedEstimate:
    """Monte-Carlo sliced distance: average of projected p-powers.

    Directions are i.i.d. uniform on the unit sphere (normalized Gaussians
    from a counter-based stream keyed by cfg.seed, so estimates are
    reproducible bit for bit).  Returns the p-th root of the average
    together with the standard error of the mean of the p-th powers.  An
    average below ``_POWER_LOW`` may have lost digits to underflow; it is
    then taken again from each direction's distance, as :func:`_power_sum`
    takes a sum of powers.
    """
    _require_sliceable(a, b)
    rng = stream(cfg.seed, _STREAM_TAG)
    dirs = rng.standard_normal((cfg.num_directions, a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    powers, roots = np.array(
        [_quantile_power(*_projected(a, u), *_projected(b, u), cfg.p)[:2] for u in dirs]
    ).T
    # the mean sums the powers and the standard deviation squares them, and
    # either may overflow; scaling by a power of two that brings the largest
    # power near 1 is exact, so finite results keep every bit
    shift = np.frexp(powers.max())[1]
    scaled = np.ldexp(powers, -shift)
    mean = float(np.ldexp(scaled.mean(), shift))
    value = mean ** (1.0 / cfg.p)
    if mean < _POWER_LOW:  # the powers may have lost digits to underflow
        share = np.full(cfg.num_directions, 1.0 / cfg.num_directions)
        mean, value = _power_sum(share, roots, cfg.p)
    if cfg.num_directions > 1:
        se = float(np.ldexp(scaled.std(ddof=1), shift) / np.sqrt(cfg.num_directions))
    else:
        se = 0.0
    return SlicedEstimate(value=value, stderr=se, power_mean=mean)


def _golden_max(f, lo, hi, tol):
    """Golden-section maximization on [lo, hi]; returns the better of the
    final bracket's two points and its value.  A point the caller has
    already priced is compared by the caller, not evaluated again."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = None, -np.inf
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def max_sliced_wp(
    a: DiscreteDistribution, b: DiscreteDistribution, cfg: SlicedConfig
) -> float:
    """Maximum projected distance over the unit sphere (lower-bound search).

    For d = 2 the angle is scanned on a uniform grid over [0, pi) -- the
    objective is antipodally symmetric -- and the best bracket is refined by
    golden section to a bracket of width 1e-9.  For d >= 3 multistart coordinate
    ascent on the sphere is run from cfg.num_directions random directions.
    The result never exceeds the true maximum.
    """
    _require_sliceable(a, b)
    d = a.dim

    def value(u):
        return _quantile_power(*_projected(a, u), *_projected(b, u), cfg.p)[1]

    if d == 2:
        k = max(cfg.num_directions, 2)
        thetas = np.arange(k) * np.pi / k
        vals = [value(np.array([np.cos(t), np.sin(t)])) for t in thetas]
        best = int(np.argmax(vals))
        lo = thetas[best] - np.pi / k
        hi = thetas[best] + np.pi / k
        _, refined = _golden_max(
            lambda t: value(np.array([np.cos(t), np.sin(t)])), lo, hi, _REFINE_TOL
        )
        return float(max(refined, vals[best]))

    rng = stream(cfg.seed, _STREAM_TAG, 1)
    starts = rng.standard_normal((cfg.num_directions, d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    best_val = -np.inf
    for u in starts:
        best_val = max(best_val, _sphere_ascent(value, u, _REFINE_TOL))
    return float(best_val)


def _sphere_ascent(f, u, tol):
    u = u / np.linalg.norm(u)
    best = f(u)
    d = len(u)
    for _ in range(_ASCENT_SWEEPS):
        improved = False
        for axis in range(d):
            e = np.zeros(d)
            e[axis] = 1.0
            tangent = e - (e @ u) * u
            norm = np.linalg.norm(tangent)
            if norm < 1e-12:
                continue
            tangent /= norm

            def along(phi, u=u, tangent=tangent):
                return f(np.cos(phi) * u + np.sin(phi) * tangent)

            phi, val = _golden_max(along, -np.pi / 2, np.pi / 2, tol)
            if val > best + 1e-14:
                u = np.cos(phi) * u + np.sin(phi) * tangent
                u /= np.linalg.norm(u)
                best = val
                improved = True
        if not improved:
            break
    return best
