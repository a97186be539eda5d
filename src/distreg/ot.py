"""Wasserstein distances between finitely supported measures.

One-dimensional distances are evaluated in closed form (quantile-function
merge for any order, CDF-difference integration for order 1).  Higher
dimensions use an exact transportation-simplex solver, with a brute-force
vertex enumeration available as an independent oracle, plus Monte-Carlo
sliced and grid-refined max-sliced estimates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._rng import stream
from .measures import (
    AnalyticDistribution1D,
    DiscreteDistribution,
    MeasureBatch,
    _row_sums,
    cdf_eval,
)

SIZE_GUARD = 1_000_000
_STREAM_TAG = 71  # domain tag for direction sampling
# the transportation simplex gives up after base + per-cell * m * n pivots
_PIVOTS_BASE, _PIVOTS_PER_CELL = 2000, 60
_ASCENT_SWEEPS = 40  # most coordinate sweeps of one max-sliced ascent (d >= 3)


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap; indicates a bug."""


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two discrete measures.

    ``sources``/``targets`` index the atoms of the two inputs; ``masses`` is
    the transported mass per pair.  ``cost`` is the total p-power objective
    sum(mass * ||y_src - y_tgt||^p).
    """

    sources: np.ndarray
    targets: np.ndarray
    masses: np.ndarray
    cost: float

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
    refine_tol: float = 1e-9

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:
            raise ValueError("order p must be finite and >= 1")
        if self.num_directions < 1:
            raise ValueError("num_directions must be >= 1")
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be positive")


@dataclass(frozen=True)
class SlicedEstimate:
    value: float
    stderr: float  # standard error of the mean of the p-th powers
    power_mean: float


# ---------------------------------------------------------------------------
# 1-d closed forms


def _require_pair_dim1(a: DiscreteDistribution, b: DiscreteDistribution) -> None:
    if a.dim != 1 or b.dim != 1:
        raise ValueError("both measures must be one-dimensional")


def w1_cdf(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    """Order-1 distance as the integral of |F_a - F_b|.

    The integrand is constant between consecutive points of the merged
    support, so the integral is an exact finite sum.
    """
    _require_pair_dim1(a, b)
    grid = np.sort(np.concatenate((a.xs, b.xs)))
    fa = cdf_eval(a, grid[:-1])
    fb = cdf_eval(b, grid[:-1])
    return float(np.sum(np.diff(grid) * np.abs(fa - fb)))


def w1_cdf_batch(a: MeasureBatch, b: MeasureBatch) -> np.ndarray:
    """:func:`w1_cdf` between row i of ``a`` and row i of ``b``, each row
    bit-identical to the call on that pair.

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
    terms = np.diff(grid) * np.abs(fa[:-1] - fb[:-1])
    # drop the step from each row's last point to the next row's first
    terms = np.delete(terms, offsets[1:-1] - 1)
    return _row_sums(terms, offsets - np.arange(offsets.shape[0]))


def wp_quantile(a: DiscreteDistribution, b: DiscreteDistribution, p: float) -> float:
    """Order-p distance via the quantile-function representation.

    Merges the two cumulative-weight breakpoint sequences; on each of the
    O(m_a + m_b) segments both quantile functions are constant, so the
    integral of |Fa^{-1} - Fb^{-1}|^p is evaluated exactly.
    """
    _require_pair_dim1(a, b)
    if not 1.0 <= p < np.inf:
        raise ValueError("order p must be finite and >= 1")
    power = _quantile_power(a.xs, a.cum_weights, b.xs, b.cum_weights, p)
    return float(power ** (1.0 / p))


def _quantile_power(xa, ca, xb, cb, p) -> float:
    """int_0^1 |Qa(u) - Qb(u)|^p du for sorted atoms with cumulative weights."""
    cuts = np.sort(np.concatenate((ca[:-1], cb[:-1])))
    lo = np.concatenate(([0.0], cuts))
    hi = np.concatenate((cuts, [1.0]))
    lengths = hi - lo
    mids = 0.5 * (lo + hi)
    ia = np.minimum(np.searchsorted(ca, mids, side="left"), len(xa) - 1)
    ib = np.minimum(np.searchsorted(cb, mids, side="left"), len(xb) - 1)
    gaps = np.abs(xa[ia] - xb[ib])
    _require_power_in_range(gaps.max(), p)
    return float(np.sum(lengths * gaps**p))


def _require_power_in_range(top, p) -> None:
    """Raise ValueError when ``top ** p``, the largest term of a sum of p-th
    powers weighted by masses summing to 1, overflows a double."""
    try:
        float(top) ** float(p)  # a numpy p would give inf, not OverflowError
    except OverflowError:
        raise ValueError(
            f"order p = {p:g} is too large: the largest distance {float(top):g} "
            "to the power p overflows"
        ) from None


def w1_vs_analytic(
    dist: DiscreteDistribution, law: AnalyticDistribution1D, tol: float = 1e-6
) -> float:
    """Order-1 distance between a discrete measure and an analytic law.

    Integrates |F_hat - F| segment by segment over the prediction atoms.  If
    the law carries an exact ``integrated_cdf`` the result is closed-form;
    otherwise each segment falls back to adaptive quadrature with the given
    absolute tolerance.
    """
    if dist.dim != 1:
        raise ValueError("discrete measure must be one-dimensional")
    xs, cum = dist.xs, dist.cum_weights
    gc = law.integrated_cdf
    if gc is None:
        gc = _numeric_integrated_cdf(law, tol / (xs.shape[0] + 2))
    g_at = np.asarray(gc(xs), dtype=float)
    total = float(g_at[0])  # lower tail: int F below the smallest atom
    if xs.shape[0] > 1:
        c = cum[:-1]
        zstar = np.clip(np.asarray(law.quantile(c), dtype=float), xs[:-1], xs[1:])
        g_star = np.asarray(gc(zstar), dtype=float)
        below = c * (zstar - xs[:-1]) - (g_star - g_at[:-1])
        above = (g_at[1:] - g_star) - c * (xs[1:] - zstar)
        total += float(np.sum(below + above))
    # upper tail: int (1 - F) above the largest atom equals E[(Y - z)+]
    total += float(g_at[-1]) - float(xs[-1]) + law.mean
    return total


def w1_vs_analytic_batch(
    dist: MeasureBatch, law: AnalyticDistribution1D, shifts
) -> np.ndarray:
    """:func:`w1_vs_analytic` between row i of ``dist`` and ``law`` shifted
    by ``shifts[i]``, the law of Y + shifts[i] for Y ~ law.

    The shifted law's integrated CDF is z -> G(z - s) and its quantile
    u -> Q(u) + s, so the per-row arithmetic is that of the single call,
    and for the closed forms of :func:`gaussian_law` it is the same to the
    bit as against ``gaussian_law(s, sigma)``.  Needs the law's closed-form
    ``integrated_cdf``.
    """
    if dist.dim != 1:
        raise ValueError("discrete measures must be one-dimensional")
    if law.integrated_cdf is None:
        raise ValueError("the batch form needs a law with a closed-form integrated CDF")
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
    return total + ((g_at[last] - xs[last]) + (law.mean + shifts))


def _numeric_integrated_cdf(law: AnalyticDistribution1D, eps: float):
    from scipy.integrate import quad

    lo, _ = law.quad_bounds()

    def gc(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.empty_like(z)
        for i, zi in enumerate(z):
            if zi <= lo:
                out[i] = 0.0
            else:
                out[i], _ = quad(law.cdf, lo, zi, epsabs=eps, limit=200)
        return out

    return gc


# ---------------------------------------------------------------------------
# Exact discrete optimal transport


def wp_exact(
    a: DiscreteDistribution, b: DiscreteDistribution, p: float
) -> tuple[float, TransportPlan]:
    """Exact order-p distance between discrete measures of any dimension.

    Solves the transportation problem with cost ||y_i - y_j||^p by a
    primal simplex on the transportation polytope (degeneracy removed by a
    supply perturbation, ties broken lexicographically).  Returns the
    distance and an optimal plan.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not 1.0 <= p < np.inf:
        raise ValueError("order p must be finite and >= 1")
    m, n = a.support_size, b.support_size
    if m * n > SIZE_GUARD:
        raise ValueError(f"support product {m * n} exceeds guard {SIZE_GUARD}")
    diffs = a.atoms[:, None, :] - b.atoms[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    _require_power_in_range(dists.max(), p)
    cost = dists**p
    cells, masses = _transport_simplex(cost, a.weights, b.weights)
    src = np.array([c[0] for c in cells], dtype=int)
    tgt = np.array([c[1] for c in cells], dtype=int)
    masses = np.maximum(masses, 0.0)
    total = float(np.sum(masses * cost[src, tgt]))
    plan = TransportPlan(sources=src, targets=tgt, masses=masses, cost=total)
    return float(total ** (1.0 / p)), plan


def _transport_simplex(cost, supply, demand):
    m, n = cost.shape
    # Perturb supplies so no partial sums tie: masses stay strictly positive
    # along the pivots, which rules out degenerate cycling.
    eps = 1e-11 / max(m, 1)
    a = np.asarray(supply, dtype=float) + eps
    b = np.asarray(demand, dtype=float).copy()
    b[-1] += m * eps

    cells, masses = _northwest_corner(a, b)
    # The basis is a spanning tree over row nodes 0..m-1 and column nodes
    # m..m+n-1, updated in place; a cell (i, j) is keyed by i * n + j, which
    # orders cells as the (i, j) tuples do.
    basis = [i * n + j for i, j in cells]
    mass_of = dict(zip(basis, masses))
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in cells:
        adj[i].add(m + j)
        adj[m + j].add(i)
    costs = cost.ravel().tolist()
    tol = 1e-11 * (1.0 + float(np.max(cost)))

    for _ in range(_PIVOTS_BASE + _PIVOTS_PER_CELL * m * n):
        parent, depth, dual = _basis_tree(adj, costs, m, n)
        reduced = cost - dual[:m, None] - dual[None, m:]
        reduced.flat[basis] = 0.0
        enter = int(np.argmin(reduced))
        if reduced.flat[enter] >= -tol:
            break
        # The entering cell closes a cycle with the tree path from its column
        # to its row, found by walking the deeper end up until the ends meet;
        # cells at even positions (from ``enter``) gain mass, odd ones lose it.
        col, row = m + enter % n, enter // n
        up_col, up_row = [], []
        while col != row:
            if depth[col] >= depth[row]:
                up_col.append(_tree_edge(col, parent[col], m, n))
                col = parent[col]
            else:
                up_row.append(_tree_edge(row, parent[row], m, n))
                row = parent[row]
        cycle = [enter] + up_col + up_row[::-1]
        leave = min(cycle[1::2], key=lambda cell: (mass_of[cell], cell))
        theta = mass_of[leave]
        mass_of[enter] = theta
        for t, cell in enumerate(cycle[1:], start=1):
            mass_of[cell] += theta if t % 2 == 0 else -theta
        del mass_of[leave]
        basis[basis.index(leave)] = enter
        for cell, update in ((leave, set.remove), (enter, set.add)):
            i, j = divmod(cell, n)
            update(adj[i], m + j)
            update(adj[m + j], i)
    else:
        raise ConvergenceError("transportation simplex failed to converge")

    # Re-solve the flow on the final basis with the unperturbed marginals so
    # the plan matches the inputs exactly.
    cells = [divmod(cell, n) for cell in basis]
    exact = _tree_flow(cells, np.asarray(supply, float), np.asarray(demand, float))
    return cells, exact


def _northwest_corner(a, b):
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


def _tree_edge(node, other, m, n):
    """Flat index of the cell joining a row node and a column node."""
    return node * n + other - m if node < m else other * n + node - m


def _basis_tree(adj, costs, m, n):
    """Parents, depths and duals of the basis tree rooted at row 0.

    Each dual is fixed along the unique tree path from the root (u_0 = 0,
    u_i + v_j = c_ij on every basis cell), so its value does not depend on
    the order in which nodes are visited.
    """
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    dual = [0.0] * (m + n)
    stack = [0]
    while stack:
        node = stack.pop()
        for other in adj[node]:
            if other != parent[node]:
                parent[other] = node
                depth[other] = depth[node] + 1
                dual[other] = costs[_tree_edge(node, other, m, n)] - dual[node]
                stack.append(other)
    return parent, depth, np.array(dual)


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
    diffs = a.atoms[:, None, :] - b.atoms[None, :, :]
    cost = np.linalg.norm(diffs, axis=2) ** p
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
        total = sum(mass * cost[i, j] for mass, (i, j) in zip(masses, combo))
        best = min(best, total)
    return float(best ** (1.0 / p))


# ---------------------------------------------------------------------------
# Sliced variants


def _projected(dist: DiscreteDistribution, direction: np.ndarray):
    proj = dist.atoms @ direction
    order = np.argsort(proj, kind="stable")
    xs = proj[order]
    cum = np.cumsum(dist.weights[order])
    cum[-1] = 1.0
    return xs, cum


def _projection_power(a, b, direction, p) -> float:
    xa, ca = _projected(a, direction)
    xb, cb = _projected(b, direction)
    return _quantile_power(xa, ca, xb, cb, p)


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
    together with the standard error of the mean of the p-th powers.
    """
    _require_sliceable(a, b)
    rng = stream(cfg.seed, _STREAM_TAG)
    dirs = rng.standard_normal((cfg.num_directions, a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    powers = np.array([_projection_power(a, b, u, cfg.p) for u in dirs])
    mean = float(powers.mean())
    if cfg.num_directions > 1:
        se = float(powers.std(ddof=1) / np.sqrt(cfg.num_directions))
    else:
        se = 0.0
    return SlicedEstimate(value=mean ** (1.0 / cfg.p), stderr=se, power_mean=mean)


def _golden_max(f, lo, hi, tol, seed_points=()):
    """Golden-section maximization; returns the best point ever evaluated."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = None, -np.inf
    for x in seed_points:
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
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
    golden section to cfg.refine_tol.  For d >= 3 multistart coordinate
    ascent on the sphere is run from cfg.num_directions random directions.
    The result never exceeds the true maximum.
    """
    _require_sliceable(a, b)
    d = a.dim

    def value(u):
        return _projection_power(a, b, u, cfg.p) ** (1.0 / cfg.p)

    if d == 2:
        k = max(cfg.num_directions, 2)
        thetas = np.arange(k) * np.pi / k
        vals = [value(np.array([np.cos(t), np.sin(t)])) for t in thetas]
        best = int(np.argmax(vals))
        lo = thetas[best] - np.pi / k
        hi = thetas[best] + np.pi / k
        _, refined = _golden_max(
            lambda t: value(np.array([np.cos(t), np.sin(t)])),
            lo,
            hi,
            cfg.refine_tol,
            seed_points=(thetas[best],),
        )
        return float(max(refined, vals[best]))

    rng = stream(cfg.seed, _STREAM_TAG, 1)
    starts = rng.standard_normal((cfg.num_directions, d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    best_val = -np.inf
    for u in starts:
        best_val = max(best_val, _sphere_ascent(value, u, cfg.refine_tol))
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

            phi, val = _golden_max(along, -np.pi / 2, np.pi / 2, tol, seed_points=(0.0,))
            if val > best + 1e-14:
                u = np.cos(phi) * u + np.sin(phi) * tangent
                u /= np.linalg.norm(u)
                best = val
                improved = True
        if not improved:
            break
    return best
