"""Reference computations the benchmark checks the program against.

Nothing here imports distreg: each oracle recomputes a result by a route
that shares no code with the package (brute-force neighbour selection,
a generic LP solver, scipy's 1-d distance, scipy's incomplete beta,
Gauss-Legendre quadrature).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import betainc, beta, ndtr, ndtri
from scipy.stats import wasserstein_distance

# ---------------------------------------------------------------------------
# Weights


def knn_indices(covariates: np.ndarray, x: np.ndarray, kappa: int) -> np.ndarray:
    """Indices of the kappa nearest rows, ties broken by smallest index."""
    dist = np.sqrt(np.sum((covariates - x[None, :]) ** 2, axis=1))
    order = np.lexsort((np.arange(dist.shape[0]), dist))
    return order[:kappa]


def ball_indices(covariates: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Indices inside the closed ball of radius h; every index if it is empty."""
    scaled = (x[None, :] - covariates) / h
    inside = np.flatnonzero(np.sqrt(np.sum(scaled**2, axis=1)) <= 1.0)
    return inside if inside.size else np.arange(covariates.shape[0])


def uniform_prediction(responses: np.ndarray, idx: np.ndarray):
    """Sorted distinct 1-d responses at idx with equal mass per index."""
    atoms, counts = np.unique(responses[idx], return_counts=True)
    return atoms, counts / idx.shape[0]


# ---------------------------------------------------------------------------
# Distances


def transport_lp(atoms_a, weights_a, atoms_b, weights_b, p: float) -> float:
    """Exact order-p distance from the transport LP solved by HiGHS."""
    wa = np.asarray(weights_a, float) / np.sum(weights_a)
    wb = np.asarray(weights_b, float) / np.sum(weights_b)
    m, n = wa.shape[0], wb.shape[0]
    diff = atoms_a[:, None, :] - atoms_b[None, :, :]
    cost = np.sqrt(np.sum(diff**2, axis=2)) ** p
    rows = sparse.kron(sparse.identity(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.identity(n))
    a_eq = sparse.vstack([rows, cols]).tocsr()
    res = linprog(
        cost.reshape(-1),
        A_eq=a_eq,
        b_eq=np.concatenate([wa, wb]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun) ** (1.0 / p)


def w1_line(xa, wa, xb, wb) -> float:
    """Order-1 distance on the line, from scipy."""
    return float(wasserstein_distance(xa, xb, wa, wb))


def wp_line(xa, wa, xb, wb, p: float) -> float:
    """Order-p distance on the line by merging the two quantile functions."""
    oa, ob = np.argsort(xa), np.argsort(xb)
    xa, xb = np.asarray(xa, float)[oa], np.asarray(xb, float)[ob]
    ca = np.cumsum(np.asarray(wa, float)[oa]) / np.sum(wa)
    cb = np.cumsum(np.asarray(wb, float)[ob]) / np.sum(wb)
    levels = np.union1d(ca, cb)
    levels = levels[levels < 1.0]
    edges = np.concatenate(([0.0], levels, [1.0]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    qa = xa[np.minimum(np.searchsorted(ca, mid), xa.shape[0] - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mid), xb.shape[0] - 1)]
    return float(np.sum(np.diff(edges) * np.abs(qa - qb) ** p) ** (1.0 / p))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gauss_legendre(f, lo: np.ndarray, hi: np.ndarray) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    z = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return float(np.sum(half * (f(z) @ _GL_WEIGHTS)))


def w1_to_normal(atoms, weights, mu: float, sigma: float) -> float:
    """Order-1 distance from a 1-d discrete law to N(mu, sigma^2).

    Integrates |F_hat - Phi| by composite Gauss-Legendre quadrature on
    pieces where F_hat is constant, each cut where Phi crosses the step
    level (the integrand's only kink) and into spans of at most sigma/8.
    """
    order = np.argsort(atoms)
    xs = np.asarray(atoms, float)[order]
    cum = np.cumsum(np.asarray(weights, float)[order])
    cum[-1] = 1.0
    lo_end = min(xs[0], mu - 14.0 * sigma)
    hi_end = max(xs[-1], mu + 14.0 * sigma)
    edges = np.concatenate(([lo_end], xs, [hi_end]))
    levels = np.concatenate(([0.0], cum))
    total = 0.0
    for a, b, c in zip(edges[:-1], edges[1:], levels):
        if b <= a:
            continue
        cuts = [a, b]
        if 0.0 < c < 1.0:
            z = mu + sigma * float(ndtri(c))
            if a < z < b:
                cuts = [a, z, b]
        pieces = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            k = max(1, int(np.ceil((hi - lo) / (sigma / 8.0))))
            grid = np.linspace(lo, hi, k + 1)
            pieces.append((grid[:-1], grid[1:]))
        lo = np.concatenate([p[0] for p in pieces])
        hi = np.concatenate([p[1] for p in pieces])
        total += _gauss_legendre(lambda z, c=c: np.abs(c - ndtr((z - mu) / sigma)), lo, hi)
    return total


# ---------------------------------------------------------------------------
# Functionals


def pwm(xs, ws, p: float, q: float) -> float:
    """int_0^1 Q(u) u^p (1-u)^q du for sorted atoms, from scipy's betainc."""
    cum = np.cumsum(ws)
    cum[-1] = 1.0
    upper = beta(p + 1.0, q + 1.0) * betainc(p + 1.0, q + 1.0, cum)
    lower = np.concatenate(([0.0], upper[:-1]))
    return float(np.sum(np.asarray(xs) * (upper - lower)))


def tail_expectation(xs, ws, alpha: float) -> float:
    """Mean of the quantile function over (alpha, 1), summed directly."""
    cum = np.cumsum(ws)
    cum[-1] = 1.0
    prev = np.concatenate(([0.0], cum[:-1]))
    mass_above = np.clip(cum, alpha, None) - np.clip(prev, alpha, None)
    return float(np.sum(np.asarray(xs) * mass_above) / (1.0 - alpha))


def loglog_slope(ns, means) -> float:
    """Least-squares slope of log(mean) on log(n)."""
    return float(np.polyfit(np.log(ns), np.log(means), 1)[0])
