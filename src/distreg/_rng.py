"""Deterministic, splittable random streams, and the one replication loop
that every Monte-Carlo study runs on them."""

from __future__ import annotations

import numpy as np


def seed_sequence(seed, *path: int) -> np.random.SeedSequence:
    """SeedSequence for a root seed and an integer stream path.

    ``seed`` may itself be a tuple ``(root, p1, p2, ...)``, in which case the
    extra entries are prepended to ``path``.  A negative root seed raises
    ValueError.
    """
    if isinstance(seed, tuple):
        root, pre = seed[0], tuple(seed[1:])
    else:
        root, pre = seed, ()
    root = int(root)
    if root < 0:
        raise ValueError(f"seed must be >= 0, got {root}")
    key = tuple(int(p) for p in pre + path)
    return np.random.SeedSequence(entropy=root, spawn_key=key)


def stream(seed, *path: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, path).

    The same key always yields the same stream regardless of call order,
    which keeps replicated experiments bit-reproducible under any scheduler.
    """
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


def grid_study(worker, model, grid, replications, test_points, seed, extra, workers=1):
    """Run ``worker`` on the payload ``(model, scheme, n, test_points, seed,
    n_index, rep, extra)`` of every replication at every ``(n_index, n,
    scheme)`` of ``grid``, in a pool of ``workers`` processes if above 1.

    Payloads are built and results reduced in key order, so the result does
    not depend on ``workers``: per grid point, the (mean, stderr) of each
    value the worker returns (one float or a tuple), one pair after another.
    """
    payloads = [
        (model, scheme, n, test_points, seed, n_index, rep, extra)
        for n_index, n, scheme in grid
        for rep in range(replications)
    ]
    if workers <= 1:
        values = [worker(pl) for pl in payloads]
    else:
        # deferred: the pool's module costs every import otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(worker, payloads))
    # (grid point, value, replication), each column contiguous
    columns = np.array(values).reshape(len(grid), replications, -1).transpose(0, 2, 1).copy()
    root = np.sqrt(replications)
    return [
        tuple(x for col in point for x in (float(col.mean()), float(col.std(ddof=1) / root)))
        for point in columns
    ]
