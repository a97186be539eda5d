"""Deterministic, splittable random streams used across the package."""

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
