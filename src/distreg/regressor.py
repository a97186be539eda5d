"""The distributional regression estimator.

Fitting binds a sample to a weight scheme and builds a neighbour index over
its covariates; prediction at a query point returns the weighted empirical
distribution of the responses, i.e. the discrete measure putting the local
weights on the observed response values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteDistribution, MeasureBatch, _freeze
from .weights import KernelScheme, KnnScheme, NeighbourIndex, WeightBatch, _as_row


@dataclass(frozen=True)
class Dataset:
    """An i.i.d. regression sample: covariates (n, k), responses (n, d)."""

    covariates: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.covariates, dtype=float)
        ys = np.asarray(self.responses, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        if ys.ndim == 1:
            ys = ys[:, None]
        if xs.ndim != 2 or ys.ndim != 2:
            raise ValueError("covariates and responses must be 2-d arrays")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"sample size mismatch: {xs.shape[0]} covariates vs {ys.shape[0]} responses"
            )
        if xs.shape[0] == 0:
            raise ValueError("dataset must contain at least one observation")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("covariates and responses must be finite")
        _freeze(self, covariates=xs, responses=ys)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def k(self) -> int:
        return self.covariates.shape[1]

    @property
    def d(self) -> int:
        return self.responses.shape[1]


@dataclass(frozen=True)
class FittedRegressor:
    """A sample bound to a weight scheme, with the fit-time index.

    For 1-d responses ``levels`` holds the sorted distinct response values
    and ``groups`` the position of each observation's response in it, so a
    prediction counts groups instead of sorting responses.
    """

    dataset: Dataset
    scheme: "KernelScheme | KnnScheme"
    index: NeighbourIndex = field(repr=False, compare=False)
    levels: np.ndarray | None = field(repr=False, compare=False)
    groups: np.ndarray | None = field(repr=False, compare=False)


def fit(dataset: Dataset, scheme) -> FittedRegressor:
    """Bind a dataset to a weight scheme, checking compatibility up front."""
    if isinstance(scheme, KnnScheme) and scheme.kappa > dataset.n:
        raise ValueError(
            f"kappa = {scheme.kappa} exceeds sample size n = {dataset.n}"
        )
    if not isinstance(scheme, (KernelScheme, KnnScheme)):
        raise TypeError(f"unsupported scheme type: {type(scheme).__name__}")
    levels = groups = None
    if dataset.d == 1:
        levels, groups = np.unique(dataset.responses[:, 0], return_inverse=True)
    return FittedRegressor(
        dataset=dataset,
        scheme=scheme,
        index=NeighbourIndex(dataset.covariates),
        levels=levels,
        groups=groups,
    )


def weights_at(model: FittedRegressor, x) -> WeightBatch:
    """The fitted scheme's weights at one query point x, as a one-row batch."""
    return model.index.select(model.scheme, _as_row(x))


def predict_many(model: FittedRegressor, queries) -> MeasureBatch:
    """Weighted empirical distribution of the responses at each row of
    ``queries`` (shape (m, k)), as one batch whose row i is the prediction
    at query i.

    A row puts 1/m on each of the m observations the scheme selects at its
    query point, so a 1-d prediction puts count / m on each distinct
    response, in ascending order; a d-dimensional one keeps every selected
    response as an atom.
    """
    return MeasureBatch(*_predicted_rows(model, queries))


def _predicted_rows(model: FittedRegressor, queries):
    """The flat ``(atoms, weights, offsets)`` of :func:`predict_many`'s
    batch, not yet built or checked, so that several predictions can be
    joined into one batch and checked once."""
    index, scheme = model.index, model.scheme
    if model.groups is not None and model.dataset.k == 1 and isinstance(scheme, KernelScheme):
        lo, hi = index.ball_slices(scheme.bandwidth, queries)
        # an empty ball is the whole line, the 1/n fallback
        empty = lo == hi
        lo[empty], hi[empty] = 0, index.n
        sizes = hi - lo
        # prefix counts cost one pass over the L (n + 1) prefix entries and
        # the L m row counts, about a third of what gathering and sorting a
        # selected point costs, and hold no more than the gather's three
        # selection-long arrays: take them while there are at most three
        # such entries per selected point, and gather the slices otherwise
        prefix = model.levels.shape[0] * (index.n + 1 + lo.shape[0]) <= 3 * sizes.sum()
        idx = None if prefix else index.slice_indices(lo, hi)
    else:
        selected = index.select(scheme, queries)
        offsets, idx = selected.offsets, selected.indices
        sizes = np.diff(offsets)
        # the flat arrays are as large as every selection together, so each
        # is dropped, or overwritten in place, once it is used up
        del selected
        if model.groups is None:
            return model.dataset.responses[idx], np.repeat(1.0 / sizes, sizes), offsets
    # one key per (query, distinct response), row * width + rank: sorted
    # keys put the batch in row order with each row's responses ascending;
    # both counting routes give the distinct keys and the count of each
    width = model.levels.shape[0]
    if idx is None:
        keys, counts = _prefix_counts(model, lo, hi)
    else:
        keys = np.repeat(np.arange(sizes.shape[0]) * width, sizes)
        keys += model.groups[idx]
        del idx
        # np.unique with counts, sorting in place instead of on a copy
        keys.sort()
        new = np.ones(keys.shape[0], dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = np.flatnonzero(new)
        counts = np.diff(first, append=keys.shape[0])
        keys = keys[first]
        del new, first
    offsets = np.searchsorted(keys, np.arange(sizes.shape[0] + 1) * width)
    atoms = model.levels[keys % width]
    del keys
    return atoms, counts / np.repeat(sizes, np.diff(offsets)), offsets


def _prefix_counts(model: FittedRegressor, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The ascending keys row * L + rank of the slices [lo, hi) of the
    sorted line, and the count of each, row i's counts being
    prefix[hi] - prefix[lo] of the (n + 1) x L prefix counts of the
    response ranks in line order."""
    index, width = model.index, model.levels.shape[0]
    prefix = np.zeros((index.n + 1, width), dtype=np.intp)
    # a 1 at (line position + 1, rank), set through the flat view
    prefix.reshape(-1)[np.arange(width, prefix.size, width) + model.groups[index.order]] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    counts = prefix[hi] - prefix[lo]
    del prefix
    # the flat place of (row, rank) in the q x L counts is its key
    keys = np.flatnonzero(counts)
    return keys, counts.reshape(-1)[keys]


def predict_distribution(model: FittedRegressor, x) -> DiscreteDistribution:
    """Weighted empirical distribution of the responses at one point x."""
    return predict_many(model, _as_row(x))[0]


def predict_mean(model: FittedRegressor, x) -> np.ndarray:
    """Local-average point prediction: the mean of the predicted distribution."""
    w = weights_at(model, x)
    return w.values @ model.dataset.responses[w.indices]
