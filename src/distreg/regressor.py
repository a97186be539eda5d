"""The distributional regression estimator.

Fitting binds a sample to a weight scheme and builds a neighbour index over
its covariates; prediction at a query point returns the weighted empirical
distribution of the responses, i.e. the discrete measure putting the local
weights on the observed response values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteDistribution, MeasureBatch, _row_sums
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
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "covariates", xs)
        object.__setattr__(self, "responses", ys)

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

    Only observations with positive weight enter a prediction, so its
    support size is the number of observations the scheme uses at that
    query point.  Equal weights put count / m on each distinct 1-d
    response; otherwise a row is, bit for bit, what :func:`make_discrete`
    builds from the selected responses and their weights.
    """
    selected = model.index.select(model.scheme, queries)
    offsets = selected.offsets
    sizes = np.diff(offsets)
    # equal weights are a count over m; kernel masses, normalized per
    # query, are a share of each point over 1, except in a fallback row
    share, denom = None, sizes.astype(float)
    if selected.mass is not None:
        weighted = ~selected.fallback
        totals = np.where(weighted, _row_sums(selected.mass, offsets), 1.0)
        share = selected.mass / np.repeat(totals, sizes)
        denom[weighted] = 1.0
    idx = selected.indices
    # the flat arrays are as large as every selection together, so each is
    # dropped, or overwritten in place, once it is used up
    del selected
    if model.groups is None:
        atoms = model.dataset.responses[idx]
        weights = (1.0 if share is None else share) / np.repeat(denom, sizes)
    else:
        # one key per (query, distinct response), row * width + rank:
        # sorted keys put the batch in row order with each row's responses
        # ascending
        width = model.levels.shape[0]
        keys = np.repeat(np.arange(sizes.shape[0]) * width, sizes)
        keys += model.groups[idx]
        del idx
        if share is None:
            # np.unique with counts, sorting in place instead of on a copy
            keys.sort()
            new = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            first = np.flatnonzero(new)
            sums = np.diff(first, append=keys.shape[0])
            keys = keys[first]
            del new, first
        else:
            keys, inverse = np.unique(keys, return_inverse=True)
            sums = np.bincount(inverse, weights=share)
        offsets = np.searchsorted(keys, np.arange(sizes.shape[0] + 1) * width)
        atoms = model.levels[keys % width]
        del keys
        weights = sums / np.repeat(denom, np.diff(offsets))
    keep = weights > 0  # a kernel mass may underflow once normalized
    if not keep.all():
        offsets = np.concatenate(([0], np.cumsum(keep)))[offsets]
        atoms, weights = atoms[keep], weights[keep]
    return MeasureBatch(atoms, weights, offsets)


def predict_distribution(model: FittedRegressor, x) -> DiscreteDistribution:
    """Weighted empirical distribution of the responses at one point x."""
    return predict_many(model, _as_row(x))[0]


def predict_mean(model: FittedRegressor, x) -> np.ndarray:
    """Local-average point prediction: the mean of the predicted distribution."""
    w = weights_at(model, x)
    return w.values @ model.dataset.responses[w.indices]
