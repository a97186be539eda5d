"""The distributional regression estimator.

Fitting binds a sample to a weight scheme and builds a neighbour index over
its covariates; prediction at a query point returns the weighted empirical
distribution of the responses, i.e. the discrete measure putting the local
weights on the observed response values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteDistribution, make_discrete
from .weights import KernelScheme, KnnScheme, NeighbourIndex, WeightVector


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


def weights_at(model: FittedRegressor, x) -> WeightVector:
    return model.index.weight_vector(model.scheme, x)


def predict_many(model: FittedRegressor, queries) -> list[DiscreteDistribution]:
    """Weighted empirical distribution of the responses at each row of
    ``queries`` (shape (m, k)).

    Only observations with positive weight enter a prediction, so its
    support size is the number of observations the scheme uses at that
    query point.
    """
    preds = []
    for w in model.index.select(model.scheme, queries):
        if model.groups is None or w.mass is not None:
            preds.append(make_discrete(model.dataset.responses[w.indices], w.values))
            continue
        # equal weights: each distinct response weighs its count over m
        ranks, counts = np.unique(model.groups[w.indices], return_counts=True)
        preds.append(
            DiscreteDistribution(model.levels[ranks, None], counts / w.indices.shape[0])
        )
    return preds


def predict_distribution(model: FittedRegressor, x) -> DiscreteDistribution:
    """Weighted empirical distribution of the responses at one point x."""
    return predict_many(model, np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]


def predict_mean(model: FittedRegressor, x) -> np.ndarray:
    """Local-average point prediction: the mean of the predicted distribution."""
    wv = weights_at(model, x)
    return wv.values @ model.dataset.responses
