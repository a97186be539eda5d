"""One owner per input rule: every caller of ``measures._order`` and of the
whole-count checks rejects the same values with the owner's message, and
gives bit-identical results for 2, 2.0 and ``np.int64(2)``."""

import math

import numpy as np
import pytest

from distreg import (
    ClassParams,
    SlicedConfig,
    certify_class,
    cdf_eval,
    effective_sample_size,
    kernel_bound,
    knn_bound,
    make_discrete,
    make_preset,
    moment,
    quantile_eval,
    sliced_wp,
    wp_exact,
    wp_quantile,
)
from distreg.experiments import ExperimentPlan, rate_study
from distreg.weights import NeighborPowerSchedule, study_grid

LINE_A = make_discrete([0.0, 1.0, 3.0], [0.25, 0.5, 0.25])
LINE_B = make_discrete([0.5, 2.0], [0.5, 0.5])
PLANE_A = make_discrete([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]], [0.25, 0.5, 0.25])
PLANE_B = make_discrete([[0.5, 1.0], [2.0, 0.0]], [0.5, 0.5])
SCHEDULE = NeighborPowerSchedule(1.0, 0.5)


def plan(**kw):
    fields = dict(model=make_preset("binary-k1"), schedule=SCHEDULE, n_grid=(16, 32),
                  replications=2, test_points=2, seed=1)
    return ExperimentPlan(**(fields | kw))


def bits(value):
    """What a result holds, with each float as its bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(bits(v) for v in value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tobytes())
    if hasattr(value, "__dataclass_fields__"):
        return bits(vars(value))
    return value


def plan_result(p):
    study = plan(p=p)
    assert type(study.p) is float
    return rate_study(study).json_dict()


# each caller of ``_order``, as a function of the order alone
ORDER_CALLERS = {
    "moment": lambda p: moment(PLANE_A, p),
    "SlicedConfig": lambda p: sliced_wp(PLANE_A, PLANE_B, SlicedConfig(p=p, num_directions=8)),
    "wp_quantile": lambda p: wp_quantile(LINE_A, LINE_B, p),
    "wp_exact": lambda p: wp_exact(PLANE_A, PLANE_B, p),
    "ExperimentPlan": plan_result,
}

# each whole count of ``study_grid``, ``ExperimentPlan`` and the bounds,
# as a function of the count alone, with the name its message gives
COUNT_CALLERS = {
    "study_grid-n_grid": ("n_grid entry", lambda v: study_grid(SCHEDULE, [v, 32], 2, 2)),
    "study_grid-replications": ("replications", lambda v: study_grid(SCHEDULE, [16], v, 2)),
    "study_grid-test_points": ("test_points", lambda v: study_grid(SCHEDULE, [16], 2, v)),
    "ExperimentPlan-n_grid": ("n_grid entry", lambda v: rate_study(plan(n_grid=(v, 32)))),
    "ExperimentPlan-replications": ("replications", lambda v: rate_study(plan(replications=v))),
    "ExperimentPlan-test_points": ("test_points", lambda v: rate_study(plan(test_points=v))),
    "ExperimentPlan-seed": ("seed", lambda v: rate_study(plan(seed=v))),
    "knn_bound": ("kappa", lambda v: knn_bound(ClassParams(1.0, 1.0, 1.0, 1), 10, v)),
    "knn_bound-n": ("n", lambda v: knn_bound(ClassParams(1.0, 1.0, 1.0, 1), v, 2)),
    "kernel_bound-n": ("n", lambda v: kernel_bound(ClassParams(1.0, 1.0, 1.0, 1), v, 0.3)),
}

NOT_ONE_REAL = ["2", np.array([2.0])]
BELOW_ONE_OR_NOT_FINITE = [math.nan, math.inf, 0.5]
NOT_WHOLE = [math.nan, math.inf, 0.5, "2", np.array([2.0]), 2.5, 16.5]
TWOS = [2, 2.0, np.int64(2)]


@pytest.mark.parametrize("caller", sorted(ORDER_CALLERS))
class TestOrderOwner:
    @pytest.mark.parametrize("p", NOT_ONE_REAL, ids=repr)
    def test_order_that_is_not_one_real_number_rejected(self, caller, p):
        with pytest.raises(ValueError, match="order p must be a real number"):
            ORDER_CALLERS[caller](p)

    @pytest.mark.parametrize("p", BELOW_ONE_OR_NOT_FINITE, ids=repr)
    def test_order_below_one_or_not_finite_rejected(self, caller, p):
        with pytest.raises(ValueError, match="order p must be finite and >= 1"):
            ORDER_CALLERS[caller](p)

    def test_integral_orders_give_the_bits_of_the_int(self, caller):
        results = [bits(ORDER_CALLERS[caller](p)) for p in TWOS]
        assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("caller", sorted(COUNT_CALLERS))
class TestWholeCountOwner:
    @pytest.mark.parametrize("value", NOT_WHOLE, ids=repr)
    def test_count_that_is_not_one_whole_number_rejected(self, caller, value):
        name, call = COUNT_CALLERS[caller]
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            call(value)

    def test_integral_counts_give_the_bits_of_the_int(self, caller):
        call = COUNT_CALLERS[caller][1]
        results = [bits(call(v)) for v in TWOS]
        assert results[1] == results[0] and results[2] == results[0]


def test_plan_keeps_every_count_as_an_int():
    study = plan(n_grid=(16.0, np.int64(32)), replications=np.float64(2.0),
                 test_points=2.0, seed=np.int64(1))
    for value in (*study.n_grid, study.replications, study.test_points, study.seed):
        assert type(value) is int
    assert study == plan()


class TestEndsThatWereBad:
    def test_cdf_at_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            cdf_eval(LINE_A, math.nan)
        with pytest.raises(ValueError, match="nan"):
            cdf_eval(LINE_A, [0.0, math.nan])

    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan]], ids=repr)
    def test_quantile_at_nan_rejected(self, u):
        with pytest.raises(ValueError, match="strictly inside"):
            quantile_eval(LINE_A, u)

    def test_certification_resolution_must_be_whole(self):
        with pytest.raises(ValueError, match="resolution must be a whole number"):
            certify_class(make_preset("binary-k1"), resolution=2.5)
        model = make_preset("binary-k1")
        assert certify_class(model, resolution=4.0) == certify_class(model, resolution=4)

    def test_covariate_dimension_must_be_whole(self):
        with pytest.raises(ValueError, match="covariate dimension must be a whole number"):
            ClassParams(1.0, 1.0, 1.0, 2.5)
        assert type(ClassParams(1.0, 1.0, 1.0, 2.0).dim) is int

    def test_effective_sample_size_of_no_weights_rejected(self):
        with pytest.raises(ValueError, match="at least one weight"):
            effective_sample_size([])

    @pytest.mark.parametrize("weights", [[0.0], [0.0, 0.0], [math.nan, 1.0], [math.inf]],
                             ids=repr)
    def test_effective_sample_size_of_squares_that_are_not_positive_rejected(self, weights):
        with pytest.raises(ValueError, match="squared weights sum to"):
            effective_sample_size(weights)

    @pytest.mark.parametrize("scale", [math.nan, math.inf], ids=repr)
    @pytest.mark.parametrize("field", ["lipschitz", "dispersion"])
    def test_class_scales_that_are_not_finite_rejected(self, field, scale):
        scales = dict(holder=1.0, lipschitz=1.0, dispersion=1.0, dim=1) | {field: scale}
        with pytest.raises(ValueError, match="scales must be finite"):
            ClassParams(**scales)

    def test_bounds_below_one_keep_their_messages(self):
        # the messages ``distreg bounds`` prints
        params = ClassParams(1.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError, match=r"need 1 <= kappa <= n"):
            knn_bound(params, 0, 2)
        with pytest.raises(ValueError, match=r"need n >= 1 and h > 0"):
            kernel_bound(params, 0, 0.3)
        with pytest.raises(ValueError, match="lipschitz and dispersion scales must be positive"):
            ClassParams(1.0, 0.0, 1.0, 1)
