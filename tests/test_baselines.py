"""Local outlier factor and one-class SVM baselines."""
import numpy as np
import pytest

from lossdepth.baselines import (
    OneClassSvmModel,
    lof_scores,
    ocsvm_fit,
)
from lossdepth.core import ValidationError
from lossdepth.kernels import KernelSpec, gram, median_heuristic
from lossdepth.solvers import SolverConfig


RNG = np.random.default_rng(7)
TRAIN = RNG.standard_normal((120, 2))


def test_lof_duplicate_of_training_point_is_near_one():
    score = lof_scores(TRAIN, TRAIN[:1], 10)[0]
    assert 0.8 <= score <= 1.2


def test_lof_is_scale_invariant():
    queries = np.array([[3.0, -2.0], [0.1, 0.2]])
    a = lof_scores(TRAIN, queries, 10)
    b = lof_scores(10.0 * TRAIN, 10.0 * queries, 10)
    assert np.allclose(a, b, atol=1e-9)


def test_lof_uniform_grid_interior_is_near_one():
    grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0)), axis=-1).reshape(-1, 2)
    interior = grid[
        (grid[:, 0] > 1) & (grid[:, 0] < 8) & (grid[:, 1] > 1) & (grid[:, 1] < 8)
    ]
    scores = lof_scores(grid, interior, 4)
    assert scores.min() >= 0.8
    assert scores.max() <= 1.2


def test_lof_far_point_scores_high():
    assert lof_scores(TRAIN, np.array([[50.0, 50.0]]), 10)[0] > 5.0


def test_lof_orders_outliers_above_inliers():
    center = lof_scores(TRAIN, TRAIN.mean(axis=0, keepdims=True), 10)[0]
    far = lof_scores(TRAIN, np.array([[8.0, 8.0]]), 10)[0]
    assert far > center


def test_lof_neighbourhood_bounds():
    with pytest.raises(ValidationError):
        lof_scores(TRAIN, TRAIN[:2], 0)
    with pytest.raises(ValidationError):
        lof_scores(TRAIN, TRAIN[:2], 120)  # k must leave another point over


def test_lof_handles_stacked_duplicates():
    train = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    scores = lof_scores(train, np.array([[0.0, 0.0], [0.5, 0.5]]), 3)
    assert np.all(np.isfinite(scores))
    assert scores[1] > scores[0]


def ocsvm_duality_gap(model: OneClassSvmModel) -> float:
    """Primal objective at the recovered (f, rho) minus the dual value.

    Nonnegative, and zero at the exact optimum: the primal is
    0.5 ||f||^2 - rho + (1 / (nu n)) sum_i max(0, rho - f(x_i)), the dual is
    -0.5 a'Ka.
    """
    n = model.train.shape[0]
    decision = gram(model.kernel, model.train) @ model.alpha
    squared_norm = float(model.alpha @ decision)
    slack = np.maximum(0.0, model.rho - decision)
    primal = 0.5 * squared_norm - model.rho + float(slack.sum()) / (model.nu * n)
    dual = -0.5 * squared_norm
    return primal - dual


def _fitted_model():
    kern = KernelSpec.gaussian(median_heuristic(TRAIN))
    return ocsvm_fit(TRAIN, kern, nu=0.15)


def test_ocsvm_converges_with_small_gap():
    model = _fitted_model()
    assert model.converged
    assert ocsvm_duality_gap(model) <= 1e-6


def test_ocsvm_respects_the_rejection_budget():
    # at most a nu fraction of the training sample may score negative,
    # up to the usual finite-sample slack
    model = _fitted_model()
    rejected = float(np.mean(model.score(TRAIN) < 0.0))
    assert rejected <= 0.15 + 0.05


def test_ocsvm_simplex_constraints_hold():
    model = _fitted_model()
    assert float(model.alpha.sum()) == pytest.approx(1.0, abs=1e-9)
    assert model.alpha.min() >= -1e-12
    assert model.alpha.max() <= 1.0 / (0.15 * TRAIN.shape[0]) + 1e-12


def test_ocsvm_scores_order_center_above_far():
    model = _fitted_model()
    center = model.score(TRAIN.mean(axis=0, keepdims=True))[0]
    far = model.score(np.array([[50.0, 50.0]]))[0]
    assert far < center
    assert far < 0.0


def test_ocsvm_nu_validation():
    kern = KernelSpec.gaussian(1.0)
    with pytest.raises(ValidationError):
        ocsvm_fit(TRAIN, kern, nu=0.0)
    with pytest.raises(ValidationError):
        ocsvm_fit(TRAIN, kern, nu=1.5)


def test_ocsvm_is_deterministic():
    a = _fitted_model()
    b = _fitted_model()
    assert np.array_equal(a.alpha, b.alpha)
    assert a.rho == b.rho


def test_ocsvm_custom_solver_config():
    kern = KernelSpec.gaussian(1.0)
    model = ocsvm_fit(TRAIN, kern, nu=0.3, config=SolverConfig(max_iterations=5,
                                                               tolerance=1e-12))
    assert isinstance(model, OneClassSvmModel)
    assert not model.converged
    assert model.iterations == 5 * TRAIN.shape[0]  # five passes of pair updates


def test_ocsvm_at_small_nu_converges_in_the_default_budget():
    # at nu = 0.02 the fit needs about 6n pair updates, more than 10,000
    # here, which the default budget of passes covers
    train = np.random.default_rng(0).standard_normal((2000, 2))
    model = ocsvm_fit(train, KernelSpec.gaussian(median_heuristic(train)), nu=0.02,
                      config=SolverConfig(tolerance=1e-6))
    assert model.converged
    assert model.iterations > 10_000


def test_ocsvm_nu_one_stops_at_the_only_feasible_point():
    # at nu = 1 the box is 1/n, so the uniform start is the whole feasible
    # set: no coordinate can receive mass and the solver stops at once
    model = ocsvm_fit(TRAIN, KernelSpec.gaussian(0.5), nu=1.0)
    assert model.converged
    assert model.iterations == 0
    assert np.array_equal(model.alpha, np.full(TRAIN.shape[0], 1.0 / TRAIN.shape[0]))
    assert ocsvm_duality_gap(model) <= 1e-12


def test_ocsvm_refuses_a_kernel_whose_values_overflow():
    # at this scale the linear kernel's diagonal is inf, and the fit once
    # returned rho = nan; the imq kernel whose c**2 underflows is refused earlier
    with pytest.raises(ValidationError, match="kernel values overflow"):
        ocsvm_fit(TRAIN * 1e200, KernelSpec.linear())
    with pytest.raises(ValidationError, match="kernel values overflow"):
        ocsvm_fit(TRAIN, KernelSpec.imq(1e-200, -0.5))
