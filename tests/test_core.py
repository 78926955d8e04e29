"""Container, weighting and validation behaviour."""
import numpy as np
import pytest

from lossdepth.core import (
    LOG2,
    DataMatrix,
    Reporting,
    ValidationError,
    as_data_matrix,
    weighted_expectation,
)
from lossdepth.depths import DepthBatchRequest, halfspace_depth
from lossdepth.kernels import KernelSpec


def test_weighted_expectation_zero_losses():
    assert weighted_expectation([0.0, 0.0], 0.0) == 0.0


def test_weighted_expectation_constant_log2():
    # the zero classifier scores log 2 on every point, so the mixture does too
    v = weighted_expectation([LOG2, LOG2], LOG2)
    assert abs(v - LOG2) < 1e-15


def test_weighted_expectation_arithmetic():
    # (1/4)(1+3) + (1/2)(2) = 2
    assert weighted_expectation([1.0, 3.0], 2.0) == 2.0


def test_weighted_expectation_permutation_invariant():
    a = weighted_expectation([0.5, 1.5, 2.5], 0.7)
    b = weighted_expectation([2.5, 0.5, 1.5], 0.7)
    assert a == b


def test_weighted_expectation_linear_in_query_loss():
    base = weighted_expectation([1.0, 2.0], 0.0)
    bumped = weighted_expectation([1.0, 2.0], 3.0)
    assert abs((bumped - base) - 1.5) < 1e-15


def test_weighted_expectation_needs_a_reference_loss():
    with pytest.raises(ValidationError):
        weighted_expectation([], 1.0)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 12345])
def test_weight_scheme_mass_is_one(n):
    # unit losses read off the total mass, indicator losses single weights
    assert weighted_expectation(np.ones(n), 1.0) == pytest.approx(1.0, abs=1e-15)
    one_point = np.zeros(n)
    one_point[n // 2] = 1.0
    assert weighted_expectation(one_point, 0.0) == pytest.approx(1.0 / (2 * n))
    assert weighted_expectation(np.zeros(n), 1.0) == 0.5


def test_data_matrix_rejects_nan():
    with pytest.raises(ValidationError):
        DataMatrix([[1.0, float("nan")]])


def test_data_matrix_rejects_inf():
    with pytest.raises(ValidationError):
        DataMatrix([[1.0], [float("inf")]])


def test_data_matrix_rejects_one_dimensional_input():
    with pytest.raises(ValidationError):
        DataMatrix([1.0, 2.0, 3.0])


def test_data_matrix_rejects_empty():
    with pytest.raises(ValidationError):
        DataMatrix(np.empty((0, 2)))


def test_data_matrix_shape_accessors():
    m = DataMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert m.n == 3
    assert m.d == 2


def test_data_matrix_values_are_read_only():
    m = DataMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0


def test_query_point_flattens_and_validates():
    # a single query of any shape holding d coordinates is one row of d
    reference = [[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]
    assert halfspace_depth([[1.0, 2.0]], reference) == halfspace_depth([1.0, 2.0], reference)
    with pytest.raises(ValidationError, match="non-finite"):
        halfspace_depth([float("nan"), 0.0], reference)
    with pytest.raises(ValidationError, match="at least one coordinate"):
        halfspace_depth([], reference)


def test_as_helpers_pass_through():
    m = DataMatrix([[0.0]])
    assert as_data_matrix(m) is m
    assert isinstance(as_data_matrix([[1.0]]), DataMatrix)


def test_depth_problem_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        DepthBatchRequest(reference=[[1.0, 2.0]], queries=[[1.0, 2.0, 3.0]], method="lr")


def test_depth_problem_rejects_zero_lambda():
    with pytest.raises(ValidationError, match="unbounded"):
        DepthBatchRequest(reference=[[1.0]], queries=[[0.0]], method="lr", lam=0.0)


def test_depth_problem_rejects_hinge_without_kernel():
    with pytest.raises(ValidationError, match="kernel"):
        DepthBatchRequest(reference=[[1.0]], queries=[[0.0]], method="svm")


def test_depth_problem_accepts_well_formed():
    request = DepthBatchRequest(
        reference=[[1.0, 0.0], [0.0, 1.0]],
        queries=[0.5, 0.5],
        method="svm",
        lam=1.0,
        kernel=KernelSpec.gaussian(1.0),
    )
    assert isinstance(request.reference, DataMatrix)
    assert request.reference.d == request.queries.shape[1] == 2
    assert request.queries.shape == (1, 2)


def test_reporting_values():
    assert Reporting("loss") is Reporting.LOSS_ONLY
    assert Reporting("loss+reg") is Reporting.LOSS_PLUS_REG
