"""Kernel evaluations, Gram matrices and bandwidth heuristics."""
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from lossdepth.core import ValidationError
from lossdepth.kernels import (
    DegenerateBandwidthError,
    KernelSpec,
    gram,
    median_heuristic,
)


def test_gaussian_at_coincident_points():
    spec = KernelSpec.gaussian(1.0)
    assert gram(spec, [[1.0, 2.0]], [[1.0, 2.0]])[0, 0] == 1.0


def test_gaussian_unit_distance():
    spec = KernelSpec.gaussian(1.0)
    assert gram(spec, [[0.0]], [[1.0]])[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_imq_analytic_value():
    # (1 + 3)^(-1/2) = 0.5
    spec = KernelSpec.imq(1.0, -0.5)
    x = [0.0, 0.0]
    y = [math.sqrt(3.0), 0.0]
    assert gram(spec, [x], [y])[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_laplacian_unit_distance():
    spec = KernelSpec.laplacian(2.0)
    assert gram(spec, [[0.0]], [[1.0]])[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_linear_kernel_is_dot_product():
    spec = KernelSpec.linear()
    assert gram(spec, [[1.0, 2.0]], [[3.0, -1.0]])[0, 0] == pytest.approx(1.0)


def test_kernel_parameter_validation():
    with pytest.raises(ValidationError):
        KernelSpec.gaussian(0.0)
    with pytest.raises(ValidationError):
        KernelSpec.laplacian(-1.0)
    with pytest.raises(ValidationError):
        KernelSpec.imq(1.0, 0.5)  # beta must be negative
    with pytest.raises(ValidationError):
        KernelSpec.imq(0.0, -0.5)


@pytest.mark.parametrize("build", [
    lambda: KernelSpec.gaussian(math.inf),
    lambda: KernelSpec.gaussian(math.nan),
    lambda: KernelSpec.laplacian(math.inf),
    lambda: KernelSpec.imq(math.inf, -0.5),
    lambda: KernelSpec.imq(1.0, -math.inf),
])
def test_kernel_parameters_must_be_finite(build):
    with pytest.raises(ValidationError, match="finite"):
        build()


def test_bounds():
    assert KernelSpec.gaussian(2.0).bound() == 1.0
    assert KernelSpec.laplacian(1.0).bound() == 1.0
    assert KernelSpec.imq(2.0, -0.5).bound() == pytest.approx(2.0 ** -1.0)
    assert KernelSpec.linear().bound() is None


def test_gram_two_point_analytic():
    spec = KernelSpec.gaussian(1.0)
    k = gram(spec, np.array([[0.0], [1.0]]))
    e = math.exp(-1.0)
    assert np.allclose(k, [[1.0, e], [e, 1.0]], atol=1e-15)


def test_gram_matches_entrywise_eval():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((5, 3))
    for spec in (
        KernelSpec.gaussian(0.7),
        KernelSpec.laplacian(1.3),
        KernelSpec.imq(1.5, -0.4),
        KernelSpec.linear(),
    ):
        k = gram(spec, pts)
        for i in range(5):
            for j in range(5):
                assert k[i, j] == pytest.approx(gram(spec, [pts[i]], [pts[j]])[0, 0], abs=1e-12)
        assert np.allclose(k, k.T, atol=1e-12)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((40, 4))
    for spec in (KernelSpec.gaussian(0.5), KernelSpec.laplacian(2.0), KernelSpec.imq(1.0, -0.5)):
        eigenvalues = np.linalg.eigvalsh(gram(spec, pts))
        assert eigenvalues.min() >= -1e-8 * max(eigenvalues.max(), 1.0)


def test_gram_rectangular_shape_and_mismatch():
    spec = KernelSpec.gaussian(1.0)
    left = np.zeros((3, 2))
    right = np.ones((4, 2))
    assert gram(spec, left, right).shape == (3, 4)
    with pytest.raises(ValidationError):
        gram(spec, left, np.ones((4, 3)))


def test_diagonal_is_ones_for_gaussian():
    spec = KernelSpec.gaussian(0.3)
    pts = np.random.default_rng(0).standard_normal((6, 2))
    assert np.allclose(spec.diagonal(pts), 1.0)


def test_median_heuristic_three_points():
    # squared distances {1, 1, 4}, median 1
    gamma = median_heuristic(np.array([[0.0], [1.0], [2.0]]))
    assert gamma == pytest.approx(1.0, abs=1e-15)


def test_median_heuristic_single_pair():
    gamma = median_heuristic(np.array([[0.0], [2.0]]))
    assert gamma == pytest.approx(0.25, abs=1e-15)


def test_median_heuristic_even_count_takes_lower_middle():
    # four points on a line: distances^2 {1, 4, 9, 1, 4, 1} sorted {1,1,1,4,4,9};
    # the lower of the two middle values is 1
    gamma = median_heuristic(np.array([[0.0], [1.0], [2.0], [3.0]]))
    assert gamma == pytest.approx(1.0, abs=1e-15)


def test_median_heuristic_identical_points_degenerate():
    with pytest.raises(DegenerateBandwidthError):
        median_heuristic(np.zeros((4, 2)))


def test_median_heuristic_subsample_is_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2500, 2))
    a = median_heuristic(pts, seed=9)
    b = median_heuristic(pts, seed=9)
    assert a == b
    full = median_heuristic(pts[:2000])
    assert a == pytest.approx(full, rel=0.5)  # subsample only needs the right scale


def _sorted_pair_statistic(points, metric, index_of):
    """The heuristics' order statistic by the full-matrix sort they once used."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] > 2000:
        keep = np.random.default_rng(0).choice(pts.shape[0], size=2000, replace=False)
        pts = pts[np.sort(keep)]
    pairs = np.sort(cdist(pts, pts, metric)[np.triu_indices(pts.shape[0], k=1)])
    return float(pairs[index_of(pairs.size)])


def test_heuristics_equal_the_sorted_pair_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    for n, d in ((7, 1), (300, 2), (1999, 3), (2600, 2)):
        pts = np.round(rng.standard_normal((n, d)), 1)  # rounding makes tied distances
        pts[rng.integers(0, n, size=n // 5)] = pts[0]  # and duplicate rows
        median = _sorted_pair_statistic(pts, "sqeuclidean", lambda size: (size - 1) // 2)
        assert median_heuristic(pts) == 1.0 / median
