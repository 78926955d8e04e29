"""Kernel evaluations, Gram matrices and bandwidth heuristics."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from lossdepth import kernels, native
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
    # c**2 underflows to 0 (gram's diagonal is then inf) or overflows, or the
    # diagonal (c**2)**beta overflows
    lambda: KernelSpec.imq(1e-200, -0.5),
    lambda: KernelSpec.imq(1e200, -0.5),
    lambda: KernelSpec.imq(1e-100, -2.0),
    lambda: KernelSpec.imq(1e-10, -100.0),
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


def test_median_heuristic_refuses_an_overflowing_median():
    # the median squared distance is inf, whose inverse would be a gamma of 0
    points = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, -1e200]])
    with pytest.raises(DegenerateBandwidthError, match="overflows to inf"):
        median_heuristic(points)


def test_median_heuristic_subsample_is_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2500, 2))
    a = median_heuristic(pts)
    b = median_heuristic(pts)
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


def _structured_references(rng):
    """References above median_heuristic's selection bound, each with a
    structure that could defeat a bracket taken from a strided sample of the
    pairs, and the message it raises, if any."""
    points = rng.standard_normal((1500, 2))
    duplicates = np.repeat(rng.standard_normal((1, 3)), 1200, axis=0)
    duplicates[:120] = rng.standard_normal((120, 3))  # 90 % of the rows are one row
    overflowing, partly = rng.standard_normal((1300, 2)), rng.standard_normal((1300, 2))
    overflowing[:700] *= 1e160  # 79 % of the pairs square to inf
    partly[:300] *= 1e160  # 41 %
    yield points[np.argsort(points[:, 0])], None  # rows sorted by one coordinate
    yield np.cumsum(rng.standard_normal((1800, 2)), axis=0), None  # a random walk
    # two far clusters with C(594, 2) + C(560, 2) pairs inside them, the
    # lower median's rank plus one, or C(596, 2) + C(562, 2), its rank: the
    # median is the last value below the gap, or the first above it
    for near, far in ((594, 560), (596, 562)):
        yield np.vstack([rng.standard_normal((near, 2)), rng.standard_normal((far, 2)) + 1e4]), None
    yield duplicates, "is zero"
    yield rng.integers(0, 4, (2000, 2)).astype(float), None  # an integer grid: heavy ties
    yield overflowing, "overflows to inf"
    yield partly, None
    infinite = rng.standard_normal((1100, 2))
    infinite[:2, 0] = math.inf  # the pair of these two rows is NaN: the one-array path
    yield infinite, None


def test_heuristics_equal_the_sorted_pair_formula_bit_for_bit(monkeypatch):
    # with the compiled selection pass and, without the library, the blocked cdist one
    rng = np.random.default_rng(12)
    cases = []
    for n, d in ((7, 1), (300, 2), (1999, 3), (2600, 2)):
        pts = np.round(rng.standard_normal((n, d)), 1)  # rounding makes tied distances
        pts[rng.integers(0, n, size=n // 5)] = pts[0]  # and duplicate rows
        cases.append((pts, None))
    cases += _structured_references(rng)
    for pts, refusal in cases:
        with np.errstate(over="ignore"):
            median = _sorted_pair_statistic(pts, "sqeuclidean", lambda size: (size - 1) // 2)
        for compiled in (True, False):
            with monkeypatch.context() as patch:
                if not compiled:
                    patch.setattr(native, "_library", lambda: None)
                if refusal is None:
                    assert median_heuristic(pts) == 1.0 / median
                else:
                    assert median in (0.0, math.inf)
                    with pytest.raises(DegenerateBandwidthError, match=refusal):
                        median_heuristic(pts)


def test_a_missed_bracket_costs_one_more_pass_and_keeps_the_bits(monkeypatch):
    # bounds that put the rank in each of the five classes, and capacities
    # too small for [lo, hi]: the second pass keeps the rank's class
    rng = np.random.default_rng(38)
    passes = []

    def counted(*args):
        passes.append(args)
        return select_pairs(*args)

    select_pairs = kernels._select_pairs
    monkeypatch.setattr(kernels, "_select_pairs", counted)
    for pts in (rng.standard_normal((200, 2)), rng.integers(0, 3, (200, 2)).astype(float)):
        pairs = np.sort(pdist(pts, "sqeuclidean"))
        size = pairs.size
        for rank in (0, 1, size // 5, (size - 1) // 2, size - 2, size - 1):
            for at in (0, size // 4, size // 2, 3 * size // 4, size - 4):
                bounds = pairs[[at, at + 1, at + 2, at + 3]]
                for capacity in (0, 3, size):
                    for compiled in (True, False):
                        passes.clear()
                        with monkeypatch.context() as patch:
                            if not compiled:
                                patch.setattr(native, "_library", lambda: None)
                            value = kernels._select_rank(pts, size, rank, bounds, capacity)
                        assert value == pairs[rank]
                        assert len(passes) <= 2


def test_the_median_heuristic_holds_no_array_of_every_pair():
    # a 4,000-row reference is subsampled to 2,000 rows, 1,999,000 pairs: one
    # array of them all takes 15.3 MiB
    reference = np.random.default_rng(38).standard_normal((4000, 2))
    median_heuristic(reference)  # loads the library, outside the trace
    tracemalloc.start()
    try:
        median_heuristic(reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
