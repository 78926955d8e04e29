"""Depth functions: halfspace (exact and sampled), logistic, kernel SVM, batch."""
import math

import numpy as np
import pytest

from lossdepth import depths, solvers
from lossdepth.core import (
    LOG2,
    DataMatrix,
    DepthProblem,
    LossKind,
    QueryPoint,
    Reporting,
    ValidationError,
)
from lossdepth.depths import (
    BatchResult,
    DepthBatchRequest,
    DepthResult,
    HalfspaceConfig,
    default_halfspace_config,
    depth_batch,
    halfspace_depth,
    halfspace_depth_as_loss,
    logistic_depth,
    svm_depth,
)
from lossdepth.kernels import KernelSpec, gram
from lossdepth.solvers import SolverConfig, svm_dual_solve


def brute_force_halfspace_2d(points, z):
    """Candidate-direction search: normals perpendicular to each z - x_i,
    nudged both ways, plus axis fallbacks.  Exhaustive for point sets in
    general position and a safe certificate either way."""
    diffs = points - z
    angles = np.arctan2(diffs[:, 1], diffs[:, 0])
    candidates = [0.0, 0.5 * np.pi]
    for theta in angles:
        for base in (theta + 0.5 * np.pi, theta - 0.5 * np.pi):
            for nudge in (-1e-9, 0.0, 1e-9):
                candidates.append(base + nudge)
    best = points.shape[0]
    for angle in candidates:
        u = np.array([math.cos(angle), math.sin(angle)])
        margins = diffs @ u
        best = min(best, int(np.sum(margins >= 0.0)), int(np.sum(margins <= 0.0)))
    return best / points.shape[0]


def integer_halfspace_2d(points, z):
    """Exact depth for integer coordinates, in integer arithmetic.

    Every open gap of directions is entered by turning some boundary normal
    s1 * perp(d_i) slightly towards s2 * d_i.  In that direction point j is
    covered when its margin against the normal is positive, or zero (it is
    collinear with d_i) and it lies on the s2 side along d_i.
    """
    diffs = [(int(p[0]) - int(z[0]), int(p[1]) - int(z[1])) for p in points]
    rest = [d for d in diffs if d != (0, 0)]
    if not rest:
        return 1.0
    best = len(rest)
    for ax, ay in rest:
        for s1 in (1, -1):
            for s2 in (1, -1):
                covered = 0
                for bx, by in rest:
                    margin = s1 * (ax * by - ay * bx)
                    if margin > 0 or (margin == 0 and s2 * (ax * bx + ay * by) > 0):
                        covered += 1
                best = min(best, covered)
    return (best + len(diffs) - len(rest)) / len(diffs)


COLUMN = lambda xs: np.asarray(xs, dtype=float)[:, None]


def test_halfspace_1d_between_points():
    # min(P(X >= 2), P(X <= 2)) = min(2/3, 2/3)
    assert halfspace_depth([2.0], COLUMN([1.0, 2.0, 3.0])) == pytest.approx(2.0 / 3.0)


def test_halfspace_1d_at_the_edge_and_outside():
    data = COLUMN([1.0, 2.0, 3.0])
    assert halfspace_depth([1.0], data) == pytest.approx(1.0 / 3.0)
    assert halfspace_depth([0.0], data) == 0.0
    assert halfspace_depth([7.5], data) == 0.0


def test_halfspace_1d_with_duplicates():
    data = COLUMN([1.0, 2.0, 2.0, 3.0])
    assert halfspace_depth([2.0], data) == pytest.approx(3.0 / 4.0)


def test_halfspace_2d_square_center():
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert halfspace_depth([0.0, 0.0], square) == pytest.approx(0.5)
    assert halfspace_depth([2.0, 0.0], square) == 0.0


def test_halfspace_2d_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(1, 26))
        points = rng.standard_normal((n, 2))
        if rng.integers(2):
            points = np.round(points * 2.0) / 2.0  # force collinear ties sometimes
        z = rng.standard_normal(2) if rng.integers(2) else points[int(rng.integers(n))]
        exact = halfspace_depth(z, points)
        oracle = brute_force_halfspace_2d(points, z)
        assert exact == pytest.approx(oracle, abs=1e-12), f"trial {trial}"


def test_halfspace_2d_matches_integer_oracle_on_degenerate_sets():
    # every closed halfspace through the origin holds one of these two points
    assert halfspace_depth([0.0, 0.0], np.array([[3.0, 2.0], [-9.0, -6.0]])) == 0.5
    rng = np.random.default_rng(57)
    for trial in range(600):
        z = rng.integers(-5, 6, 2)
        h = rng.integers(-6, 7, (int(rng.integers(1, 7)), 2))
        if trial % 3 == 0:  # antipodal pairs z +- h
            points = np.vstack([z + h, z - h])
        elif trial % 3 == 1:  # collinear pairs z + h, z - k h
            points = np.vstack([z + h, z - rng.integers(1, 4, (h.shape[0], 1)) * h])
        else:  # a small grid with repeats and the query among the points
            points = np.vstack([rng.integers(-4, 5, (int(rng.integers(1, 12)), 2)), z])
        points = rng.permutation(points)
        exact = halfspace_depth(z.astype(float), points.astype(float))
        assert exact == integer_halfspace_2d(points, z), f"trial {trial}"


def test_halfspace_2d_query_on_duplicate_rows():
    points = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
    # duplicates of the query sit on every hyperplane through it
    value = halfspace_depth([1.0, 1.0], points)
    assert value == pytest.approx(brute_force_halfspace_2d(points, np.array([1.0, 1.0])))
    assert value >= 0.5


def test_halfspace_batch_is_bit_identical_to_single_calls_across_block_edges(monkeypatch):
    # 4 reference rows per query: a 2-d sweep block then holds `size` queries
    rng = np.random.default_rng(71)
    size = 3
    for d, config in ((1, HalfspaceConfig.exact_1d()), (2, HalfspaceConfig.exact_2d()),
                      (3, HalfspaceConfig.random_directions(40, seed=5))):
        reference = np.round(rng.standard_normal((12, d)) * 2.0) / 2.0  # ties and repeats
        monkeypatch.setattr(depths, "HALFSPACE_BLOCK_PAIRS", size * reference.shape[0])
        for m in (1, size - 1, size, size + 1, 3 * size + 1):
            drawn = np.round(rng.standard_normal((m - m // 2, d)))
            queries = np.vstack([reference[: m // 2], drawn])
            alone = [halfspace_depth(q, reference, config) for q in queries]
            request = DepthBatchRequest(reference=reference, queries=queries,
                                        method="halfspace", halfspace=config)
            batch = depth_batch(request)
            assert batch.errors == []
            assert [r.value for r in batch.results] == alone, (config.mode, m)
            assert all(type(r.value) is float for r in batch.results)


def test_halfspace_1d_counts_ties_on_both_closed_sides():
    data = COLUMN([-1.0, 0.0, 0.0, 0.0, 2.0, 2.0, 5.0])
    queries = [-2.0, -1.0, -0.0, 1.0, 2.0, 5.0, 6.0]
    request = DepthBatchRequest(reference=data, queries=COLUMN(queries), method="halfspace")
    # min(#{x <= z}, #{x >= z}) / 7, with -0.0 equal to 0.0
    expected = [0.0, 1 / 7, 4 / 7, 3 / 7, 3 / 7, 1 / 7, 0.0]
    assert list(depth_batch(request).values) == expected


def test_halfspace_random_directions_upper_bounds_exact():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((30, 2))
    z = np.array([0.2, 0.1])
    exact = halfspace_depth(z, points)
    sampled = halfspace_depth(z, points, HalfspaceConfig.random_directions(4000, seed=1))
    assert sampled >= exact - 1e-12
    assert sampled <= exact + 0.1


def test_halfspace_random_directions_exact_in_1d():
    # every sampled direction normalises to +-1, so sampling is exact
    data = COLUMN([1.0, 2.0, 3.0, 4.0])
    cfg = HalfspaceConfig.random_directions(5, seed=3)
    assert halfspace_depth([2.5], data, cfg) == pytest.approx(0.5)


def test_halfspace_config_defaults_by_dimension():
    assert default_halfspace_config(1).mode == "exact-1d"
    assert default_halfspace_config(2).mode == "exact-2d"
    with pytest.raises(ValidationError):
        default_halfspace_config(3)


def test_halfspace_config_validation():
    with pytest.raises(ValidationError):
        HalfspaceConfig.random_directions(0)
    with pytest.raises(ValidationError):
        halfspace_depth([0.0], COLUMN([1.0]), HalfspaceConfig.exact_2d())


def test_halfspace_dimension_mismatch():
    with pytest.raises(ValidationError):
        halfspace_depth([0.0, 0.0], COLUMN([1.0, 2.0]))


def test_as_loss_matches_depth_in_1d():
    data = COLUMN([1.0, 2.0, 3.0])
    value = halfspace_depth_as_loss([2.0], data, [[1.0], [-1.0]])
    assert value == pytest.approx(2.0 / 3.0)
    assert value == pytest.approx(halfspace_depth([2.0], data))


def test_as_loss_separating_direction_gives_zero():
    data = COLUMN([1.0, 2.0, 3.0])
    assert halfspace_depth_as_loss([0.0], data, [[-1.0], [1.0]]) == 0.0


def test_as_loss_equals_exact_2d_on_candidate_normals():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        points = rng.standard_normal((n, 2))
        z = rng.standard_normal(2)
        diffs = points - z
        angles = np.arctan2(diffs[:, 1], diffs[:, 0])
        normals = []
        for theta in angles:
            for base in (theta + 0.5 * np.pi, theta - 0.5 * np.pi):
                for nudge in (-1e-9, 0.0, 1e-9):
                    normals.append([math.cos(base + nudge), math.sin(base + nudge)])
        value = halfspace_depth_as_loss(z, points, normals)
        assert value == pytest.approx(halfspace_depth(z, points), abs=1e-12)


def test_as_loss_strict_convention_drops_boundary_atoms():
    # the optimal hyperplane through a duplicated query carries two atoms:
    # closed counting keeps them, strict counting lets them score correct
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0], [-1.0, -1.0]])
    z = [0.0, 0.0]
    directions = [[0.0, 1.0]]
    closed = halfspace_depth_as_loss(z, points, directions)
    strict = halfspace_depth_as_loss(z, points, directions, strict=True)
    assert closed == pytest.approx(1.0)  # every point is on or below the line
    assert strict == pytest.approx(0.5)  # only the two strictly below count


def test_as_loss_rejects_bad_directions():
    data = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        halfspace_depth_as_loss([0.0, 0.0], data, np.empty((0, 2)))
    with pytest.raises(ValidationError):
        halfspace_depth_as_loss([0.0, 0.0], data, [[0.0, 0.0]])


def test_logistic_depth_symmetric_pair_no_intercept():
    # the objective is even in w, so w* = 0 and the normalised depth is exactly 1
    result = logistic_depth([0.0], COLUMN([-1.0, 1.0]), 1.0, intercept=False)
    assert result.converged
    assert abs(float(result.coefficients[0])) <= 1e-8
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_logistic_depth_symmetric_pair_matches_grid():
    result = logistic_depth([0.0], COLUMN([-1.0, 1.0]), 1.0)
    ws = np.linspace(-2.0, 2.0, 801)
    bs = np.linspace(-2.0, 2.0, 801)
    w_grid, b_grid = np.meshgrid(ws, bs)
    objective = (
        0.25 * np.logaddexp(0.0, -(-w_grid + b_grid))
        + 0.25 * np.logaddexp(0.0, -(w_grid + b_grid))
        + 0.5 * np.logaddexp(0.0, b_grid)
        + (w_grid**2 + b_grid**2)
    )
    i = np.unravel_index(np.argmin(objective), objective.shape)
    loss_only = (
        0.25 * np.logaddexp(0.0, -(-w_grid[i] + b_grid[i]))
        + 0.25 * np.logaddexp(0.0, -(w_grid[i] + b_grid[i]))
        + 0.5 * np.logaddexp(0.0, b_grid[i])
    ) / LOG2
    assert result.value == pytest.approx(float(loss_only), abs=1e-3)


def test_logistic_depth_far_query_limit():
    # a remote query cannot be pushed to zero loss: the ridge pins the
    # intercept, so the reference side keeps paying.  The two-variable
    # asymptotic problem (slope along the query direction, intercept) gives
    # the value; a dense grid over it is the oracle.
    rng = np.random.default_rng(2)
    reference = 1e-4 * rng.standard_normal((40, 2))
    query = np.array([100.0, 0.0])
    result = logistic_depth(query, reference, 1.0,
                            solver=SolverConfig(max_iterations=200_000, tolerance=1e-9))
    assert result.converged
    ws = np.linspace(-0.2, 0.05, 2001)
    bs = np.linspace(-0.5, 1.0, 2001)
    w_grid, b_grid = np.meshgrid(ws, bs)
    objective = (
        0.5 * np.logaddexp(0.0, -b_grid)
        + 0.5 * np.logaddexp(0.0, 100.0 * w_grid + b_grid)
        + (w_grid**2 + b_grid**2)
    )
    i = np.unravel_index(np.argmin(objective), objective.shape)
    oracle = (
        0.5 * np.logaddexp(0.0, -b_grid[i])
        + 0.5 * np.logaddexp(0.0, 100.0 * w_grid[i] + b_grid[i])
    ) / LOG2
    assert result.value == pytest.approx(float(oracle), abs=5e-4)
    assert 0.4 < result.value < 0.5


def test_logistic_depth_normalization_scales_by_log2():
    rng = np.random.default_rng(6)
    reference = rng.standard_normal((15, 2))
    query = np.array([0.3, -0.4])
    normalized = logistic_depth(query, reference, 0.5)
    raw = logistic_depth(query, reference, 0.5, normalize=False)
    assert raw.value == pytest.approx(normalized.value * LOG2, rel=1e-12)


def test_logistic_depth_reporting_adds_ridge():
    rng = np.random.default_rng(9)
    reference = rng.standard_normal((20, 2)) + 0.5
    query = np.array([2.0, 2.0])
    loss_only = logistic_depth(query, reference, 1.0)
    with_reg = logistic_depth(query, reference, 1.0, reporting=Reporting.LOSS_PLUS_REG)
    penalty = float(loss_only.coefficients @ loss_only.coefficients)
    assert with_reg.value == pytest.approx(loss_only.value + penalty / LOG2, abs=1e-9)
    assert with_reg.value >= loss_only.value


def test_logistic_depth_bounded_on_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 6))
        reference = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0))
        query = rng.standard_normal(d) * 3.0
        lam = float(rng.uniform(0.01, 10.0))
        value = logistic_depth(query, reference, lam).value
        assert -1e-9 <= value <= 1.0 + 1e-9


def test_logistic_depth_deeper_at_the_mean():
    rng = np.random.default_rng(10)
    reference = rng.standard_normal((80, 2))
    center = logistic_depth(reference.mean(axis=0), reference).value
    fringe = logistic_depth([4.0, 4.0], reference).value
    assert center > fringe


def test_svm_depth_query_coincident_with_single_point():
    point = np.array([[0.3, -0.2]])
    result = svm_depth(point[0], point, 1.0, kernel=KernelSpec.gaussian(1.0))
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.coefficients == pytest.approx([0.25, 0.25], abs=1e-12)


def test_svm_depth_never_exceeds_one():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        reference = rng.standard_normal((n, 2)) * 2.0
        query = rng.standard_normal(2) * 4.0
        lam = float(rng.uniform(0.01, 10.0))
        gamma = float(rng.uniform(0.1, 2.0))
        value = svm_depth(query, reference, lam, kernel=KernelSpec.gaussian(gamma)).value
        assert -1e-9 <= value <= 1.0 + 1e-9


def test_svm_depth_shared_reference_gram_changes_nothing():
    rng = np.random.default_rng(25)
    reference = rng.standard_normal((25, 2))
    query = np.array([0.5, 0.1])
    spec = KernelSpec.gaussian(0.6)
    cached = gram(spec, reference)
    direct = svm_depth(query, reference, 1.0, kernel=spec)
    reused = svm_depth(query, reference, 1.0, kernel=spec, reference_gram=cached)
    assert reused.value == direct.value


def test_svm_depth_reporting_adds_kernel_norm():
    rng = np.random.default_rng(33)
    reference = rng.standard_normal((20, 2))
    query = np.array([1.0, -1.0])
    spec = KernelSpec.gaussian(0.5)
    loss_only = svm_depth(query, reference, 1.0, kernel=spec)
    with_reg = svm_depth(query, reference, 1.0, kernel=spec,
                         reporting=Reporting.LOSS_PLUS_REG)
    assert with_reg.value >= loss_only.value - 1e-12


def test_svm_depth_with_intercept_reports_offset():
    rng = np.random.default_rng(44)
    reference = rng.standard_normal((15, 2))
    query = np.array([3.0, 3.0])
    result = svm_depth(query, reference, 1.0, kernel=KernelSpec.gaussian(1.0),
                       intercept=True)
    assert result.coefficients.size == 15 + 2  # duals plus trailing offset
    assert np.isfinite(result.coefficients[-1])


def _dual_solver_depth(query, reference, lam, spec, reporting):
    """The kernel depth from svm_dual_solve at a tight tolerance, as svm_depth
    computes it outside the closed form."""
    problem = DepthProblem(DataMatrix(reference), QueryPoint(query), LossKind.HINGE, lam,
                           spec, intercept=False, reporting=reporting)
    alpha, diagnostics = svm_dual_solve(problem, SolverConfig(tolerance=1e-13))
    f, n = diagnostics.function_values, reference.shape[0]
    value = np.maximum(0.0, 1.0 - f[:n]).sum() / (2.0 * n) + 0.5 * max(0.0, 1.0 + f[n])
    if reporting is Reporting.LOSS_PLUS_REG:
        value += lam * float(np.append(alpha[:n], -alpha[n]) @ f)
    return value


CLOSED_FORM_KERNELS = (
    KernelSpec.gaussian(0.7),
    KernelSpec.laplacian(1.3),
    KernelSpec.imq(2.0, -0.5),  # kappa = 2^-1
)


def test_svm_closed_form_matches_the_dual_solver():
    rng = np.random.default_rng(61)
    reference = rng.standard_normal((25, 2))
    queries = np.vstack([rng.standard_normal((3, 2)) * 2.0, reference[:1]])
    for spec in CLOSED_FORM_KERNELS:
        kappa = spec.bound()
        for lam in (kappa / 4.0, 1.0, 3.0):
            box = np.append(np.full(25, 1.0 / (100.0 * lam)), 1.0 / (4.0 * lam))
            for reporting in Reporting:
                for query in queries:
                    result = svm_depth(query, reference, lam, kernel=spec, reporting=reporting)
                    expected = _dual_solver_depth(query, reference, lam, spec, reporting)
                    assert result.value == pytest.approx(expected, abs=1e-12)
                    assert np.array_equal(result.coefficients, box)
                    assert result.iterations == 0
                    assert result.residual == 0.0  # no margin exceeds 1 at the box
                    assert result.converged


def test_svm_outside_the_closed_form_runs_the_dual_solver():
    rng = np.random.default_rng(62)
    reference = rng.standard_normal((25, 2))
    query = np.array([0.4, -0.3])
    gaussian = KernelSpec.gaussian(0.7)
    for spec, lam, intercept in (
        (KernelSpec.linear(), 1.0, False),
        (gaussian, 1.0, True),
        (gaussian, np.nextafter(0.25, 0.0), False),  # just below kappa/4
        (KernelSpec.imq(2.0, -0.5), 0.12, False),
    ):
        alone = svm_depth(query, reference, lam, kernel=spec, intercept=intercept)
        request = DepthBatchRequest(reference=reference, queries=query[None, :], method="svm",
                                    lam=lam, kernel=spec, intercept=intercept)
        batched = depth_batch(request).results[0]
        assert alone.iterations > 0
        assert batched.iterations > 0


def test_svm_closed_form_is_bit_identical_alone_and_in_a_batch(monkeypatch):
    rng = np.random.default_rng(63)
    reference = rng.standard_normal((50, 2))
    queries = rng.standard_normal((30, 2)) * 1.5
    for budget in (depths.KERNEL_BLOCK_ENTRIES, 64):  # 64: many blocks, one query per block
        monkeypatch.setattr(depths, "KERNEL_BLOCK_ENTRIES", budget)
        for spec in CLOSED_FORM_KERNELS:
            for reporting in Reporting:
                alone = [svm_depth(q, reference, 1.0, kernel=spec, reporting=reporting)
                         for q in queries]
                request = DepthBatchRequest(reference=reference, queries=queries,
                                            method="svm", kernel=spec, reporting=reporting)
                batch = depth_batch(request).results
                assert [r.value for r in batch] == [r.value for r in alone]
                assert [r.residual for r in batch] == [r.residual for r in alone]


def test_kernel_means_match_the_gram_row_means(monkeypatch):
    # with 64 entries per block a block holds 64 // (n - s) reference rows:
    # n = 8 and 16 end a block exactly at n, and the neighbours one off it
    monkeypatch.setattr(depths, "KERNEL_BLOCK_ENTRIES", 64)
    rng = np.random.default_rng(64)
    spec = KernelSpec.gaussian(0.4)
    queries = rng.standard_normal((3, 2))
    for n in (1, 7, 8, 9, 15, 16, 17, 40):
        reference = rng.standard_normal((n, 2))
        row_means, query_kernel = depths._kernel_means(spec, reference, queries)
        assert np.allclose(row_means, gram(spec, reference).mean(axis=1), rtol=0.0, atol=1e-15)
        assert np.array_equal(query_kernel, gram(spec, queries, reference))


def test_depth_batch_request_validation():
    reference = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        DepthBatchRequest(reference=reference, queries=np.zeros((2, 3)), method="logistic")
    with pytest.raises(ValidationError):
        DepthBatchRequest(reference=reference, queries=np.zeros((2, 2)), method="nope")
    with pytest.raises(ValidationError):
        DepthBatchRequest(reference=reference, queries=np.zeros((2, 2)), method="svm")


def test_depth_batch_empty_queries():
    request = DepthBatchRequest(reference=np.zeros((3, 2)),
                                queries=np.empty((0, 2)), method="logistic")
    outcome = depth_batch(request)
    assert outcome.values.shape == (0,)
    assert outcome.errors == []


def _same_logistic_result(a: DepthResult, b: DepthResult) -> bool:
    return (a.value == b.value and a.iterations == b.iterations and a.residual == b.residual
            and a.converged == b.converged and np.array_equal(a.coefficients, b.coefficients))


def test_depth_batch_matches_single_calls():
    rng = np.random.default_rng(1)
    reference = rng.standard_normal((30, 2))
    queries = rng.standard_normal((8, 2))
    request = DepthBatchRequest(reference=reference, queries=queries, method="logistic")
    outcome = depth_batch(request)
    assert outcome.errors == []
    for query, result in zip(queries, outcome.results):
        assert _same_logistic_result(result, logistic_depth(query, reference, 1.0))


def test_logistic_batch_is_bit_identical_to_single_calls_across_block_edges(monkeypatch):
    # a Newton block holds `size` queries of dim x 10 Hessian-product entries
    rng = np.random.default_rng(72)
    size = 3
    for d, intercept, reporting in ((1, True, Reporting.LOSS_ONLY), (2, False, Reporting.LOSS_ONLY),
                                    (3, True, Reporting.LOSS_PLUS_REG)):
        reference = rng.standard_normal((10, d)) * 2.0
        dim = d + intercept
        monkeypatch.setattr(depths, "LOGISTIC_BLOCK_ENTRIES", size * dim * 10)
        for m in (1, size - 1, size, size + 1, 3 * size + 1):
            queries = rng.standard_normal((m, d)) * 3.0
            solver = SolverConfig(tolerance=1e-12)
            alone = [logistic_depth(q, reference, 0.05, intercept=intercept,
                                    reporting=reporting, solver=solver) for q in queries]
            request = DepthBatchRequest(reference=reference, queries=queries, method="logistic",
                                        lam=0.05, intercept=intercept, reporting=reporting,
                                        solver=solver)
            batch = depth_batch(request)
            assert batch.errors == []
            assert all(_same_logistic_result(r, a) for r, a in zip(batch.results, alone)), (d, m)
            assert all(type(r.value) is float for r in batch.results)


def test_logistic_block_stops_each_query_on_its_own_budget():
    # the far query needs more Newton steps than the near ones: with a budget
    # of the near queries' count it stops unconverged while they converge
    rng = np.random.default_rng(9)
    reference = rng.standard_normal((40, 2))
    queries = np.array([[0.3, -0.2], [40.0, 25.0], [-0.5, 0.4]])
    full = [logistic_depth(q, reference, 0.01) for q in queries]
    assert full[1].iterations > max(full[0].iterations, full[2].iterations)
    budget = SolverConfig(max_iterations=max(full[0].iterations, full[2].iterations))
    request = DepthBatchRequest(reference=reference, queries=queries, method="logistic",
                                lam=0.01, solver=budget)
    near, far, other = depth_batch(request).results
    assert near.converged and other.converged
    assert _same_logistic_result(near, full[0]) and _same_logistic_result(other, full[2])
    assert not far.converged
    assert far.iterations == budget.max_iterations
    assert far.residual > budget.tolerance
    assert _same_logistic_result(far, logistic_depth(queries[1], reference, 0.01, solver=budget))


def test_logistic_line_search_failure_ends_only_that_query(monkeypatch):
    # this query's Newton step needs one halving at its fourth step; with the
    # search capped at the full step it ends there, unconverged, while its
    # block-mate, which never halves, converges
    reference = np.array([[-1.1, -3.1, 2.3], [-3.2, -0.7, -7.5],
                          [7.1, -18.9, 3.9], [-0.3, 7.7, 13.2]])
    damped = np.array([6.1, -19.5, 3.4])
    assert logistic_depth(damped, reference, 5e-4).converged
    monkeypatch.setattr(solvers, "_MAX_HALVINGS", 1)
    request = DepthBatchRequest(reference=reference, queries=np.vstack([reference[0], damped]),
                                method="logistic", lam=5e-4)
    mate, stopped = depth_batch(request).results
    assert mate.converged
    assert not stopped.converged
    assert stopped.iterations == 3 and stopped.residual > 1e-8
    assert _same_logistic_result(stopped, logistic_depth(damped, reference, 5e-4))
    assert _same_logistic_result(mate, logistic_depth(reference[0], reference, 5e-4))


def test_depth_batch_collects_per_query_errors():
    # halfspace depth over d=3 queries is reachable only through an explicit
    # sampling config; per-query failures must not abort the batch
    reference = np.zeros((4, 3))
    request = DepthBatchRequest(
        reference=reference,
        queries=np.zeros((2, 3)),
        method="halfspace",
        halfspace=HalfspaceConfig.exact_2d(),  # wrong dimension on purpose
    )
    outcome = depth_batch(request)
    assert [i for i, _ in outcome.errors] == [0, 1]
    assert outcome.results == [None, None]
    with pytest.raises(ValidationError):
        outcome.values
    for d, config in ((2, HalfspaceConfig.exact_1d()), (1, HalfspaceConfig.exact_2d())):
        request = DepthBatchRequest(reference=np.zeros((4, d)), queries=np.zeros((3, d)),
                                    method="halfspace", halfspace=config)
        outcome = depth_batch(request)
        assert [i for i, _ in outcome.errors] == [0, 1, 2]
        assert outcome.results == [None, None, None]


def test_depth_batch_builds_the_reference_gram_once(monkeypatch):
    calls = []

    def counting_gram(*args):
        calls.append(args)
        return gram(*args)

    monkeypatch.setattr(depths, "gram", counting_gram)
    rng = np.random.default_rng(4)
    request = DepthBatchRequest(reference=rng.standard_normal((30, 2)),
                                queries=rng.standard_normal((5, 2)), method="svm",
                                kernel=KernelSpec.gaussian(0.8))
    assert depth_batch(request).errors == []
    assert len(calls) == 1


def test_depth_batch_with_no_queries_builds_no_gram(monkeypatch):
    calls = []

    def counting_gram(*args):
        calls.append(args)
        return gram(*args)

    monkeypatch.setattr(depths, "gram", counting_gram)
    reference = np.random.default_rng(4).standard_normal((30, 2))
    for intercept in (False, True):
        request = DepthBatchRequest(reference=reference, queries=np.empty((0, 2)), method="svm",
                                    lam=0.01, kernel=KernelSpec.gaussian(0.8),
                                    intercept=intercept)
        batch = depth_batch(request)
        assert batch.results == [] and batch.errors == []
    assert calls == []


def test_batch_result_values_reports_first_failure():
    partial = BatchResult(
        results=[DepthResult(0.5, 1, 0.0, True), None],
        errors=[(1, "boom")],
    )
    with pytest.raises(ValidationError) as info:
        partial.values
    assert "boom" in str(info.value)
    assert "index 1" in str(info.value)
