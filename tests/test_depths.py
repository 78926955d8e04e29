"""Depth functions: halfspace (exact and sampled), logistic, kernel SVM, batch."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lossdepth import depths, native, solvers
from lossdepth.core import LOG2, Reporting, ValidationError
from lossdepth.depths import (
    METHODS,
    DepthBatchRequest,
    DepthResult,
    HalfspaceConfig,
    bind_batch,
    depth_batch,
    halfspace_depth,
    halfspace_depth_as_loss,
    logistic_depth,
    svm_depth,
)
from lossdepth.kernels import KernelSpec, gram
from lossdepth.solvers import SolverConfig, svm_dual_solves


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


def test_halfspace_2d_ignores_the_sign_of_zero_differences():
    # A difference is -0.0 where a -0.0 coordinate meets a +0.0 one: copies of
    # the query written as -0.0, and points on the horizontal line through the
    # query whose y is -0.0, on either side of it.  The queries are also
    # written with -0.0.  Every variant must give the integer depth's bits.
    rng = np.random.default_rng(23)
    for trial in range(400):
        z = np.array([float(rng.integers(-1, 2)) if trial % 2 else 0.0, 0.0])
        line = rng.integers(-3, 4, int(rng.integers(1, 5)))
        parts = [rng.integers(-3, 4, (int(rng.integers(0, 6)), 2)),
                 np.column_stack([line, np.zeros_like(line)]),
                 np.tile(z.astype(int), (int(rng.integers(0, 3)), 1))]
        points = np.vstack(parts).astype(float)
        signed = points.copy()
        signed[(signed == 0.0) & (rng.random(signed.shape) < 0.7)] = -0.0
        queries = np.vstack([z, [z[0] + 0.5, 0.0]])
        expected = np.array([integer_halfspace_2d(points, z),
                             integer_halfspace_2d(2 * points, 2 * queries[1])])
        for reference in (points, signed):
            for rows in (queries, np.where(queries == 0.0, -0.0, queries)):
                values = depth_batch(DepthBatchRequest(reference=reference, queries=rows,
                                                       method="halfspace")).values
                assert values.tobytes() == expected.tobytes(), f"trial {trial}"


def test_halfspace_2d_is_bit_identical_under_permuted_reference_rows():
    # the sweep reads a run of equal angles only where it ends, whatever the
    # order of the points inside it
    rng = np.random.default_rng(31)
    for trial in range(120):
        n = int(rng.integers(1, 40))
        if trial % 2:
            reference = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-3, 4)
        else:  # ties, collinear points and repeats
            reference = rng.integers(-3, 4, (n, 2)).astype(float)
        queries = np.vstack([reference[rng.integers(n, size=3)],
                             np.round(rng.standard_normal((3, 2)) * 2.0)])
        values = depth_batch(DepthBatchRequest(reference=reference, queries=queries,
                                               method="halfspace")).values
        permuted = depth_batch(DepthBatchRequest(reference=rng.permutation(reference),
                                                 queries=queries, method="halfspace")).values
        assert permuted.tobytes() == values.tobytes(), f"trial {trial}"


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
    for d, config in ((1, None), (2, None), (3, HalfspaceConfig(40, seed=5))):
        reference = np.round(rng.standard_normal((12, d)) * 2.0) / 2.0  # ties and repeats
        monkeypatch.setattr(depths, "HALFSPACE_BLOCK_PAIRS", size * reference.shape[0])
        for m in (1, size - 1, size, size + 1, 3 * size + 1):
            drawn = np.round(rng.standard_normal((m - m // 2, d)))
            queries = np.vstack([reference[: m // 2], drawn])
            alone = [halfspace_depth(q, reference, config) for q in queries]
            request = DepthBatchRequest(reference=reference, queries=queries,
                                        method="halfspace", halfspace=config)
            batch = depth_batch(request)
            assert [r.value for r in _results(batch)] == alone, (d, m)
            assert all(type(r.value) is float for r in _results(batch))


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
    sampled = halfspace_depth(z, points, HalfspaceConfig(4000, seed=1))
    assert sampled >= exact - 1e-12
    assert sampled <= exact + 0.1


def test_halfspace_random_directions_exact_in_1d():
    # every sampled direction normalises to +-1, so sampling is exact
    data = COLUMN([1.0, 2.0, 3.0, 4.0])
    cfg = HalfspaceConfig(5, seed=3)
    assert halfspace_depth([2.5], data, cfg) == pytest.approx(0.5)


def test_halfspace_config_validation():
    with pytest.raises(ValidationError, match="needs n_directions >= 1"):
        HalfspaceConfig(0)
    with pytest.raises(ValidationError, match="dimension >= 3 needs an explicit"):
        halfspace_depth([0.0, 0.0, 0.0], np.eye(3))


def test_configs_refuse_budgets_and_seeds_that_are_not_integers():
    # a float budget used to fail inside a dual solve (ctypes.ArgumentError in
    # the compiled loop, TypeError in the numpy one), and a float or negative
    # halfspace count or seed inside numpy
    for budget in (2.5, 3.0):
        with pytest.raises(ValidationError, match="max_iterations must be an integer"):
            SolverConfig(max_iterations=budget)
    with pytest.raises(ValidationError, match="n_directions must be an integer"):
        HalfspaceConfig(2.5)
    for seed in (-1, 1.5):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            HalfspaceConfig(5, seed=seed)
    # numpy integers stay valid, with the bits of Python ints
    rng = np.random.default_rng(17)
    reference, queries = rng.standard_normal((20, 3)), rng.standard_normal((4, 3))
    kernel = KernelSpec.gaussian(0.5)
    for settings, numpy_settings in (
        (dict(method="halfspace", halfspace=HalfspaceConfig(30, seed=2)),
         dict(method="halfspace", halfspace=HalfspaceConfig(np.int32(30), seed=np.uint8(2)))),
        (dict(method="svm", lam=0.01, kernel=kernel, solver=SolverConfig(max_iterations=3)),
         dict(method="svm", lam=0.01, kernel=kernel,
              solver=SolverConfig(max_iterations=np.int64(3)))),
    ):
        plain, typed = (depth_batch(DepthBatchRequest(reference=reference, queries=queries,
                                                      **chosen))
                        for chosen in (settings, numpy_settings))
        assert plain.values.tobytes() == typed.values.tobytes()
        assert plain.iterations.tolist() == typed.iterations.tolist()


def test_halfspace_dimension_mismatch():
    with pytest.raises(ValidationError):
        halfspace_depth([0.0, 0.0], COLUMN([1.0, 2.0]))


def test_as_loss_matches_depth_in_1d():
    data = COLUMN([1.0, 2.0, 3.0])
    value = halfspace_depth_as_loss([2.0], data, [[1.0], [-1.0]])
    assert value == pytest.approx(2.0 / 3.0)
    assert value == pytest.approx(halfspace_depth([2.0], data))


def test_as_loss_in_three_dimensions_equals_random_directions_with_both_signs():
    # the random-directions depth checks each direction u as u and -u
    rng = np.random.default_rng(17)
    reference = rng.standard_normal((25, 3))
    directions = np.random.default_rng(4).standard_normal((50, 3))  # HalfspaceConfig's draw
    for z in (reference[0], rng.standard_normal(3), np.full(3, 5.0)):
        value = halfspace_depth_as_loss(z, reference, np.vstack([directions, -directions]))
        assert value == halfspace_depth(z, reference, HalfspaceConfig(50, seed=4))
        assert 0.0 <= value <= 0.5


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
    """The kernel depth from svm_dual_solves at a tight tolerance, as svm_depth
    computes it outside the closed form."""
    (alpha,), (f,), *_ = svm_dual_solves(
        spec, reference, query[None, :], lam, False, SolverConfig(tolerance=1e-13)
    )
    n = reference.shape[0]
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
            # the box solve returns the dual solver's columns
            tight = 1e-13
            box_columns = depths._box_solves(
                spec, reference, lambda: depths._kernel_row_means(spec, reference), queries,
                lam, tight,
            )
            dual_columns = svm_dual_solves(spec, reference, queries, lam, False,
                                           SolverConfig(tolerance=tight))
            alpha, fvals, offsets, iterations, residuals, converged = box_columns
            assert np.array_equal(alpha, np.broadcast_to(box, (4, 26)))
            assert alpha.strides[0] == 0 and not alpha.flags.writeable
            assert np.allclose(fvals, dual_columns[1], rtol=0.0, atol=1e-12)
            assert np.array_equal(offsets, dual_columns[2]) and not offsets.any()
            assert not iterations.any()
            assert np.all(residuals <= tight) and np.all(dual_columns[4] <= tight)
            assert np.array_equal(converged, dual_columns[5]) and converged.all()


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
        batched = depth_batch(request).result(0)
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
                batch = _results(depth_batch(request))
                assert [r.value for r in batch] == [r.value for r in alone]
                assert [r.residual for r in batch] == [r.residual for r in alone]


def test_closed_form_coefficients_stay_one_box_across_blocks(monkeypatch):
    # 64 entries per block hold 2 queries of n = 30: four blocks, and the
    # stacked coefficients are still the one box row, never copied
    monkeypatch.setattr(depths, "KERNEL_BLOCK_ENTRIES", 64)
    rng = np.random.default_rng(65)
    n = 30
    request = DepthBatchRequest(reference=rng.standard_normal((n, 2)),
                                queries=rng.standard_normal((7, 2)), method="svm",
                                lam=2.0, kernel=KernelSpec.gaussian(0.8))
    coefficients = depth_batch(request).coefficients
    box = np.append(np.full(n, 1.0 / (8.0 * n)), 1.0 / 8.0)
    assert coefficients.shape == (7, n + 1)
    assert coefficients.strides[0] == 0
    assert not coefficients.flags.writeable
    assert all(row.tobytes() == box.tobytes() for row in coefficients)


def test_kernel_means_match_the_gram_row_means(monkeypatch):
    # with 64 entries per block a block holds 64 // (n - s) reference rows:
    # n = 8 and 16 end a block exactly at n, and the neighbours one off it
    monkeypatch.setattr(depths, "KERNEL_BLOCK_ENTRIES", 64)
    rng = np.random.default_rng(64)
    spec = KernelSpec.gaussian(0.4)
    for n in (1, 7, 8, 9, 15, 16, 17, 40):
        reference = rng.standard_normal((n, 2))
        row_means = depths._kernel_row_means(spec, reference)
        assert np.allclose(row_means, gram(spec, reference).mean(axis=1), rtol=0.0, atol=1e-15)


def _row_means_by_fresh_blocks(spec, reference):
    """_kernel_row_means as it was written with a new gram array per block."""
    n = reference.shape[0]
    sums = np.zeros(n)
    start = 0
    while start < n:
        stop = min(n, start + max(1, depths.KERNEL_BLOCK_ENTRIES // (n - start)))
        block = gram(spec, reference[start:stop], reference[start:])
        sums[start:stop] += block.sum(axis=1)
        sums[stop:] += block[:, stop - start :].sum(axis=0)
        start = stop
    return sums / n


def test_kernel_means_in_one_scratch_buffer_have_the_bits_of_fresh_blocks(monkeypatch):
    # n = 1200 takes 218 rows in its first block and more in later ones;
    # with the compiled distance pass and with cdist
    rng = np.random.default_rng(38)
    for spec in (KernelSpec.gaussian(0.7), KernelSpec.laplacian(1.3), KernelSpec.imq(0.5, -0.6)):
        for n in (1, 7, 1200):
            reference = rng.standard_normal((n, 3))
            for compiled in (True, False):
                with monkeypatch.context() as patch:
                    if not compiled:
                        patch.setattr(native, "_library", lambda: None)
                    expected = _row_means_by_fresh_blocks(spec, reference).tobytes()
                    assert depths._kernel_row_means(spec, reference).tobytes() == expected


def test_kernel_means_hold_one_block_at_a_time():
    # a block is KERNEL_BLOCK_ENTRIES values, 2 MiB; two of them take 4.07 MiB
    spec, reference = KernelSpec.gaussian(0.5), np.random.default_rng(38).standard_normal((4000, 2))
    depths._kernel_row_means(spec, reference)  # loads the library, outside the trace
    tracemalloc.start()
    try:
        depths._kernel_row_means(spec, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_the_box_solves_ridge_term_has_the_bits_of_a_full_alpha_product():
    # loss+reg multiplies the box's one alpha row by the labels once; each
    # query's dot with its function values keeps the bits of the (m, n + 1) product
    rng = np.random.default_rng(36)
    reference, queries = rng.standard_normal((50, 2)), rng.standard_normal((9, 2)) * 2.0
    spec, lam = KernelSpec.gaussian(0.6), 1.5
    request = DepthBatchRequest(reference=reference, queries=queries, method="svm", lam=lam,
                                kernel=spec, reporting=Reporting.LOSS_PLUS_REG)
    alpha, fvals, *_ = depths._box_solves(
        spec, reference, lambda: depths._kernel_row_means(spec, reference), queries, lam, 1e-9
    )
    signed = np.array(alpha) * np.append(np.ones(50), -1.0)
    loss = depth_batch(replace(request, reporting=Reporting.LOSS_ONLY)).values
    expected = loss + lam * np.array([s @ f for s, f in zip(signed, fvals)])
    assert depth_batch(request).values.tobytes() == np.minimum(expected, 1.0).tobytes()


def test_depth_batch_request_validation():
    reference = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        DepthBatchRequest(reference=reference, queries=np.zeros((2, 3)), method="lr")
    with pytest.raises(ValidationError):
        DepthBatchRequest(reference=reference, queries=np.zeros((2, 2)), method="nope")
    with pytest.raises(ValidationError):
        DepthBatchRequest(reference=reference, queries=np.zeros((2, 2)), method="svm")


def test_depth_batch_empty_queries():
    request = DepthBatchRequest(reference=np.zeros((3, 2)),
                                queries=np.empty((0, 2)), method="lr")
    outcome = depth_batch(request)
    assert outcome.values.shape == (0,)


def test_only_queries_without_rows_are_no_queries():
    # rows of width 0 are rows of the wrong width, not an empty batch: before,
    # every empty array became (0, d), and three queries gave no depths
    reference = [[0.0], [1.0], [2.0]]
    for method in METHODS:
        settings = dict(method=method, kernel=KernelSpec.gaussian(1.0))
        for queries in (np.empty((3, 0)), np.empty((1, 0))):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                DepthBatchRequest(reference=reference, queries=queries, **settings)
        for queries in ([], np.empty(0), np.empty((0, 5))):
            request = DepthBatchRequest(reference=reference, queries=queries, **settings)
            assert request.queries.shape == (0, 1)
            assert depth_batch(request).values.shape == (0,)
    scorer = bind_batch(DepthBatchRequest(reference=reference, queries=[], method="lr"))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        scorer(np.empty((4, 0)))


def _results(batch) -> list:
    """The DepthResult of every query of a BatchResult, in request order."""
    return [batch.result(i) for i in range(batch.values.size)]


def _same_result(a: DepthResult, b: DepthResult) -> bool:
    return (a.value == b.value and a.iterations == b.iterations and a.residual == b.residual
            and a.converged == b.converged and np.array_equal(a.coefficients, b.coefficients))


def test_depth_batch_matches_single_calls():
    # every path returns one column per quantity, row i for query i, and
    # result(i) has the bits of query i's single call; m = 0 gives empty columns
    rng = np.random.default_rng(1)
    n = 30
    reference = rng.standard_normal((n, 2))
    kernel = KernelSpec.gaussian(0.8)
    paths = {  # name: (request settings, single call, coefficients per query)
        "halfspace": (dict(method="halfspace"), lambda q: halfspace_depth(q, reference), 0),
        "lr": (dict(method="lr"), lambda q: logistic_depth(q, reference, 1.0), 3),
        "closed-form svm": (dict(method="svm", kernel=kernel),
                            lambda q: svm_depth(q, reference, 1.0, kernel=kernel), n + 1),
        "dual svm": (dict(method="svm", lam=0.01, kernel=kernel),
                     lambda q: svm_depth(q, reference, 0.01, kernel=kernel), n + 1),
        "dual svm, intercept": (
            dict(method="svm", lam=0.01, kernel=kernel, intercept=True),
            lambda q: svm_depth(q, reference, 0.01, kernel=kernel, intercept=True), n + 2,
        ),
    }
    for m in (8, 1, 0):
        queries = rng.standard_normal((m, 2))
        for name, (settings, single, width) in paths.items():
            batch = depth_batch(DepthBatchRequest(reference=reference, queries=queries,
                                                  **settings))
            for column, dtype in ((batch.values, np.float64), (batch.iterations, np.int64),
                                  (batch.residuals, np.float64), (batch.converged, np.bool_)):
                assert column.shape == (m,) and column.dtype == dtype, (name, m)
            assert batch.coefficients.shape == (m, width), (name, m)
            assert batch.coefficients.dtype == np.float64
            if name == "closed-form svm":  # one read-only box row for every query
                assert batch.coefficients.strides[0] == 0
                assert not batch.coefficients.flags.writeable
            for i, query in enumerate(queries):
                alone = single(query)
                if name == "halfspace":
                    assert type(alone) is float and batch.result(i).value == alone
                    expected = DepthResult(alone, 0, 0.0, True, np.empty(0))
                    assert _same_result(batch.result(i), expected)
                else:
                    assert _same_result(batch.result(i), alone), (name, m, i)


def test_single_query_entry_points_are_one_row_requests():
    # a query shaped (d,), (1, d) or (d, 1) is one row of a request and gets
    # that row's bits in depth_batch; the request refuses what it refuses in
    # a batch, and an empty query, which leaves no row to score
    rng = np.random.default_rng(15)
    reference = rng.standard_normal((20, 2))
    queries = rng.standard_normal((3, 2)) * 1.5
    kernel = KernelSpec.gaussian(0.8)
    single = {
        "halfspace": lambda q: halfspace_depth(q, reference),
        "lr": lambda q: logistic_depth(q, reference, 0.05),
        "svm": lambda q: svm_depth(q, reference, 0.05, kernel=kernel),
        "as-loss": lambda q: halfspace_depth_as_loss(q, reference, [[1.0, 0.0], [0.3, -1.0]]),
    }
    for method, depth in single.items():
        if method != "as-loss":
            request = DepthBatchRequest(reference=reference, queries=queries, method=method,
                                        lam=0.05, kernel=kernel)
            batch = _results(depth_batch(request))
        for i, query in enumerate(queries):
            for shaped in (query, query[None, :], query[:, None], list(query)):
                result = depth(shaped)
                if method == "as-loss":
                    assert result == depth(query)
                elif method == "halfspace":
                    assert type(result) is float and result == batch[i].value
                else:
                    assert _same_result(result, batch[i])
        for bad, message in (([], "at least one coordinate"), ([np.nan, 0.0], "non-finite"),
                             ([[0.0], [np.inf]], "non-finite"), ([0.0], "dimension mismatch"),
                             ([0.0, 0.0, 0.0], "dimension mismatch")):
            with pytest.raises(ValidationError, match=message):
                depth(bad)
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="unbounded"):
            logistic_depth(queries[0], reference, lam)
        with pytest.raises(ValidationError, match="unbounded"):
            svm_depth(queries[0], reference, lam, kernel=kernel)
    with pytest.raises(ValidationError, match="requires a kernel"):
        svm_depth(queries[0], reference, kernel=None)


def test_logistic_batch_is_bit_identical_to_single_calls_across_block_edges(monkeypatch):
    # a Newton block holds `size` queries of dim x 10 Hessian-product entries
    rng = np.random.default_rng(72)
    size = 3
    # the last two sit at the pair-product crossover D and one above it
    wide = solvers.PAIR_HESSIAN_MAX_DIM
    for d, intercept, reporting in ((1, True, Reporting.LOSS_ONLY), (2, False, Reporting.LOSS_ONLY),
                                    (3, True, Reporting.LOSS_PLUS_REG),
                                    (wide, False, Reporting.LOSS_ONLY),
                                    (wide, True, Reporting.LOSS_PLUS_REG)):
        reference = rng.standard_normal((10, d)) * 2.0
        dim = d + intercept
        monkeypatch.setattr(depths, "LOGISTIC_BLOCK_ENTRIES", size * dim * 10)
        for m in (1, size - 1, size, size + 1, 3 * size + 1):
            queries = rng.standard_normal((m, d)) * 3.0
            solver = SolverConfig(tolerance=1e-12)
            alone = [logistic_depth(q, reference, 0.05, intercept=intercept,
                                    reporting=reporting, solver=solver) for q in queries]
            request = DepthBatchRequest(reference=reference, queries=queries, method="lr",
                                        lam=0.05, intercept=intercept, reporting=reporting,
                                        solver=solver)
            batch = depth_batch(request)
            assert all(_same_result(r, a) for r, a in zip(_results(batch), alone)), (d, m)
            assert all(type(r.value) is float for r in _results(batch))


def test_logistic_block_stops_each_query_on_its_own_budget():
    # the far query needs more Newton steps than the near ones: with a budget
    # of the near queries' count it stops unconverged while they converge
    rng = np.random.default_rng(9)
    reference = rng.standard_normal((40, 2))
    queries = np.array([[0.3, -0.2], [40.0, 25.0], [-0.5, 0.4]])
    full = [logistic_depth(q, reference, 0.01) for q in queries]
    assert full[1].iterations > max(full[0].iterations, full[2].iterations)
    budget = SolverConfig(max_iterations=max(full[0].iterations, full[2].iterations))
    request = DepthBatchRequest(reference=reference, queries=queries, method="lr",
                                lam=0.01, solver=budget)
    near, far, other = _results(depth_batch(request))
    assert near.converged and other.converged
    assert _same_result(near, full[0]) and _same_result(other, full[2])
    assert not far.converged
    assert far.iterations == budget.max_iterations
    assert far.residual > budget.tolerance
    assert _same_result(far, logistic_depth(queries[1], reference, 0.01, solver=budget))


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
                                method="lr", lam=5e-4)
    mate, stopped = _results(depth_batch(request))
    assert mate.converged
    assert not stopped.converged
    assert stopped.iterations == 3 and stopped.residual > 1e-8
    assert _same_result(stopped, logistic_depth(damped, reference, 5e-4))
    assert _same_result(mate, logistic_depth(reference[0], reference, 5e-4))
    # a block whose every query stalls at once ends there, each as alone
    request = DepthBatchRequest(reference=reference, queries=np.vstack([damped, damped]),
                                method="lr", lam=5e-4)
    for copy in _results(depth_batch(request)):
        assert not copy.converged and copy.iterations == 3
        assert _same_result(copy, stopped)


def test_depth_batch_needs_directions_for_halfspace_depth_in_three_dimensions():
    # the whole request fails, even with no queries; directions make it valid
    for m in (0, 2):
        request = DepthBatchRequest(reference=np.zeros((4, 3)), queries=np.zeros((m, 3)),
                                    method="halfspace")
        with pytest.raises(ValidationError, match="dimension >= 3 needs an explicit"):
            depth_batch(request)
        request = DepthBatchRequest(reference=np.zeros((4, 3)), queries=np.zeros((m, 3)),
                                    method="halfspace", halfspace=HalfspaceConfig(3))
        assert depth_batch(request).values.tolist() == [1.0] * m


def test_depth_batch_builds_the_reference_gram_once(monkeypatch):
    calls = []

    def counting_gram(*args, **kwargs):
        calls.append(args)
        return gram(*args, **kwargs)

    monkeypatch.setattr(depths, "gram", counting_gram)
    rng = np.random.default_rng(4)
    reference = rng.standard_normal((30, 2))
    queries = rng.standard_normal((5, 2))
    request = DepthBatchRequest(reference=reference, queries=queries, method="svm",
                                kernel=KernelSpec.gaussian(0.8))
    depth_batch(request)
    # the row-means pass is one block at n = 30, then one block of queries
    assert len(calls) == 2
    assert np.array_equal(calls[0][1], reference) and np.array_equal(calls[0][2], reference)
    assert np.array_equal(calls[1][1], queries) and np.array_equal(calls[1][2], reference)

    # below kappa/4 the dual solves build one (n+1) x (n+1) matrix, then two
    # border calls per query, and never hold the n x n reference Gram apart
    calls.clear()
    monkeypatch.setattr(solvers, "gram", counting_gram)
    depth_batch(DepthBatchRequest(reference=reference, queries=queries, method="svm",
                                  lam=0.01, kernel=KernelSpec.gaussian(0.8)))
    assert len(calls) == 1 + 2 * len(queries)
    assert len(calls[0]) == 2 and calls[0][1].shape == (31, 2)
    assert (30, 30) not in [(len(args[1]), len(args[-1])) for args in calls]


def test_depth_batch_with_no_queries_builds_no_gram(monkeypatch):
    calls = []

    def counting_gram(*args, **kwargs):
        calls.append(args)
        return gram(*args, **kwargs)

    # the closed form builds its kernel values in depths, the dual solves in solvers
    monkeypatch.setattr(depths, "gram", counting_gram)
    monkeypatch.setattr(solvers, "gram", counting_gram)
    reference = np.random.default_rng(4).standard_normal((30, 2))
    for lam, intercept in ((0.01, False), (0.01, True), (1.0, False)):
        request = DepthBatchRequest(reference=reference, queries=np.empty((0, 2)), method="svm",
                                    lam=lam, kernel=KernelSpec.gaussian(0.8),
                                    intercept=intercept)
        batch = depth_batch(request)
        assert _results(batch) == []
    assert calls == []


def test_a_failing_dual_solve_raises_out_of_depth_batch(monkeypatch):
    # any failure inside a batch raises out of depth_batch
    def broken(*args):
        raise ArithmeticError("boom")

    monkeypatch.setattr(solvers, "_greedy_ascent", broken)
    rng = np.random.default_rng(4)
    request = DepthBatchRequest(reference=rng.standard_normal((30, 2)),
                                queries=rng.standard_normal((3, 2)), method="svm",
                                lam=0.01, kernel=KernelSpec.gaussian(0.8))
    with pytest.raises(ArithmeticError, match="boom"):
        depth_batch(request)
