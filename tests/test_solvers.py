"""Newton and dual ascent engines against independent oracles."""
import math

import numpy as np
import pytest

from lossdepth.core import (
    LOG2,
    DataMatrix,
    DepthProblem,
    LossKind,
    QueryPoint,
    ValidationError,
)
from lossdepth import solvers
from lossdepth.depths import METHOD_SVM, DepthBatchRequest, depth_batch, svm_depth
from lossdepth.kernels import KernelSpec, gram
from lossdepth.solvers import (
    SolverConfig,
    augment,
    logistic_objective,
    logistic_solve,
    svm_dual_solve,
    svm_duality_gap,
)


def _logistic_problem(reference, query, lam=1.0, intercept=True, kernel=None):
    return DepthProblem(
        reference=DataMatrix(reference),
        query=QueryPoint(query),
        loss=LossKind.LOGISTIC,
        lam=lam,
        intercept=intercept,
    )


def _hinge_problem(reference, query, lam=1.0, kernel=None, intercept=False):
    return DepthProblem(
        reference=DataMatrix(reference),
        query=QueryPoint(query),
        loss=LossKind.HINGE,
        lam=lam,
        kernel=kernel if kernel is not None else KernelSpec.gaussian(1.0),
        intercept=intercept,
    )


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValidationError):
        SolverConfig(tolerance=0.0)
    for tolerance in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite positive tolerance"):
            SolverConfig(tolerance=tolerance)


def test_augment_appends_ones_column():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = augment(pts, True)
    assert out.shape == (2, 3)
    assert np.all(out[:, 2] == 1.0)
    assert augment(pts, False).shape == (2, 2)


def test_logistic_objective_at_zero():
    # s(0) = 1/2 everywhere: value log 2, gradient -(1/4n) sum(x~) + (1/4) z~
    reference = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])
    query = np.array([0.5, -0.5])
    problem = _logistic_problem(reference, query, lam=0.7)
    w0 = np.zeros(3)
    value, grad = logistic_objective(w0, problem)
    assert value == pytest.approx(LOG2, abs=1e-15)
    aug_ref = np.hstack([reference, np.ones((3, 1))])
    aug_q = np.append(query, 1.0)
    expected = -aug_ref.sum(axis=0) / 12.0 + aug_q / 4.0
    assert np.allclose(grad, expected, atol=1e-15)


def test_logistic_objective_includes_ridge():
    problem = _logistic_problem([[1.0]], [0.0], lam=2.0, intercept=False)
    w = np.array([3.0])
    value, grad = logistic_objective(w, problem)
    # n=1 gives the single reference point weight 1/2
    raw = 0.5 * math.log1p(math.exp(-3.0)) + 0.5 * math.log1p(math.exp(0.0))
    assert value == pytest.approx(raw + 2.0 * 9.0, rel=1e-12)
    assert grad[0] == pytest.approx(
        -0.5 / (1.0 + math.exp(3.0)) + 2.0 * 2.0 * 3.0, rel=1e-12
    )


def test_logistic_objective_rejects_wrong_sizes():
    problem = _logistic_problem([[1.0, 2.0]], [0.0, 0.0])
    with pytest.raises(ValidationError):
        logistic_objective(np.zeros(2), problem)  # needs d+1 with the intercept


def test_logistic_objective_stable_for_extreme_weights():
    # margins of +-1200 overflow a naive exp; the stable form returns the
    # asymptote log1p(exp(m)) -> m exactly
    problem = _logistic_problem([[30.0]], [-30.0], intercept=False)
    value, grad = logistic_objective(np.array([-40.0]), problem)
    assert math.isfinite(value)
    assert np.all(np.isfinite(grad))
    assert value == pytest.approx(0.5 * 1200.0 + 0.5 * 1200.0 + 1600.0, rel=1e-9)
    winning, _ = logistic_objective(np.array([40.0]), problem)
    assert winning == pytest.approx(1600.0, rel=1e-9)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        problem = _logistic_problem(
            rng.standard_normal((n, d)),
            rng.standard_normal(d),
            lam=float(rng.uniform(0.05, 3.0)),
        )
        w = rng.standard_normal(d + 1)
        _, grad = logistic_objective(w, problem)
        numeric = np.empty_like(w)
        for j in range(w.size):
            bump = np.zeros_like(w)
            bump[j] = h
            up, _ = logistic_objective(w + bump, problem)
            down, _ = logistic_objective(w - bump, problem)
            numeric[j] = (up - down) / (2.0 * h)
        scale = max(float(np.linalg.norm(grad)), 1e-12)
        assert float(np.linalg.norm(grad - numeric)) / scale <= 1e-5


def test_strong_convexity_witness():
    rng = np.random.default_rng(4)
    lam = 0.8
    problem = _logistic_problem(rng.standard_normal((20, 3)), rng.standard_normal(3), lam=lam)
    for _ in range(20):
        w1, w2 = rng.standard_normal((2, 4))
        gap2 = float(np.sum((w1 - w2) ** 2))
        v1, _ = logistic_objective(w1, problem)
        v2, _ = logistic_objective(w2, problem)
        for t in (0.2, 0.5, 0.8):
            vt, _ = logistic_objective(t * w1 + (1 - t) * w2, problem)
            assert vt <= t * v1 + (1 - t) * v2 - lam * t * (1 - t) * gap2 + 1e-10


def test_descent_on_pure_ridge_problem():
    # data at the origin contributes constant loss, leaving the pure ridge:
    # the start w0 = 0 is already the minimiser
    problem = _logistic_problem([[0.0]], [0.0], lam=1.0, intercept=False)
    w, diag = logistic_solve(problem)
    assert diag.converged
    assert diag.iterations <= 60
    assert abs(w[0]) <= 1e-8


def test_descent_matches_grid_search_1d():
    problem = _logistic_problem([[-1.0], [1.0]], [0.0], lam=1.0, intercept=False)
    w, diag = logistic_solve(problem)
    assert diag.converged
    ws = np.arange(-5.0, 5.0, 1e-4)
    values = (
        0.25 * (np.logaddexp(0.0, ws) + np.logaddexp(0.0, -ws))
        + 0.5 * np.logaddexp(0.0, 0.0 * ws)
        + ws**2
    )
    best = ws[np.argmin(values)]
    assert abs(float(w[0]) - best) <= 1e-3


def test_descent_objective_monotone():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        problem = _logistic_problem(
            rng.standard_normal((n, d)) * 2.0,
            rng.standard_normal(d) * 2.0,
            lam=float(rng.uniform(0.05, 2.0)),
        )
        _, diag = logistic_solve(problem, keep_history=True)
        values = np.array(diag.history.values)
        assert np.all(np.diff(values) <= 1e-12)


def test_descent_norm_bound_from_zero_start():
    # value at zero is log 2, so the minimiser norm is at most sqrt(log2 / lam)
    rng = np.random.default_rng(21)
    for _ in range(15):
        lam = float(rng.uniform(0.05, 4.0))
        problem = _logistic_problem(
            rng.standard_normal((25, 3)), rng.standard_normal(3) * 3.0, lam=lam
        )
        w, diag = logistic_solve(problem)
        assert diag.converged
        assert float(np.linalg.norm(w)) <= math.sqrt(LOG2 / lam) + 1e-9


def test_descent_distance_bound_against_tight_solve():
    problem = _logistic_problem(
        np.random.default_rng(3).standard_normal((30, 2)), [2.0, 1.0], lam=0.5
    )
    loose, d_loose = logistic_solve(problem, SolverConfig(tolerance=1e-3))
    tight, d_tight = logistic_solve(problem, SolverConfig(tolerance=1e-12,
                                                          max_iterations=200_000))
    assert d_loose.converged and d_tight.converged
    # strong convexity 2*lam turns the gradient norm into a distance bound
    assert float(np.linalg.norm(loose - tight)) <= d_loose.residual / (2 * 0.5) + 1e-8


def test_descent_reports_nonconvergence_softly():
    problem = _logistic_problem(
        np.random.default_rng(5).standard_normal((40, 3)), [3.0, 0.0, 0.0], lam=0.01
    )
    w, diag = logistic_solve(problem, SolverConfig(max_iterations=2))
    assert not diag.converged
    assert diag.iterations == 2
    assert diag.residual > 1e-8
    assert np.all(np.isfinite(w))


def test_newton_step_count_does_not_grow_as_lambda_shrinks():
    # a constant-step method needs ~1/lam steps here (thousands at 1e-3)
    reference = np.random.default_rng(11).standard_normal((1000, 2))
    for lam in (1.0, 1e-1, 1e-2, 1e-3):
        for query in ([0.0, 0.0], [1.0, -0.5], [2.5, 2.5], [6.0, 0.0]):
            problem = _logistic_problem(reference, query, lam=lam)
            _, diag = logistic_solve(problem, SolverConfig(tolerance=1e-8))
            assert diag.converged, (lam, query)
            assert diag.iterations <= 20, (lam, query, diag.iterations)


def test_newton_reaches_tight_tolerance_on_scaled_features():
    # near the minimiser a full step can raise the value by rounding only;
    # without accepting it, the search shrinks the step until the budget runs out
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 5))
        scale = float(rng.uniform(1.0, 5.0))
        problem = _logistic_problem(
            rng.standard_normal((n, d)) * scale,
            rng.standard_normal(d) * scale,
            lam=float(10.0 ** rng.uniform(-3, 1)),
        )
        _, diag = logistic_solve(problem, SolverConfig(tolerance=1e-12, max_iterations=50))
        assert diag.converged
        assert diag.residual <= 1e-12


def test_newton_returns_final_margins():
    rng = np.random.default_rng(4)
    reference, query = rng.standard_normal((20, 2)), rng.standard_normal(2)
    for intercept in (True, False):
        problem = _logistic_problem(reference, query, lam=0.3, intercept=intercept)
        w, diag = logistic_solve(problem)
        rows = augment(np.vstack([reference, query]), intercept)
        assert np.allclose(diag.function_values, rows @ w, atol=1e-14)


def test_svm_query_coincident_with_single_reference_point():
    # both duals hit the shared box bound 1/4; the function cancels to zero
    # and every hinge term sits exactly at 1
    point = np.array([[0.3, -0.2]])
    problem = _hinge_problem(point, point[0], lam=1.0)
    alpha, diag = svm_dual_solve(problem)
    assert diag.converged
    assert alpha == pytest.approx([0.25, 0.25], abs=1e-12)
    # dense grid over the two box-constrained duals: the solver's dual value
    # must match the best grid cell
    a = np.linspace(0.0, 0.25, 401)
    aa, bb = np.meshgrid(a, a)
    dual_grid = aa + bb - 0.5 * (aa - bb) ** 2
    labels = np.array([1.0, -1.0])
    signed = alpha * labels
    kmat = np.ones((2, 2))
    dual_solver = float(alpha.sum()) - 0.5 * float(signed @ kmat @ signed)
    assert dual_solver >= float(dual_grid.max()) - 1e-9


def test_svm_far_query_decouples():
    # cross-kernel terms vanish, each block saturates its box mass 1/4 and
    # every margin lands at 1/4, so the weighted hinge loss approaches 3/4
    rng = np.random.default_rng(9)
    reference = 1e-3 * rng.standard_normal((30, 2))
    query = np.array([8.0, 0.0])
    problem = _hinge_problem(reference, query, lam=1.0)
    alpha, diag = svm_dual_solve(problem)
    assert diag.converged
    assert alpha[-1] == pytest.approx(0.25, abs=1e-12)
    assert float(alpha[:-1].sum()) == pytest.approx(0.25, abs=1e-3)
    fvals = diag.function_values
    assert fvals[-1] == pytest.approx(-0.25, abs=1e-6)
    labels = np.concatenate([np.ones(30), [-1.0]])
    hinge = np.maximum(0.0, 1.0 - labels * fvals)
    value = float(hinge[:30].mean()) / 2.0 + 0.5 * float(hinge[30])
    assert value == pytest.approx(0.75, abs=2e-3)


def test_svm_duality_gap_small_on_random_problems():
    rng = np.random.default_rng(30)
    config = SolverConfig(tolerance=1e-9)
    for trial in range(10):
        reference = rng.standard_normal((20, 2))
        query = rng.standard_normal(2) * 2.0
        lam = float(rng.uniform(0.05, 2.0))
        problem = _hinge_problem(reference, query, lam=lam,
                                 kernel=KernelSpec.gaussian(float(rng.uniform(0.2, 2.0))))
        alpha, diag = svm_dual_solve(problem, config)
        assert diag.converged
        labels = np.concatenate([np.ones(20), [-1.0]])
        gap = svm_duality_gap(alpha, labels, diag.function_values, lam)
        assert -1e-12 <= gap <= 1e-6


def test_svm_complementary_slackness():
    rng = np.random.default_rng(14)
    reference = rng.standard_normal((25, 2))
    query = np.array([1.5, -0.5])
    problem = _hinge_problem(reference, query, lam=0.3)
    alpha, diag = svm_dual_solve(problem, SolverConfig(tolerance=1e-10))
    labels = np.concatenate([np.ones(25), [-1.0]])
    box = np.concatenate([np.full(25, 1.0 / (4 * 25 * 0.3)), [1.0 / (4 * 0.3)]])
    margins = labels * diag.function_values
    tol = 1e-8
    assert np.all(margins[alpha <= 0.0] >= 1.0 - tol)
    assert np.all(margins[alpha >= box] <= 1.0 + tol)


def test_svm_function_values_match_recompute():
    rng = np.random.default_rng(6)
    reference = rng.standard_normal((15, 2))
    query = np.array([0.5, 0.5])
    spec = KernelSpec.gaussian(0.7)
    problem = _hinge_problem(reference, query, kernel=spec)
    alpha, diag = svm_dual_solve(problem)
    stacked = np.vstack([reference, query])
    kmat = gram(spec, stacked)
    labels = np.concatenate([np.ones(15), [-1.0]])
    assert np.allclose(diag.function_values, kmat @ (alpha * labels), atol=1e-12)


def test_svm_lazy_columns_agree_with_dense(monkeypatch):
    rng = np.random.default_rng(19)
    reference = rng.standard_normal((40, 2))
    query = np.array([0.2, -1.0])
    problem = _hinge_problem(reference, query)
    a_dense, d_dense = svm_dual_solve(problem)
    monkeypatch.setattr(solvers, "DENSE_GRAM_LIMIT", 0)
    a_lazy, d_lazy = svm_dual_solve(problem)
    assert d_dense.converged and d_lazy.converged
    assert np.allclose(a_dense, a_lazy, atol=1e-12)


def test_svm_degenerate_kernel_coordinates_are_pinned():
    # a linear kernel sends the origin to a zero gram column; that dual
    # coordinate is pinned at its box bound and flagged
    reference = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    query = np.array([2.0, 2.0])
    problem = _hinge_problem(reference, query, kernel=KernelSpec.linear())
    alpha, diag = svm_dual_solve(problem)
    assert diag.degenerate_coordinates == 1
    assert alpha[0] == pytest.approx(1.0 / 12.0)  # its box bound 1/(4 n lam)


def test_svm_sweeps_are_deterministic():
    rng = np.random.default_rng(23)
    reference = rng.standard_normal((30, 2))
    query = np.array([1.0, 1.0])
    problem = _hinge_problem(reference, query)
    a1, _ = svm_dual_solve(problem)
    a2, _ = svm_dual_solve(problem)
    assert np.array_equal(a1, a2)


def test_svm_nonconvergence_is_soft():
    # below kappa/4, where one pass of greedy updates stops short of the optimum
    rng = np.random.default_rng(31)
    problem = _hinge_problem(rng.standard_normal((50, 2)), [0.0, 0.0], lam=0.1)
    alpha, diag = svm_dual_solve(problem, SolverConfig(max_iterations=1, tolerance=1e-14))
    assert not diag.converged
    assert diag.residual > 1e-14
    assert np.all((alpha >= 0.0) & np.isfinite(alpha))


def test_smo_with_intercept_keeps_equality_constraint():
    rng = np.random.default_rng(40)
    reference = rng.standard_normal((20, 2)) + 1.0
    query = np.array([-2.0, -2.0])
    problem = _hinge_problem(reference, query, intercept=True)
    alpha, diag = svm_dual_solve(problem)
    labels = np.concatenate([np.ones(20), [-1.0]])
    assert abs(float(alpha @ labels)) <= 1e-12
    assert diag.function_values is not None
    spec = KernelSpec.gaussian(1.0)
    kmat = gram(spec, np.vstack([reference, query]))
    assert np.allclose(diag.function_values, kmat @ (alpha * labels), atol=1e-9)


def test_svm_offset_free_coordinate_median():
    # signed form u = y alpha: a free coordinate pins the offset at its target y - f
    u = np.array([0.1])
    lo, hi = np.array([0.0]), np.array([0.2])
    targets = 1.0 - np.array([0.6])
    assert solvers._pairwise_offset(u, lo, hi, targets) == pytest.approx(0.4)


def test_svm_offset_bracket_midpoint():
    # no free coordinate: one dual at zero wants b <= target, one at the box
    # wants b >= target, and the midpoint splits the bracket
    u = np.array([0.0, 0.2])
    lo, hi = np.zeros(2), np.full(2, 0.2)
    targets = 1.0 - np.array([0.2, 0.9])
    assert solvers._pairwise_offset(u, lo, hi, targets) == pytest.approx(0.45)


def test_svm_offset_one_sided_bracket_takes_its_finite_end():
    # every coordinate at its upper bound: none can move up, so only the
    # smallest target of those that can move down bounds the offset
    u = np.array([0.2, -0.0])
    lo, hi = np.array([0.0, -0.2]), np.array([0.2, 0.0])
    targets = np.array([0.7, 0.3])
    assert solvers._pairwise_offset(u, lo, hi, targets) == 0.3
    # frozen coordinates (lo = hi) take no part in the bracket
    frozen = np.zeros(2)
    assert solvers._pairwise_offset(frozen, frozen, frozen, targets) == 0.0


def test_svm_depth_matches_depth_batch_at_the_dense_limit(monkeypatch):
    # n equal to the limit is dense both alone and in a batch, so the two
    # paths give the same bits; a lazy solve differs in the last bits
    monkeypatch.setattr(solvers, "DENSE_GRAM_LIMIT", 60)
    rng = np.random.default_rng(3)
    reference = rng.standard_normal((60, 2))
    queries = rng.standard_normal((160, 2)) * 1.5
    spec = KernelSpec.gaussian(0.5)
    request = DepthBatchRequest(reference=reference, queries=queries, method=METHOD_SVM,
                                lam=0.002, kernel=spec)
    batch = depth_batch(request).values
    alone = np.array([svm_depth(q, reference, 0.002, kernel=spec).value for q in queries])
    assert np.array_equal(alone, batch)


def test_svm_supplied_reference_gram_gives_the_bordered_matrix_bits():
    # the solver reads row k of the shared reference Gram plus k(x_k, q) for
    # each column: the same numbers, and so the same iterates, as solving
    # against the full (n+1) x (n+1) kernel matrix
    rng = np.random.default_rng(41)
    reference = rng.standard_normal((30, 2))
    query = np.array([0.3, -0.6])
    spec = KernelSpec.gaussian(0.8)
    kmat = gram(spec, np.vstack([reference, query]))
    labels = np.append(np.ones(30), -1.0)
    box = labels * np.append(np.full(30, 1.0 / (4.0 * 30 * 0.02)), 1.0 / (4.0 * 0.02))
    lo, hi = np.minimum(0.0, box), np.maximum(0.0, box)
    cfg = SolverConfig(tolerance=1e-10)
    for intercept, solve in ((False, solvers._greedy_ascent), (True, solvers._pairwise_smo)):
        problem = _hinge_problem(reference, query, lam=0.02, kernel=spec, intercept=intercept)
        signed, expected = solve(labels, np.zeros(31), lo, hi, np.zeros(31), np.diagonal(kmat),
                                 lambda k: kmat[k], cfg)
        for supplied in (None, gram(spec, reference)):
            alpha, diagnostics = svm_dual_solve(problem, cfg, supplied)
            assert diagnostics.iterations == expected.iterations > 0
            assert np.array_equal(alpha, np.abs(signed))
            assert np.array_equal(diagnostics.function_values, expected.function_values)
            assert diagnostics.offset == expected.offset


def test_svm_supplied_reference_gram_must_match_the_reference():
    problem = _hinge_problem(np.zeros((4, 2)), [1.0, 1.0], lam=0.01)
    with pytest.raises(ValidationError):
        svm_dual_solve(problem, reference_gram=np.eye(5))
