"""Newton and dual ascent engines against independent oracles."""
import math
import shutil
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

from lossdepth.core import LOG2, ValidationError
from lossdepth import native, solvers
from lossdepth.depths import METHOD_SVM, DepthBatchRequest, depth_batch, svm_depth
from lossdepth.kernels import KernelSpec, gram
from lossdepth.solvers import (
    PAIR_HESSIAN_MAX_DIM,
    SolverConfig,
    augment,
    logistic_block_solve,
    logistic_features,
    logistic_pairs,
    svm_dual_solves,
    svm_duality_gap,
)


def logistic_objective(w, reference, query, lam: float, intercept: bool = True):
    """Value and gradient of the ridge-penalised weighted log-loss of the
    weights w, for the (n, d) reference and the d-vector query, from the
    solver's own evaluation and gradient of a block of one.

    The reference rows carry label +1 and weight 1/(2n) each, the query
    carries label -1 and weight 1/2.
    """
    features = logistic_features(reference, intercept)
    query = augment(np.reshape(query, (1, -1)), intercept)
    w = np.asarray(w, dtype=float).reshape(1, -1)
    if w.shape[1] != query.shape[1]:
        raise ValidationError(f"weight vector has size {w.shape[1]}, expected {query.shape[1]}")
    work = np.empty((2, 1, features.shape[1] + 1))
    signed, exps, _, value = solvers._logistic_evaluate(w, features, query, lam, work)
    grad = solvers._logistic_gradient(w, signed, exps, features, query, lam, work)
    return float(value[0]), grad[0]


def _logistic_problem(reference, query, lam=1.0, intercept=True):
    """(reference, query, lam, intercept) as plain arrays, in logistic_objective's order."""
    return np.asarray(reference, dtype=float), np.asarray(query, dtype=float), lam, intercept


def _block_solve(reference, queries, lam, intercept=True, config=None):
    """logistic_block_solve of the (m, d) queries against the reference, with
    the features and pair products prepared as depth_batch prepares them."""
    features = logistic_features(reference, intercept)
    return logistic_block_solve(
        features, logistic_pairs(features), augment(queries, intercept), lam, config
    )


def _logistic_solve(problem, config=None):
    """The weights and diagnostics of one query, a block of one for logistic_block_solve."""
    reference, query, lam, intercept = problem
    weights, _, iterations, residuals, converged = _block_solve(
        reference, query, lam, intercept, config
    )
    return weights[0], SimpleNamespace(
        iterations=iterations[0], residual=residuals[0], converged=converged[0]
    )


def _hinge_problem(reference, query, lam=1.0, kernel=None, intercept=False):
    """svm_dual_solves' arguments for one query, as plain arrays."""
    kernel = kernel if kernel is not None else KernelSpec.gaussian(1.0)
    query = np.asarray(query, dtype=float).reshape(1, -1)
    return kernel, np.asarray(reference, dtype=float), query, lam, intercept


def _dual_solve(problem, config=None):
    """Row 0 of each of svm_dual_solves' six columns: alpha, function values,
    offset, iterations, residual and convergence flag of the one query."""
    return tuple(column[0] for column in svm_dual_solves(*problem, config))


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
    value, grad = logistic_objective(w0, *problem)
    assert value == pytest.approx(LOG2, abs=1e-15)
    aug_ref = np.hstack([reference, np.ones((3, 1))])
    aug_q = np.append(query, 1.0)
    expected = -aug_ref.sum(axis=0) / 12.0 + aug_q / 4.0
    assert np.allclose(grad, expected, atol=1e-15)


def test_logistic_objective_includes_ridge():
    problem = _logistic_problem([[1.0]], [0.0], lam=2.0, intercept=False)
    w = np.array([3.0])
    value, grad = logistic_objective(w, *problem)
    # n=1 gives the single reference point weight 1/2
    raw = 0.5 * math.log1p(math.exp(-3.0)) + 0.5 * math.log1p(math.exp(0.0))
    assert value == pytest.approx(raw + 2.0 * 9.0, rel=1e-12)
    assert grad[0] == pytest.approx(
        -0.5 / (1.0 + math.exp(3.0)) + 2.0 * 2.0 * 3.0, rel=1e-12
    )


def test_logistic_objective_rejects_wrong_sizes():
    problem = _logistic_problem([[1.0, 2.0]], [0.0, 0.0])
    with pytest.raises(ValidationError):
        logistic_objective(np.zeros(2), *problem)  # needs d+1 with the intercept


def test_logistic_objective_stable_for_extreme_weights():
    # margins of +-1200 overflow a naive exp; the stable form returns the
    # asymptote log1p(exp(m)) -> m exactly
    problem = _logistic_problem([[30.0]], [-30.0], intercept=False)
    value, grad = logistic_objective(np.array([-40.0]), *problem)
    assert math.isfinite(value)
    assert np.all(np.isfinite(grad))
    assert value == pytest.approx(0.5 * 1200.0 + 0.5 * 1200.0 + 1600.0, rel=1e-9)
    winning, _ = logistic_objective(np.array([40.0]), *problem)
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
        _, grad = logistic_objective(w, *problem)
        numeric = np.empty_like(w)
        for j in range(w.size):
            bump = np.zeros_like(w)
            bump[j] = h
            up, _ = logistic_objective(w + bump, *problem)
            down, _ = logistic_objective(w - bump, *problem)
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
        v1, _ = logistic_objective(w1, *problem)
        v2, _ = logistic_objective(w2, *problem)
        for t in (0.2, 0.5, 0.8):
            vt, _ = logistic_objective(t * w1 + (1 - t) * w2, *problem)
            assert vt <= t * v1 + (1 - t) * v2 - lam * t * (1 - t) * gap2 + 1e-10


def test_descent_on_pure_ridge_problem():
    # data at the origin contributes constant loss, leaving the pure ridge:
    # the start w0 = 0 is already the minimiser
    problem = _logistic_problem([[0.0]], [0.0], lam=1.0, intercept=False)
    w, diag = _logistic_solve(problem)
    assert diag.converged
    assert diag.iterations <= 60
    assert abs(w[0]) <= 1e-8


def test_descent_matches_grid_search_1d():
    problem = _logistic_problem([[-1.0], [1.0]], [0.0], lam=1.0, intercept=False)
    w, diag = _logistic_solve(problem)
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
        w, diag = _logistic_solve(problem)
        # the iterate after k Newton steps is the solve with a budget of k steps
        values = [logistic_objective(np.zeros_like(w), *problem)[0]]
        for k in range(1, diag.iterations + 1):
            w_k, _ = _logistic_solve(problem, SolverConfig(max_iterations=k))
            values.append(logistic_objective(w_k, *problem)[0])
        assert np.all(np.diff(values) <= 1e-12)


def test_descent_norm_bound_from_zero_start():
    # value at zero is log 2, so the minimiser norm is at most sqrt(log2 / lam)
    rng = np.random.default_rng(21)
    for _ in range(15):
        lam = float(rng.uniform(0.05, 4.0))
        problem = _logistic_problem(
            rng.standard_normal((25, 3)), rng.standard_normal(3) * 3.0, lam=lam
        )
        w, diag = _logistic_solve(problem)
        assert diag.converged
        assert float(np.linalg.norm(w)) <= math.sqrt(LOG2 / lam) + 1e-9


def test_descent_distance_bound_against_tight_solve():
    problem = _logistic_problem(
        np.random.default_rng(3).standard_normal((30, 2)), [2.0, 1.0], lam=0.5
    )
    loose, d_loose = _logistic_solve(problem, SolverConfig(tolerance=1e-3))
    tight, d_tight = _logistic_solve(problem, SolverConfig(tolerance=1e-12,
                                                          max_iterations=200_000))
    assert d_loose.converged and d_tight.converged
    # strong convexity 2*lam turns the gradient norm into a distance bound
    assert float(np.linalg.norm(loose - tight)) <= d_loose.residual / (2 * 0.5) + 1e-8


def test_descent_reports_nonconvergence_softly():
    problem = _logistic_problem(
        np.random.default_rng(5).standard_normal((40, 3)), [3.0, 0.0, 0.0], lam=0.01
    )
    w, diag = _logistic_solve(problem, SolverConfig(max_iterations=2))
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
            _, diag = _logistic_solve(problem, SolverConfig(tolerance=1e-8))
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
        _, diag = _logistic_solve(problem, SolverConfig(tolerance=1e-12, max_iterations=50))
        assert diag.converged
        assert diag.residual <= 1e-12


def test_the_line_search_writes_only_the_rows_it_halves(monkeypatch):
    # with the search capped at one halving, the first query only takes full
    # steps, the second halves its sixth step once, and the third needs two
    # halvings at its fifth step, so it stalls there
    reference = np.array([[-0.3, 8.3], [6.7, -3.1], [1.1, 2.5], [-7.0, -0.5]])
    queries = np.array([[1.3, -1.3], [-19.3, -2.4], [-11.4, -1.6]])
    monkeypatch.setattr(solvers, "_MAX_HALVINGS", 2)
    log = []  # the query rows of each evaluation, and None for each gradient
    evaluate, gradient = solvers._logistic_evaluate, solvers._logistic_gradient

    def recording_evaluate(weights, features, rows, *args):
        log.append(rows[:, :2].tolist())
        return evaluate(weights, features, rows, *args)

    def recording_gradient(*args):
        log.append(None)
        return gradient(*args)

    monkeypatch.setattr(solvers, "_logistic_evaluate", recording_evaluate)
    monkeypatch.setattr(solvers, "_logistic_gradient", recording_gradient)
    block = _block_solve(reference, queries, 5e-4)
    halved, step, evaluations = [], 0, 0  # (Newton step, query) of each halved trial
    for entry in log:  # the start, then per step the full step, any halvings, a gradient
        if entry is None:
            step, evaluations = step + 1, 0
            continue
        evaluations += 1
        if evaluations > 1:
            halved += [(step, queries.tolist().index(row)) for row in entry]
    assert halved == [(5, 2), (6, 1)]
    _, _, iterations, residuals, converged = block
    assert converged.tolist() == [True, True, False]
    assert iterations[2] == 4 and residuals[2] > 1e-8
    # each row has the bits of its solve alone, and the stalled query keeps
    # the state its last accepted step left, as a budget of 4 steps does
    for b, config in ((0, None), (1, None), (2, None), (2, SolverConfig(max_iterations=4))):
        alone = _block_solve(reference, queries[b : b + 1], 5e-4, config=config)
        assert all(out[b].tobytes() == one[0].tobytes() for out, one in zip(block, alone)), b


def test_a_block_evaluates_its_shared_start_once(monkeypatch):
    # every query starts at w = 0, where one row of margins serves the block:
    # k full Newton steps cost one start row and k evaluations of the B rows,
    # and k Hessians, the first built from the start row
    reference = np.random.default_rng(8).standard_normal((30, 2))
    queries = np.random.default_rng(1).standard_normal((4, 2))
    evaluated, hessians = [], []
    evaluate, hessian = solvers._logistic_evaluate, solvers._logistic_hessian

    def counting_evaluate(weights, *args):
        evaluated.append(weights.shape[0])
        return evaluate(weights, *args)

    def counting_hessian(exps, *args):
        hessians.append(exps.shape[0])
        return hessian(exps, *args)

    monkeypatch.setattr(solvers, "_logistic_evaluate", counting_evaluate)
    monkeypatch.setattr(solvers, "_logistic_hessian", counting_hessian)
    block = _block_solve(reference, queries, 0.1)
    _, _, iterations, _, converged = block
    assert converged.all() and iterations.tolist() == [3] * 4
    assert evaluated == [1, 4, 4, 4]
    assert hessians == [1, 4, 4]


@pytest.mark.parametrize("intercept", [False, True])
def test_pair_product_hessians_match_the_stacked_formula(intercept):
    # every D the pair path serves, against (F * c/(2n)) @ F' + 0.5 c_q q q' + 2 lam I
    rng = np.random.default_rng(31)
    n, size, lam = 40, 6, 0.3
    for dim in range(1 + intercept, PAIR_HESSIAN_MAX_DIM + 1):
        reference = rng.standard_normal((n, dim - intercept)) * 2.0
        queries = augment(rng.standard_normal((size, dim - intercept)) * 3.0, intercept)
        features = logistic_features(reference, intercept)
        pairs = logistic_pairs(features)
        assert pairs.shape == (dim * (dim + 1) // 2, n) and not pairs.flags.writeable
        weights, work = rng.standard_normal((size, dim)), np.empty((2, size, n + 1))
        exps = solvers._logistic_evaluate(weights, features, queries, lam, work)[1]
        hessians = solvers._logistic_hessian(exps, features, pairs, queries, lam, work)
        curvature = exps / np.square(1.0 + exps)
        for hessian, c, query in zip(hessians, curvature, queries):
            oracle = ((features * (c[:n] / (2.0 * n))) @ features.T
                      + 0.5 * c[n] * np.outer(query, query) + 2.0 * lam * np.eye(dim))
            assert np.abs(hessian - oracle).max() <= 1e-13 * np.abs(oracle).max(), dim
            assert hessian.tobytes() == hessian.T.copy().tobytes(), dim
    # above the crossover the Hessians are the stacked product
    assert logistic_pairs(np.ones((PAIR_HESSIAN_MAX_DIM + 1, n))) is None


def test_svm_query_coincident_with_single_reference_point():
    # both duals hit the shared box bound 1/4; the function cancels to zero
    # and every hinge term sits exactly at 1
    point = np.array([[0.3, -0.2]])
    problem = _hinge_problem(point, point[0], lam=1.0)
    alpha, _, _, _, _, converged = _dual_solve(problem)
    assert converged
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
    alpha, fvals, _, _, _, converged = _dual_solve(problem)
    assert converged
    assert alpha[-1] == pytest.approx(0.25, abs=1e-12)
    assert float(alpha[:-1].sum()) == pytest.approx(0.25, abs=1e-3)
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
        alpha, fvals, _, _, _, converged = _dual_solve(problem, config)
        assert converged
        labels = np.concatenate([np.ones(20), [-1.0]])
        gap = svm_duality_gap(alpha, labels, fvals, lam)
        assert -1e-12 <= gap <= 1e-6


def test_svm_complementary_slackness():
    rng = np.random.default_rng(14)
    reference = rng.standard_normal((25, 2))
    query = np.array([1.5, -0.5])
    problem = _hinge_problem(reference, query, lam=0.3)
    alpha, fvals, _, _, _, _ = _dual_solve(problem, SolverConfig(tolerance=1e-10))
    labels = np.concatenate([np.ones(25), [-1.0]])
    box = np.concatenate([np.full(25, 1.0 / (4 * 25 * 0.3)), [1.0 / (4 * 0.3)]])
    margins = labels * fvals
    tol = 1e-8
    assert np.all(margins[alpha <= 0.0] >= 1.0 - tol)
    assert np.all(margins[alpha >= box] <= 1.0 + tol)


def test_svm_function_values_match_recompute():
    rng = np.random.default_rng(6)
    reference = rng.standard_normal((15, 2))
    query = np.array([0.5, 0.5])
    spec = KernelSpec.gaussian(0.7)
    problem = _hinge_problem(reference, query, kernel=spec)
    alpha, fvals, _, _, _, _ = _dual_solve(problem)
    stacked = np.vstack([reference, query])
    kmat = gram(spec, stacked)
    labels = np.concatenate([np.ones(15), [-1.0]])
    assert np.allclose(fvals, kmat @ (alpha * labels), atol=1e-12)


def test_svm_lazy_columns_agree_with_dense(monkeypatch):
    # the lazy columns and the bordered matrix hold the same kernel values,
    # so every iterate is the same
    rng = np.random.default_rng(19)
    reference = rng.standard_normal((40, 2))
    queries = np.vstack([[0.2, -1.0], rng.standard_normal((2, 2)) * 1.5])
    kernels = (KernelSpec.gaussian(1.0), KernelSpec.laplacian(1.3), KernelSpec.imq(1.0, -0.5),
               KernelSpec.linear())
    for spec in kernels:
        for intercept in (False, True):
            args = (spec, reference, queries, 0.02, intercept)
            dense = svm_dual_solves(*args)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "DENSE_GRAM_LIMIT", 0)
                lazy = svm_dual_solves(*args)
            assert dense[5].all() and lazy[5].all()
            for column_dense, column_lazy in zip(dense[:4], lazy[:4]):
                # alpha, function values, offsets and iterations
                assert np.array_equal(column_dense, column_lazy)


def test_svm_degenerate_kernel_coordinates_are_pinned():
    # a linear kernel sends the origin to a zero gram column; that dual
    # coordinate is pinned at its box bound
    reference = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    query = np.array([2.0, 2.0])
    problem = _hinge_problem(reference, query, kernel=KernelSpec.linear())
    alpha = _dual_solve(problem)[0]
    assert alpha[0] == pytest.approx(1.0 / 12.0)  # its box bound 1/(4 n lam)


def test_svm_sweeps_are_deterministic():
    rng = np.random.default_rng(23)
    reference = rng.standard_normal((30, 2))
    query = np.array([1.0, 1.0])
    problem = _hinge_problem(reference, query)
    a1 = _dual_solve(problem)[0]
    a2 = _dual_solve(problem)[0]
    assert np.array_equal(a1, a2)


def test_svm_nonconvergence_is_soft():
    # below kappa/4, where one pass of greedy updates stops short of the optimum
    rng = np.random.default_rng(31)
    problem = _hinge_problem(rng.standard_normal((50, 2)), [0.0, 0.0], lam=0.1)
    alpha, _, _, _, residual, converged = _dual_solve(
        problem, SolverConfig(max_iterations=1, tolerance=1e-14)
    )
    assert not converged
    assert residual > 1e-14
    assert np.all((alpha >= 0.0) & np.isfinite(alpha))


def test_smo_with_intercept_keeps_equality_constraint():
    rng = np.random.default_rng(40)
    reference = rng.standard_normal((20, 2)) + 1.0
    query = np.array([-2.0, -2.0])
    problem = _hinge_problem(reference, query, intercept=True)
    alpha, fvals, _, _, _, _ = _dual_solve(problem)
    labels = np.concatenate([np.ones(20), [-1.0]])
    assert abs(float(alpha @ labels)) <= 1e-12
    spec = KernelSpec.gaussian(1.0)
    kmat = gram(spec, np.vstack([reference, query]))
    assert np.allclose(fvals, kmat @ (alpha * labels), atol=1e-9)


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
    # n equal to the limit is dense both alone and in a batch, and each query
    # overwrites the whole border, so the two paths give the same bits
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
    # the batch's bordered matrix, its border rewritten for each query, gives
    # the same numbers, and so the same iterates, as solving each query
    # against its own (n+1) x (n+1) kernel matrix: no border goes stale
    rng = np.random.default_rng(41)
    reference = rng.standard_normal((30, 2))
    queries = np.array([[0.3, -0.6], [1.8, 0.4], [-0.2, 0.1]])
    spec = KernelSpec.gaussian(0.8)
    labels = np.append(np.ones(30), -1.0)
    box = labels * np.append(np.full(30, 1.0 / (4.0 * 30 * 0.02)), 1.0 / (4.0 * 0.02))
    lo, hi = np.minimum(0.0, box), np.maximum(0.0, box)
    cfg = SolverConfig(tolerance=1e-10)
    for intercept, solve in ((False, solvers._greedy_ascent), (True, solvers._pairwise_smo)):
        solved = svm_dual_solves(spec, reference, queries, 0.02, intercept, cfg)
        for i, query in enumerate(queries):
            kmat = gram(spec, np.vstack([reference, query]))
            signed, *expected = solve(labels, np.zeros(31), lo, hi, np.zeros(31),
                                      np.diagonal(kmat), kmat.__getitem__, cfg)
            assert solved[3][i] == expected[2] > 0  # iterations
            assert np.array_equal(solved[0][i], np.abs(signed))
            for column, value in zip(solved[1:], expected):
                # function values, offset, iterations, residual and flag
                assert np.array_equal(column[i], value)


def test_the_compiled_loop_loads_where_there_is_a_compiler():
    if shutil.which(native._compiler()[0]) is None:
        pytest.skip("no C compiler")
    assert native._library() is not None


def test_the_compiled_loop_spreads_a_nan_as_the_numpy_loop_does():
    # a NaN gradient entry is the argmax at once (the first NaN wins), the
    # clipped Newton point keeps it, and it spreads to every function value
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    kmat = gram(KernelSpec.gaussian(0.5), np.random.default_rng(9).standard_normal((6, 2)))
    linear = np.array([1.0, 1.0, np.nan, 1.0, np.nan, -1.0])
    lo, hi = np.array([0.0] * 5 + [-2.0]), np.array([2.0] * 5 + [0.0])
    cfg = SolverConfig(max_iterations=2)
    compiled, looped = (
        solvers._greedy_ascent(linear, np.zeros(6), lo, hi, np.zeros(6), np.diagonal(kmat),
                               column, cfg)
        for column in (kmat, kmat.__getitem__)
    )
    assert (compiled[3], compiled[5]) == (looped[3], looped[5]) == (2, False)
    assert math.isnan(compiled[4]) and math.isnan(looped[4]) and np.isnan(looped[1]).all()
    for ours, theirs in zip(compiled[:2], looped[:2]):
        assert ours.tobytes() == theirs.tobytes()


def test_the_compiled_source_builds_without_a_warning(tmp_path):
    # a warning would otherwise only show as a silent fall back to numpy
    command = native._compiler()
    if shutil.which(command[0]) is None:
        pytest.skip("no C compiler")
    run = subprocess.run([*command, *native._FLAGS, "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "dual.so"), str(native._SOURCE)],
                         capture_output=True, text=True, timeout=native._COMPILE_TIMEOUT_S)
    assert run.returncode == 0, run.stderr


def _both_greedy_loops(kernel, diag, lo, hi, u, scores, floor, ceiling, budget, tolerance):
    """native.greedy_ascent and solvers._greedy_loop from the same state,
    which must end with the same bytes; returns the compiled end state:
    u, scores, floor, ceiling, the updates and the residual."""
    compiled = [vector.copy() for vector in (u, scores, floor, ceiling)]
    looped = [vector.copy() for vector in (u, scores, floor, ceiling)]
    compiled_outcome = native.greedy_ascent(kernel, diag, lo, hi, *compiled, np.empty_like(u),
                                            budget, tolerance)
    looped_outcome = solvers._greedy_loop(kernel.__getitem__, diag, lo, hi, *looped,
                                          np.empty_like(u), budget, tolerance)
    assert compiled_outcome is not None
    for ours, theirs in zip(compiled, looped):
        assert ours.tobytes() == theirs.tobytes()
    assert compiled_outcome[0] == looped_outcome[0]
    assert np.float64(compiled_outcome[1]).tobytes() == np.float64(looped_outcome[1]).tobytes()
    return (*compiled, *compiled_outcome)


def test_the_compiled_scan_has_the_numpy_loops_bits_at_every_vector_width():
    # every vector body and tail: n + 1 = 1..40 and 1001 coordinates, run
    # for up to 2000 updates toward a tight tolerance, and for one
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    rng = np.random.default_rng(29)
    for size in [*range(1, 41), 1001]:
        points = rng.standard_normal((size, 2))
        kmat = gram(KernelSpec.gaussian(0.7), points)
        labels = np.where(np.arange(size) < size - 1, 1.0, -1.0)
        box = labels * rng.uniform(0.5, 5.0, size)
        lo, hi = np.minimum(0.0, box), np.maximum(0.0, box)
        u = np.zeros(size)
        floor, ceiling = np.where(u > lo, -np.inf, 0.0), np.where(u < hi, np.inf, 0.0)
        for budget in (2000, 1):
            end = _both_greedy_loops(kmat, np.diagonal(kmat), lo, hi, u, labels, floor,
                                     ceiling, budget, 1e-10)
            assert 0 < end[4] <= budget
    # no coordinate: the scan would have no index to return
    assert native.greedy_ascent(np.empty((0, 0)), *[np.empty(0)] * 8, 1, 1e-10) is None


def _interior_problem(size: int, rng):
    """A size-coordinate dual with every coordinate free to move either way
    and every violation below 0.5 in magnitude."""
    kmat = gram(KernelSpec.gaussian(1.0), rng.standard_normal((size, 2)))
    scores = rng.uniform(-0.5, 0.5, size)
    return (kmat, np.diagonal(kmat), np.full(size, -1.0), np.ones(size), np.zeros(size),
            scores, np.full(size, -np.inf), np.full(size, np.inf))


def test_the_compiled_scan_takes_the_first_of_equal_violations():
    # ties in different vector lanes, with either sign: the first index moves
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    rng = np.random.default_rng(30)
    for first, second in ((0, 39), (3, 12), (7, 8), (13, 38), (1, 2), (5, 29)):
        for sign in (1.0, -1.0):
            kmat, diag, lo, hi, u, scores, floor, ceiling = _interior_problem(40, rng)
            scores[first], scores[second] = 2.0, 2.0 * sign
            end = _both_greedy_loops(kmat, diag, lo, hi, u, scores, floor, ceiling, 1, 1e-10)
            assert np.flatnonzero(end[0]).tolist() == [first]


def test_the_compiled_scan_takes_the_first_nan_before_or_after_the_largest_violation():
    # the first NaN wins over any finite violation and over a later NaN of
    # either sign, and the residual is NaN
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    rng = np.random.default_rng(31)
    widest = np.array([0x7FFFFFFFFFFFFFFF]).view(np.float64)[0]  # the largest NaN bits
    for nan, largest in ((2, 17), (17, 2), (9, 10), (38, 0), (0, 39)):
        kmat, diag, lo, hi, u, scores, floor, ceiling = _interior_problem(40, rng)
        scores[largest] = 0.9
        scores[nan] = np.nan
        later = scores[max(nan, largest) + 1:]  # a view
        later[::2], later[1::2] = -np.nan, widest
        end = _both_greedy_loops(kmat, diag, lo, hi, u, scores, floor, ceiling, 1, 1e-10)
        assert np.flatnonzero(np.isnan(end[0])).tolist() == [nan]
        assert end[4] == 1 and math.isnan(end[5])


def test_the_compiled_scan_takes_index_0_when_every_violation_is_zero():
    # a zero residual at the start stops at once; below a negative tolerance
    # the one update goes to index 0, the first of the all-way tie
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    for size in (1, 9, 40):
        kmat, diag, lo, hi, u, scores, _, _ = _interior_problem(size, np.random.default_rng(32))
        pinned = np.zeros(size)  # floor and ceiling 0: every violation clips to 0
        end = _both_greedy_loops(kmat, diag, lo, hi, u, scores, pinned, pinned, 5, 0.0)
        assert end[4] == 0 and np.float64(end[5]).tobytes() == np.float64(0.0).tobytes()
        end = _both_greedy_loops(kmat, diag, lo, hi, u, scores, pinned, pinned, 1, -1.0)
        assert end[4] == 1 and np.flatnonzero(end[0]).tolist() == [0]


def test_dual_solvers_refuse_a_kernel_diagonal_that_is_not_finite(monkeypatch):
    # a NaN Newton step once ran the whole budget or stopped NaN and converged
    rng = np.random.default_rng(8)
    reference, queries = rng.standard_normal((30, 2)) * 1e200, rng.standard_normal((2, 2))
    for limit in (solvers.DENSE_GRAM_LIMIT, 0):  # the dense and the lazy kernel columns
        monkeypatch.setattr(solvers, "DENSE_GRAM_LIMIT", limit)
        for intercept in (False, True):
            with pytest.raises(ValidationError, match="kernel diagonal is not finite"):
                svm_dual_solves(KernelSpec.linear(), reference, queries, 0.01, intercept)
    cfg = SolverConfig()
    for diagonal in (np.array([1.0, np.inf, 1.0]), np.array([1.0, np.nan, 1.0])):
        for solve in (solvers._greedy_ascent, solvers._pairwise_smo):
            with pytest.raises(ValidationError, match="kernel diagonal is not finite"):
                solve(np.ones(3), np.zeros(3), np.full(3, -1.0), np.ones(3), np.zeros(3),
                      diagonal, lambda k: np.eye(3)[k], cfg)
