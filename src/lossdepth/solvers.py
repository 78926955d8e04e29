"""Optimisers behind the regularised depths.

Two solvers are provided.  The logistic depth runs damped Newton with Armijo
backtracking on the ridge-penalised expected log-loss.  The kernel hinge
depth solves the box constrained dual of the weighted SVM, by greedy
maximal-violation coordinate ascent without an intercept (the default), or
by maximal-violating-pair updates that keep the balance constraint when an
unpenalised intercept is requested.  Both read the kernel through the same
column and diagonal interface, and the pairwise solver also fits the
one-class SVM baseline, whose dual has the same form.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .core import DepthProblem, LossKind, ValidationError
from .kernels import KernelSpec, gram

_EPS = float(np.finfo(float).eps)
_MAX_HALVINGS = 60  # bounds the line search: 2**-60 of a step is far below rounding
DENSE_GRAM_LIMIT = 3000  # largest reference n whose kernel matrix is held densely


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping tolerance.

    For the logistic solver the tolerance bounds the gradient norm and
    max_iterations counts Newton steps.  For the no-intercept dual solver the
    tolerance bounds the largest projected Karush-Kuhn-Tucker violation, and
    max_iterations counts passes of n+1 single-coordinate updates; for the
    pairwise solver it bounds the violating pair's gradient spread, and
    max_iterations counts pair updates.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("solver needs max_iterations >= 1")
        if not self.tolerance > 0.0:
            raise ValidationError("solver needs a positive tolerance")


@dataclass
class DescentHistory:
    values: list = field(default_factory=list)
    iterates: list = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class SolveDiagnostics:
    """Iteration count, final stopping residual, and convergence flag.

    Both solvers report the classifier values at the solution, reference
    rows first and the query last, so callers can evaluate losses without
    touching the data again.  The dual solver also reports how many
    kernel-degenerate coordinates it saw and, with an intercept, the
    recovered offset, which its function values do not include.
    """

    iterations: int
    residual: float
    converged: bool
    degenerate_coordinates: int = 0
    history: DescentHistory | None = None
    function_values: np.ndarray | None = None
    offset: float = 0.0


def augment(points: np.ndarray, intercept: bool) -> np.ndarray:
    """Append a constant-1 column when an intercept is requested."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not intercept:
        return pts
    return np.hstack([pts, np.ones((pts.shape[0], 1))])


def _require_loss(problem: DepthProblem, loss: LossKind) -> None:
    if problem.loss is not loss:
        raise ValidationError(f"expected a {loss.value} problem, got {problem.loss.value}")


def _logistic_rows(problem: DepthProblem) -> np.ndarray:
    """Augmented reference rows followed by the augmented query row."""
    points = np.vstack([problem.reference.values, problem.query.coords[None, :]])
    return augment(points, problem.intercept)


def _logistic_value_grad(
    w: np.ndarray, rows: np.ndarray, lam: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Margins of every row, objective value and gradient at w."""
    n = rows.shape[0] - 1
    margins = rows @ w
    value = (
        float(np.logaddexp(0.0, -margins[:n]).sum()) / (2.0 * n)
        + 0.5 * float(np.logaddexp(0.0, margins[n]))
        + lam * float(w @ w)
    )
    grad = (
        -(rows[:n].T @ expit(-margins[:n])) / (2.0 * n)
        + 0.5 * expit(margins[n]) * rows[n]
        + 2.0 * lam * w
    )
    return margins, value, grad


def logistic_objective(w, problem: DepthProblem) -> tuple[float, np.ndarray]:
    """Value and gradient of the ridge-penalised weighted log-loss.

    The reference rows carry label +1 and weight 1/(2n) each, the query
    carries label -1 and weight 1/2.  Numerically stable for any margin
    magnitude; no exp overflow occurs.
    """
    _require_loss(problem, LossKind.LOGISTIC)
    rows = _logistic_rows(problem)
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != rows.shape[1]:
        raise ValidationError(f"weight vector has size {w.size}, expected {rows.shape[1]}")
    _, value, grad = _logistic_value_grad(w, rows, problem.lam)
    return value, grad


def logistic_solve(
    problem: DepthProblem,
    config: SolverConfig | None = None,
    keep_history: bool = False,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Damped Newton on the logistic depth objective from the zero vector.

    Each step solves against the Hessian
    X' diag(c) X / (2n) + 0.5 s_q (1 - s_q) q q' + 2 lam I, with
    c = sigmoid(m) sigmoid(-m) on the reference margins m and s_q the sigmoid
    of the query margin, and is halved until the Armijo condition holds.  A
    full step whose value rises by rounding only (at most 8 eps |f|) is
    accepted: near the minimiser the objective is flat to machine precision
    while the gradient still exceeds a tight tolerance.  Steps stop when the
    gradient norm is at or below tolerance; with a positive ridge the
    objective is 2 lam strongly convex, so the distance to the unique
    minimiser is at most the returned residual divided by 2 lam.  The final
    margins, reference rows first and the query last, are returned as the
    diagnostics' function values.
    """
    _require_loss(problem, LossKind.LOGISTIC)
    cfg = config if config is not None else SolverConfig()
    rows = _logistic_rows(problem)
    lam = problem.lam
    n, dim = problem.reference.n, rows.shape[1]
    history = DescentHistory() if keep_history else None
    w = np.zeros(dim)
    margins, value, grad = _logistic_value_grad(w, rows, lam)
    for iteration in range(cfg.max_iterations + 1):
        residual = float(np.linalg.norm(grad))
        if keep_history:
            history.values.append(value)
            history.iterates.append(w.copy())
        if residual <= cfg.tolerance:
            return w, SolveDiagnostics(
                iteration, residual, True, history=history, function_values=margins
            )
        if iteration == cfg.max_iterations:
            break
        curvature = expit(margins) * expit(-margins)
        hessian = (rows[:n].T * (curvature[:n] / (2.0 * n))) @ rows[:n]
        hessian += 0.5 * curvature[n] * np.outer(rows[n], rows[n])
        hessian[np.diag_indices(dim)] += 2.0 * lam
        direction = -np.linalg.solve(hessian, grad)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = w + step * direction
            trial_margins, trial_value, trial_grad = _logistic_value_grad(trial, rows, lam)
            if trial_value <= value + 1e-4 * step * slope or (
                step == 1.0 and trial_value - value <= 8.0 * _EPS * abs(value)
            ):
                break
            step *= 0.5
        else:
            break  # no representable decrease along the Newton direction
        w, margins, value, grad = trial, trial_margins, trial_value, trial_grad
    return w, SolveDiagnostics(
        iteration, residual, False, history=history, function_values=margins
    )


def _svm_parts(problem: DepthProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    points = np.vstack([problem.reference.values, problem.query.coords[None, :]])
    n = problem.reference.n
    labels = np.concatenate([np.ones(n), [-1.0]])
    box = np.concatenate(
        [np.full(n, 1.0 / (4.0 * n * problem.lam)), [1.0 / (4.0 * problem.lam)]]
    )
    return points, labels, box


def _bordered_gram(
    spec: KernelSpec, points: np.ndarray, reference_gram: np.ndarray | None
) -> np.ndarray:
    if reference_gram is None:
        return gram(spec, points)
    n = points.shape[0] - 1
    if reference_gram.shape != (n, n):
        raise ValidationError(
            f"precomputed reference gram has shape {reference_gram.shape}, expected {(n, n)}"
        )
    full = np.empty((n + 1, n + 1))
    full[:n, :n] = reference_gram
    column = gram(spec, points[:n], points[n:])[:, 0]
    full[:n, n] = column
    full[n, :n] = column
    full[n, n] = gram(spec, points[n:], points[n:])[0, 0]
    return full


def svm_dual_solve(
    problem: DepthProblem,
    config: SolverConfig | None = None,
    reference_gram: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Maximise the weighted-SVM dual and return the n+1 dual coefficients.

    Dual: max over alpha of sum(alpha) - 0.5 * alpha' Y K Y alpha, subject to
    0 <= alpha_i <= 1/(4 n lam) for reference points and
    0 <= alpha_query <= 1/(4 lam) for the query.  The separating function is
    f(.) = sum_k alpha_k y_k k(p_k, .), and the minimised primal objective
    equals 2 * lam times the maximised dual value.

    It is solved in the signed variables u = y alpha over
    [lo, hi] = [min(0, y box), max(0, y box)]: without an intercept by greedy
    single-coordinate updates (_greedy_ascent), whose order depends on the
    data alone.  Coordinates with K_kk = 0 contribute a fixed unit hinge loss
    whatever alpha does, so they are pinned at their box bound where the
    (linear) dual term is largest and counted as degenerate.  With an
    intercept, pairwise updates keep sum_k y_k alpha_k = 0 (_pairwise_smo),
    degenerate coordinates are frozen at zero, and the offset recovered from
    the margin conditions comes back in the diagnostics.

    The kernel matrix is dense when n is at most DENSE_GRAM_LIMIT or a
    reference gram was supplied; otherwise columns are formed on demand so
    large references never materialise an n^2 matrix.
    """
    _require_loss(problem, LossKind.HINGE)
    cfg = config if config is not None else SolverConfig()
    spec: KernelSpec = problem.kernel
    points, labels, box = _svm_parts(problem)
    m = points.shape[0]

    dense = problem.reference.n <= DENSE_GRAM_LIMIT or reference_gram is not None
    kmat = _bordered_gram(spec, points, reference_gram) if dense else None
    diag = np.diagonal(kmat).copy() if dense else spec.diagonal(points)

    def column(k: int) -> np.ndarray:
        if kmat is not None:
            return kmat[k]  # kmat is symmetric, and its rows are contiguous
        return gram(spec, points, points[k : k + 1])[:, 0]

    # only degenerate coordinates, whose kernel columns vanish, start nonzero,
    # so K @ start is zero
    degenerate = diag <= 1e-15
    signed_box = labels * box
    start = np.zeros(m) if problem.intercept else np.where(degenerate, signed_box, 0.0)
    lo = np.where(degenerate, start, np.minimum(0.0, signed_box))
    hi = np.where(degenerate, start, np.maximum(0.0, signed_box))
    solve = _pairwise_smo if problem.intercept else _greedy_ascent
    signed, diagnostics = solve(labels, start, lo, hi, np.zeros(m), diag, column, cfg)
    alpha = np.abs(signed)  # alpha = y u, which is |u| as alpha >= 0
    return alpha, replace(diagnostics, degenerate_coordinates=int(degenerate.sum()))


def _greedy_ascent(
    linear: np.ndarray, start: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    start_values: np.ndarray, diag: np.ndarray, column, cfg: SolverConfig,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Greedy maximal-violation coordinate ascent (Gauss-Southwell) for
    max c'u - 0.5 u'Ku over lo <= u <= hi: the equality-free twin of
    _pairwise_smo, with the same arguments.

    Each update takes the coordinate with the largest projected KKT
    violation of the gradient s = c - Ku (s_k where u_k can still rise, -s_k
    where it can still fall) to its clipped Newton point
    min(max(u_k + s_k / K_kk, lo_k), hi_k).  It stops, converged, once the
    largest violation is at or below tolerance.  The budget is max_iterations
    passes of u.size updates, and the reported iterations count passes,
    rounded up.  The function values f = Ku come back in the diagnostics.
    """
    u = start.copy()
    scores = linear - start_values
    # clipping s_k below at 0 where u_k cannot fall and above at 0 where it
    # cannot rise leaves the violation as the magnitude
    floor = np.where(u > lo, -np.inf, 0.0)
    ceiling = np.where(u < hi, np.inf, 0.0)
    violations = np.empty_like(u)
    budget = cfg.max_iterations * u.size
    for updates in range(budget + 1):
        np.maximum(scores, floor, out=violations)
        np.minimum(violations, ceiling, out=violations)
        np.abs(violations, out=violations)
        k = int(np.argmax(violations))
        residual = float(violations[k])
        if residual <= cfg.tolerance or updates == budget:
            break
        updated = min(max(u[k] + scores[k] / diag[k], lo[k]), hi[k])
        scores -= (updated - u[k]) * column(k)
        u[k] = updated
        floor[k] = -np.inf if updated > lo[k] else 0.0
        ceiling[k] = np.inf if updated < hi[k] else 0.0
    return u, SolveDiagnostics(
        -(-updates // u.size), residual, residual <= cfg.tolerance,
        function_values=linear - scores,
    )


def _pairwise_smo(
    linear: np.ndarray, start: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    start_values: np.ndarray, diag: np.ndarray, column, cfg: SolverConfig,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Maximal-violating-pair SMO (Fan, Chen & Lin 2005) for
    max c'u - 0.5 u'Ku over lo <= u <= hi with sum(u) held at its start.

    This is the signed form u = y alpha of the LIBSVM dual
    max p'alpha - 0.5 (y alpha)' K (y alpha) over 0 <= alpha <= box with
    y'alpha fixed: c = y p and [lo, hi] = [min(0, y box), max(0, y box)].
    A coordinate with lo = hi never moves.  The kernel is read only through
    column(k) and diag; start_values is K @ start.

    Each iteration moves mass from the coordinate that can still go down with
    the smallest gradient s = c - Ku to the one that can still go up with the
    largest, by the exact maximiser along the pair clipped to the box.  It
    stops, converged, once that spread is at or below tolerance or no
    coordinate can move up or down.  The function values f = Ku come back in
    the diagnostics with the offset b of the margin conditions c_k - f_k = b
    on free coordinates (see _pairwise_offset).
    """
    u = start.copy()
    scores = linear - start_values

    def finish(iterations: int, residual: float, converged: bool):
        fvals = linear - scores
        offset = _pairwise_offset(u, lo, hi, linear - fvals)
        return u, SolveDiagnostics(
            iterations, residual, converged, function_values=fvals, offset=offset
        )

    residual = np.inf
    for iteration in range(1, cfg.max_iterations + 1):
        up_scores = np.where(u < hi, scores, -np.inf)
        down_scores = np.where(u > lo, scores, np.inf)
        i = int(np.argmax(up_scores))
        j = int(np.argmin(down_scores))
        residual = float(up_scores[i] - down_scores[j])
        if residual == -np.inf:  # no coordinate can move up, or none down
            return finish(iteration - 1, 0.0, True)
        if residual <= cfg.tolerance:
            return finish(iteration - 1, residual, True)
        col_i, col_j = column(i), column(j)
        curvature = diag[i] + diag[j] - 2.0 * float(col_i[j])
        t_max = min(hi[i] - u[i], u[j] - lo[j])
        t = min(residual / curvature, t_max) if curvature > 1e-15 else t_max
        u[i] += t
        u[j] -= t
        scores -= t * (col_i - col_j)
    return finish(cfg.max_iterations, residual, False)


def _pairwise_offset(u: np.ndarray, lo: np.ndarray, hi: np.ndarray, targets: np.ndarray) -> float:
    """The offset b that the margin conditions targets_k = b pin on free
    coordinates, lo < u_k < hi, taken as their median.

    With no free coordinate the KKT inequalities only bracket b between the
    largest target of a coordinate that can move up and the smallest of one
    that can move down; the midpoint of the bracket is returned, or its
    finite end when one side is empty, or 0 when both are.
    """
    up = u < hi
    down = u > lo
    free = up & down
    if free.any():
        return float(np.median(targets[free]))
    ends = [float(np.max(targets[up]))] if up.any() else []
    if down.any():
        ends.append(float(np.min(targets[down])))
    if len(ends) == 2:
        return 0.5 * (ends[0] + ends[1])
    return ends[0] if ends else 0.0


def svm_duality_gap(alpha, labels, fvals, lam: float) -> float:
    """Primal minus 2*lam times the dual at the no-intercept solution.

    The primal is the weighted hinge loss of f plus lam times its squared
    kernel norm; the dual is sum(alpha) - 0.5 (alpha y)' K (alpha y).  The gap
    is nonnegative and vanishes at the exact optimum, so it certifies how far
    the reported depth can sit above the true infimum.
    """
    alpha = np.asarray(alpha, dtype=float)
    labels = np.asarray(labels, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    n = alpha.size - 1
    hinge = np.maximum(0.0, 1.0 - labels * fvals)
    primal_loss = float(hinge[:n].sum()) / (2.0 * n) + 0.5 * float(hinge[n])
    squared_norm = float((alpha * labels) @ fvals)
    primal = primal_loss + lam * squared_norm
    dual = float(alpha.sum()) - 0.5 * squared_norm
    return primal - 2.0 * lam * dual
