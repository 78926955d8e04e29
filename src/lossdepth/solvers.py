"""Optimisers behind the regularised depths.

Two solvers are provided.  The logistic depth runs damped Newton with Armijo
backtracking on the ridge-penalised expected log-loss, for a block of
queries in lockstep, each with its own line search and stopping rule.  The
kernel hinge depth solves the box constrained dual of the weighted SVM, by
greedy maximal-violation coordinate ascent without an intercept (the
default), or by maximal-violating-pair updates that keep the balance
constraint when an unpenalised intercept is requested.  Both read the kernel
through the same column and diagonal interface, and the pairwise solver also
fits the one-class SVM baseline, whose dual has the same form.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

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
        if not 0.0 < self.tolerance < math.inf:
            raise ValidationError("solver needs a finite positive tolerance")


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


def _logistic_evaluate(
    weights: np.ndarray, features: np.ndarray, queries: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signed margins, exp(-|signed margin|), weighted log-loss and objective
    value of each row of weights against its own row of queries.

    features is the (D, n) augmented reference from logistic_features and
    queries the (B, D) augmented queries.  The signed margins y f hold the n
    reference margins (label +1) and then the negated query margin (label
    -1), so every pointwise loss is softplus(-s) = log1p(exp(-|s|)) - min(s, 0):
    one exp and one log1p for the whole evaluation, and no exponent
    overflows.  The margins are contracted over the D coordinates by einsum,
    never by a matrix product, whose rounding could depend on how many rows
    there are: each row's bits depend on its own weights and query alone.
    """
    n = features.shape[1]
    signed = np.empty((weights.shape[0], n + 1))
    np.einsum("ad,dn->an", weights, features, out=signed[:, :n])
    np.negative(np.einsum("ad,ad->a", weights, queries), out=signed[:, n])
    exps = np.abs(signed)
    np.negative(exps, out=exps)
    np.exp(exps, out=exps)
    losses = np.log1p(exps)
    losses -= np.minimum(signed, 0.0)
    loss = losses[:, :n].sum(axis=1) / (2.0 * n) + 0.5 * losses[:, n]
    return signed, exps, loss, loss + lam * np.einsum("ad,ad->a", weights, weights)


def _logistic_gradient(
    weights: np.ndarray, signed: np.ndarray, exps: np.ndarray, features: np.ndarray,
    queries: np.ndarray, lam: float,
) -> np.ndarray:
    """Each row's objective gradient from its evaluation.  A point's loss
    slope sigmoid(-s) is 1 / (1 + exps) where s < 0 and exps / (1 + exps)
    elsewhere; as exps <= 1, the numerator is max(exps, [s < 0])."""
    n = features.shape[1]
    slopes = np.maximum(exps, signed < 0.0)
    slopes /= 1.0 + exps
    grad = np.einsum("an,dn->ad", slopes[:, :n], features) / (-2.0 * n)
    grad += (0.5 * slopes[:, n])[:, None] * queries
    grad += (2.0 * lam) * weights
    return grad


def _logistic_hessian(
    exps: np.ndarray, features: np.ndarray, queries: np.ndarray, lam: float
) -> np.ndarray:
    """Each row's Hessian X' diag(c) X / (2n) + 0.5 c_q q q' + 2 lam I, with
    the curvature c = sigmoid(s) sigmoid(-s) = exps / (1 + exps)^2.  The
    stacked product runs one small matrix product per row."""
    n = features.shape[1]
    curvature = exps / np.square(1.0 + exps)
    hessian = (features * (curvature[:, None, :n] / (2.0 * n))) @ features.T
    hessian += (0.5 * curvature[:, n])[:, None, None] * (queries[:, :, None] * queries[:, None, :])
    diagonal = np.arange(features.shape[0])
    hessian[:, diagonal, diagonal] += 2.0 * lam
    return hessian


def logistic_features(reference: np.ndarray, intercept: bool) -> np.ndarray:
    """The augmented (n, D) reference transposed to (D, n), one contiguous row
    per coordinate, as the logistic solver reads it."""
    return np.ascontiguousarray(augment(reference, intercept).T)


def _logistic_parts(problem: DepthProblem) -> tuple[np.ndarray, np.ndarray]:
    """The augmented reference features and the (1, D) augmented query of a
    logistic problem."""
    _require_loss(problem, LossKind.LOGISTIC)
    features = logistic_features(problem.reference.values, problem.intercept)
    return features, augment(problem.query.coords[None, :], problem.intercept)


def logistic_objective(w, problem: DepthProblem) -> tuple[float, np.ndarray]:
    """Value and gradient of the ridge-penalised weighted log-loss.

    The reference rows carry label +1 and weight 1/(2n) each, the query
    carries label -1 and weight 1/2.  Numerically stable for any margin
    magnitude; no exp overflow occurs.
    """
    features, query = _logistic_parts(problem)
    w = np.asarray(w, dtype=float).reshape(1, -1)
    if w.shape[1] != query.shape[1]:
        raise ValidationError(f"weight vector has size {w.shape[1]}, expected {query.shape[1]}")
    signed, exps, _, value = _logistic_evaluate(w, features, query, problem.lam)
    return float(value[0]), _logistic_gradient(w, signed, exps, features, query, problem.lam)[0]


def logistic_block_solve(
    features: np.ndarray,
    queries: np.ndarray,
    lam: float,
    config: SolverConfig | None = None,
    keep_history: bool = False,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Damped Newton on the logistic depth objectives of a block of queries,
    in lockstep, each from the zero vector.

    features is the augmented reference from logistic_features and queries
    the (B, D) augmented queries.  Each step solves against each query's
    Hessian X' diag(c) X / (2n) + 0.5 s_q (1 - s_q) q q' + 2 lam I, with
    c = sigmoid(m) sigmoid(-m) on the reference margins m and s_q the sigmoid
    of the query margin, and each query halves its own step until its Armijo
    condition holds.  A full step whose value rises by rounding only (at most
    8 eps |f|) is accepted: near the minimiser the objective is flat to
    machine precision while the gradient still exceeds a tight tolerance.
    A query stops, converged, once its gradient norm is at or below
    tolerance, and unconverged after max_iterations steps or after 60
    halvings without an acceptable step; it then leaves the block.  With a
    positive ridge the objective is 2 lam strongly convex, so the distance
    to the unique minimiser is at most the returned residual divided by
    2 lam.

    Every operation acts on each query's row alone, so a query's bits do not
    depend on its block-mates.  Returns the (B, D) weights, the weighted
    log-loss at them, and one SolveDiagnostics per query whose function
    values are its final margins, reference rows first and the query last.
    """
    cfg = config if config is not None else SolverConfig()
    size, dim = queries.shape
    n = features.shape[1]
    weights_out = np.zeros((size, dim))
    losses_out = np.empty(size)
    margins_out = np.empty((size, n + 1))
    diagnostics = [None] * size
    histories = [DescentHistory() if keep_history else None for _ in range(size)]

    live = np.arange(size)  # block rows of the queries still being solved
    weights = np.zeros((size, dim))
    signed, exps, loss, value = _logistic_evaluate(weights, features, queries, lam)
    grad = _logistic_gradient(weights, signed, exps, features, queries, lam)

    def finish(rows: np.ndarray, iteration: int, residual: np.ndarray, converged: np.ndarray):
        """Record the queries at the live positions rows as they stand."""
        for k in np.flatnonzero(rows):
            i = live[k]
            weights_out[i] = weights[k]
            losses_out[i] = loss[k]
            margins_out[i, :n] = signed[k, :n]
            margins_out[i, n] = -signed[k, n]
            diagnostics[i] = SolveDiagnostics(
                iteration, float(residual[k]), bool(converged[k]), history=histories[i],
                function_values=margins_out[i],
            )

    for iteration in range(cfg.max_iterations + 1):
        residual = np.linalg.norm(grad, axis=1)
        if keep_history:
            for k, i in enumerate(live):
                histories[i].values.append(float(value[k]))
                histories[i].iterates.append(weights[k].copy())
        converged = residual <= cfg.tolerance
        stop = converged | (iteration == cfg.max_iterations)
        if stop.any():
            finish(stop, iteration, residual, converged)
            if stop.all():
                break
            keep = ~stop
            live, weights, queries, signed, exps, loss, value, grad, residual = (
                part[keep]
                for part in (live, weights, queries, signed, exps, loss, value, grad, residual)
            )
        hessian = _logistic_hessian(exps, features, queries, lam)
        direction = -np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
        slope = np.einsum("ad,ad->a", grad, direction)
        step = np.ones(live.size)
        searching = np.arange(live.size)  # live positions whose search goes on
        for _ in range(_MAX_HALVINGS):
            trial = weights[searching] + step[searching, None] * direction[searching]
            t_signed, t_exps, t_loss, t_value = _logistic_evaluate(
                trial, features, queries[searching], lam
            )
            base = value[searching]
            accept = (t_value <= base + 1e-4 * step[searching] * slope[searching]) | (
                (step[searching] == 1.0) & (t_value - base <= 8.0 * _EPS * np.abs(base))
            )
            moved = searching[accept]
            weights[moved] = trial[accept]
            signed[moved] = t_signed[accept]
            exps[moved] = t_exps[accept]
            loss[moved] = t_loss[accept]
            value[moved] = t_value[accept]
            searching = searching[~accept]
            if not searching.size:
                break
            step[searching] *= 0.5
        if searching.size:  # no representable decrease along the Newton direction
            failed = np.zeros(live.size, dtype=bool)
            failed[searching] = True
            finish(failed, iteration, residual, np.zeros(live.size, dtype=bool))
            if failed.all():
                break
            keep = ~failed
            live, weights, queries, signed, exps, loss, value = (
                part[keep] for part in (live, weights, queries, signed, exps, loss, value)
            )
        grad = _logistic_gradient(weights, signed, exps, features, queries, lam)
    return weights_out, losses_out, diagnostics


def logistic_solve(
    problem: DepthProblem,
    config: SolverConfig | None = None,
    keep_history: bool = False,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Damped Newton on one logistic depth objective from the zero vector: a
    block of one for logistic_block_solve, with the same stopping rules."""
    features, query = _logistic_parts(problem)
    weights, _, diagnostics = logistic_block_solve(
        features, query, problem.lam, config, keep_history
    )
    return weights[0], diagnostics[0]


def _svm_parts(problem: DepthProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    points = np.vstack([problem.reference.values, problem.query.coords[None, :]])
    n = problem.reference.n
    labels = np.concatenate([np.ones(n), [-1.0]])
    box = np.concatenate(
        [np.full(n, 1.0 / (4.0 * n * problem.lam)), [1.0 / (4.0 * problem.lam)]]
    )
    return points, labels, box


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

    The reference Gram is read densely, and never copied, when n is at most
    DENSE_GRAM_LIMIT or one was supplied (depth_batch shares one across its
    queries); the query's own kernel column is computed once per solve.
    Otherwise columns are formed on demand so large references never
    materialise an n^2 matrix.
    """
    _require_loss(problem, LossKind.HINGE)
    cfg = config if config is not None else SolverConfig()
    spec: KernelSpec = problem.kernel
    points, labels, box = _svm_parts(problem)
    m = points.shape[0]
    n = m - 1

    if reference_gram is not None and reference_gram.shape != (n, n):
        raise ValidationError(
            f"precomputed reference gram has shape {reference_gram.shape}, expected {(n, n)}"
        )
    if reference_gram is None and n <= DENSE_GRAM_LIMIT:
        reference_gram = gram(spec, points[:n])
    if reference_gram is None:
        diag = spec.diagonal(points)

        def column(k: int) -> np.ndarray:
            return gram(spec, points, points[k : k + 1])[:, 0]

    else:
        query_column = np.append(
            gram(spec, points[:n], points[n:])[:, 0], gram(spec, points[n:], points[n:])[0, 0]
        )
        diag = np.append(np.diagonal(reference_gram), query_column[n])
        # column k of the bordered matrix is row k of the reference Gram (which
        # is symmetric, and whose rows are contiguous) plus k(x_k, q).  Two row
        # buffers are filled in turn, so the last two columns handed out stay
        # valid: _pairwise_smo reads a pair at once.
        rows = itertools.cycle(np.empty((2, m)))

        def column(k: int) -> np.ndarray:
            if k == n:
                return query_column
            row = next(rows)
            row[:n] = reference_gram[k]
            row[n] = query_column[k]
            return row

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
