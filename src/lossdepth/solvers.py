"""Optimisers behind the regularised depths.

Two solvers are provided, each over plain arrays: a reference, a batch of
queries and the ridge strength, with a single query a batch of one.  The
logistic depth runs damped Newton with Armijo backtracking on the
ridge-penalised expected log-loss, for a block of queries in lockstep, each
with its own line search and stopping rule (logistic_block_solve); the
block shares one evaluated start row at w = 0, and each full step's
evaluation is the new state.  Up to PAIR_HESSIAN_MAX_DIM coordinates, the
Hessians come from the reference's coordinate-pair products, prepared once
per batch (logistic_pairs) and contracted against each row's curvature by
einsum; above it, from a stacked matrix product.  The kernel hinge depth
solves the box constrained dual of the weighted SVM, one query at a time,
by greedy maximal-violation coordinate ascent without an intercept (the
default), or by maximal-violating-pair updates that keep the balance
constraint when an unpenalised intercept is requested (svm_dual_solves).
Both solves return one array per quantity, with a row per query, and every
weighted loss is core.weighted_expectation.  The two dual solvers read the
kernel through the same column and diagonal interface and return the same
six fields for one query.  Up to DENSE_GRAM_LIMIT reference rows a column
is a row of one (n+1) x (n+1) kernel matrix per batch, whose last row and
column each query overwrites; above it, columns are computed on demand.
Given that matrix, the no-intercept solver's update loop runs compiled
(native.greedy_ascent, built from _dual.c on first use), with the same
arithmetic in the same order as its numpy loop (_greedy_loop), which stays
the reference and the fallback: for lazy columns, for a machine without a
C compiler, and for every other solver.
The pairwise solver also fits the one-class SVM baseline, whose dual has
the same form.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, weighted_expectation
from .kernels import KernelSpec, gram

_EPS = float(np.finfo(float).eps)
_MAX_HALVINGS = 60  # bounds the line search: its last trial step, 2**-59, is far below rounding
DENSE_GRAM_LIMIT = 3000  # largest reference n whose kernel matrix is held densely
# Largest D whose Hessians are built from coordinate-pair products.  Per
# block Hessian, at the block size depths._bind_logistic picks, one BLAS
# thread on a 2-CPU host: the pair path was 1.35-2.2x faster than the stacked
# product for D <= 5 at n = 250-4000 and even (0.99-1.00x) at n = 16000; at
# D = 6 it ranged 0.93-1.48x, and at D = 7-8 0.82-1.34x, slower for most
# n >= 1000.
PAIR_HESSIAN_MAX_DIM = 5


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping tolerance.

    For the logistic solver the tolerance bounds the gradient norm and
    max_iterations counts Newton steps.  For the no-intercept dual solver the
    tolerance bounds the largest projected Karush-Kuhn-Tucker violation; for
    the pairwise solver it bounds the maximal violating pair's gradient
    spread, whose positive part the solver reports as its residual.  Both
    duals count max_iterations in passes, one update per dual coordinate
    each: the budget is max_iterations times the number of coordinates.  The
    no-intercept solver reports passes, and the pairwise solver pair updates.
    max_iterations is an integer, a Python or numpy one.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValidationError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValidationError("solver needs max_iterations >= 1")
        if not 0.0 < self.tolerance < math.inf:
            raise ValidationError("solver needs a finite positive tolerance")


def augment(points: np.ndarray, intercept: bool) -> np.ndarray:
    """Append a constant-1 column when an intercept is requested."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not intercept:
        return pts
    return np.hstack([pts, np.ones((pts.shape[0], 1))])


def _logistic_evaluate(
    weights: np.ndarray, features: np.ndarray, queries: np.ndarray, lam: float,
    work: np.ndarray,
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
    The pointwise losses are written into work, the solve's scratch (see
    logistic_block_solve).
    """
    n = features.shape[1]
    signed = np.empty((weights.shape[0], n + 1))
    np.einsum("ad,dn->an", weights, features, out=signed[:, :n])
    np.negative(np.einsum("ad,ad->a", weights, queries), out=signed[:, n])
    exps = np.abs(signed)
    np.negative(exps, out=exps)
    np.exp(exps, out=exps)
    losses = np.log1p(exps, out=work[0, : exps.shape[0]])
    losses -= np.minimum(signed, 0.0, out=work[1, : exps.shape[0]])
    loss = weighted_expectation(losses[:, :n], losses[:, n])
    return signed, exps, loss, loss + lam * np.einsum("ad,ad->a", weights, weights)


def _logistic_gradient(
    weights: np.ndarray, signed: np.ndarray, exps: np.ndarray, features: np.ndarray,
    queries: np.ndarray, lam: float, work: np.ndarray,
) -> np.ndarray:
    """Each row's objective gradient from its evaluation.  A point's loss
    slope sigmoid(-s) is 1 / (1 + exps) where s < 0 and exps / (1 + exps)
    elsewhere; as exps <= 1, the numerator is max(exps, [s < 0]).  One row
    of signed and exps broadcasts against every row of queries and weights.
    The slopes are written into work, the solve's scratch."""
    n = features.shape[1]
    slopes = np.maximum(exps, signed < 0.0, out=work[0, : exps.shape[0]])
    slopes /= np.add(exps, 1.0, out=work[1, : exps.shape[0]])
    grad = np.einsum("an,dn->ad", slopes[:, :n], features) / (-2.0 * n)
    grad = grad + (0.5 * slopes[:, n])[:, None] * queries
    return grad + (2.0 * lam) * weights


def _logistic_hessian(
    exps: np.ndarray, features: np.ndarray, pairs: np.ndarray | None, queries: np.ndarray,
    lam: float, work: np.ndarray,
) -> np.ndarray:
    """Each row's Hessian X' diag(c) X / (2n) + 0.5 c_q q q' + 2 lam I, with
    the curvature c = sigmoid(s) sigmoid(-s) = exps / (1 + exps)^2.

    Given the pair products of logistic_pairs, one einsum contracts each
    row's curvature against them, with no BLAS product and no (B, D, n)
    temporary, so a row's bits depend on that row alone.  That gives the
    upper triangle of X' diag(c) X, which one gather mirrors into the lower
    one, so the Hessian is bitwise symmetric.  Given None (D above
    PAIR_HESSIAN_MAX_DIM), a stacked matrix product forms X' diag(c) X
    instead.  The query term and the ridge are then added the same way on
    both paths.  One row of exps broadcasts against every row of queries.
    The curvatures are written into work, the solve's scratch."""
    dim, n = features.shape
    curvature = np.add(exps, 1.0, out=work[0, : exps.shape[0]])
    np.square(curvature, out=curvature)
    np.divide(exps, curvature, out=curvature)
    if pairs is None:
        hessian = (features * (curvature[:, None, :n] / (2.0 * n))) @ features.T
    else:
        upper = np.einsum("an,pn->ap", curvature[:, :n], pairs) / (2.0 * n)
        hessian = upper[:, _pair_index(dim)]
    outer = queries[:, :, None] * queries[:, None, :]
    hessian = hessian + (0.5 * curvature[:, n])[:, None, None] * outer
    diagonal = np.arange(dim)
    hessian[:, diagonal, diagonal] += 2.0 * lam
    return hessian


def logistic_features(reference: np.ndarray, intercept: bool) -> np.ndarray:
    """The augmented (n, D) reference transposed to (D, n), one contiguous row
    per coordinate, as the logistic solver reads it."""
    return np.ascontiguousarray(augment(reference, intercept).T)


def logistic_pairs(features: np.ndarray) -> np.ndarray | None:
    """The D(D+1)/2 coordinate-pair products F_d F_e, d <= e, of the (D, n)
    features, one read-only row per pair in np.triu_indices order, from which
    every Hessian of a batch is built; None above PAIR_HESSIAN_MAX_DIM, where
    the Hessians are a stacked matrix product.  A product that overflows is
    left as inf: the solve's first Hessian carries it, and refuses it."""
    dim = features.shape[0]
    if dim > PAIR_HESSIAN_MAX_DIM:
        return None
    rows, cols = np.triu_indices(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the first Hessian
        pairs = features[rows] * features[cols]
    pairs.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=PAIR_HESSIAN_MAX_DIM)
def _pair_index(dim: int) -> np.ndarray:
    """The (D, D) map from each Hessian entry to its row of logistic_pairs:
    entries (d, e) and (e, d) read the same pair, so the gather is symmetric."""
    rows, cols = np.triu_indices(dim)
    index = np.empty((dim, dim), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index.flags.writeable = False
    return index


def logistic_block_solve(
    features: np.ndarray,
    pairs: np.ndarray | None,
    queries: np.ndarray,
    lam: float,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the logistic depth objectives of a block of queries,
    in lockstep, each from the zero vector.

    features is the augmented reference from logistic_features, pairs its
    coordinate-pair products from logistic_pairs (None above
    PAIR_HESSIAN_MAX_DIM), and queries the (B, D) augmented queries.  Each
    step solves against each query's
    Hessian X' diag(c) X / (2n) + 0.5 s_q (1 - s_q) q q' + 2 lam I, with
    c = sigmoid(m) sigmoid(-m) on the reference margins m and s_q the sigmoid
    of the query margin, and each query halves its own step until its Armijo
    condition holds.  A full step whose value rises by rounding only (at most
    8 eps |f|) is accepted: near the minimiser the objective is flat to
    machine precision while the gradient still exceeds a tight tolerance.
    A query stops, converged, once its gradient norm is at or below
    tolerance, and unconverged after max_iterations steps or after 59
    halvings without an acceptable step.  Every stopped query leaves the
    block at the top of the loop, a stalled one counted at the step that
    failed, with its state before that step.  The start is one row evaluated
    at w = 0, where every margin is 0, read through broadcast views; the
    first Hessian is built from it before the loop, and one that overflows,
    or that carries an overflowed pair product, raises ValidationError, as
    does a singular Newton system.  Each step's full-step evaluation is the
    new state, and only the queries that fail its Armijo test are evaluated
    again, at halved steps.  The (B, n+1) temporaries of every evaluation,
    gradient and Hessian go into one scratch array made per block.  With a positive
    ridge the objective is 2 lam strongly convex, so the distance to the
    unique minimiser is at most the returned residual divided by 2 lam.

    Every operation acts on each query's row alone, so a query's bits do not
    depend on its block-mates.  Returns one array per quantity, row b for
    query b: the (B, D) weights, the (B,) weighted log-loss at them, and the
    (B,) Newton step counts (int64), final gradient norms and convergence
    flags.
    """
    cfg = config if config is not None else SolverConfig()
    size, dim = queries.shape
    weights_out, losses_out, residuals_out = np.empty((size, dim)), np.empty(size), np.empty(size)
    iterations_out, converged_out = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool)
    if not size:  # an empty block would spin the loop below for its whole budget
        return weights_out, losses_out, iterations_out, residuals_out, converged_out

    live = np.arange(size)  # block rows of the queries still being solved
    weights = np.zeros((size, dim))
    # at w = 0 every margin is 0: one evaluated row serves the whole block
    # made once per block, not at every step: in a fresh process, glibc maps
    # (B, n+1) temporaries of a few hundred KiB anew, and faults in their
    # pages, at nearly every step
    work = np.empty((2, size, features.shape[1] + 1))
    zero = np.zeros((1, dim))
    start = _logistic_evaluate(zero, features, zero, lam, work)
    signed, exps, loss, value = (np.broadcast_to(part, (size, *part.shape[1:])) for part in start)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        grad = _logistic_gradient(weights, start[0], start[1], features, queries, lam, work)
        hessian = _logistic_hessian(start[1], features, pairs, queries, lam, work)
    if not np.isfinite(hessian).all():
        raise ValidationError("the logistic Hessian overflows: rescale the data")
    stalled = np.zeros(size, dtype=bool)  # no acceptable step in the last search

    for iteration in range(cfg.max_iterations + 1):
        residual = np.linalg.norm(grad, axis=1)
        converged = residual <= cfg.tolerance
        stop = converged | stalled | (iteration == cfg.max_iterations)
        if stop.any():  # record the stopped queries as they stand
            done = live[stop]
            weights_out[done] = weights[stop]
            losses_out[done] = loss[stop]
            iterations_out[done] = iteration - stalled[stop]
            residuals_out[done] = residual[stop]
            converged_out[done] = converged[stop]
            if stop.all():
                break
            keep = ~stop
            live, weights, queries, signed, exps, loss, value, grad, hessian = (
                part[keep]
                for part in (live, weights, queries, signed, exps, loss, value, grad, hessian)
            )
        if iteration:  # step 0 solves against the start's Hessian
            hessian = _logistic_hessian(exps, features, pairs, queries, lam, work)
        try:
            direction = -np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            hint = "use a larger --lambda or rescale the data"
            raise ValidationError(f"singular Newton system at lambda = {lam:g}: {hint}") from None
        slope = np.einsum("ad,ad->a", grad, direction)
        # the full step's evaluation is the new state; only the rows that
        # fail its Armijo test are evaluated again, each at a halved step
        previous, base = (weights, signed, exps, loss, value), value
        weights = weights + direction
        signed, exps, loss, value = _logistic_evaluate(weights, features, queries, lam, work)
        searching = np.flatnonzero(  # live positions whose search goes on
            ~((value <= base + 1e-4 * slope) | (value - base <= 8.0 * _EPS * np.abs(base)))
        )
        for halvings in range(1, _MAX_HALVINGS):
            if not searching.size:
                break
            step = 0.5**halvings
            trial = previous[0][searching] + step * direction[searching]
            evaluated = _logistic_evaluate(trial, features, queries[searching], lam, work)
            for state, rows in zip((weights, signed, exps, loss, value), (trial, *evaluated)):
                state[searching] = rows
            accept = value[searching] <= base[searching] + 1e-4 * step * slope[searching]
            searching = searching[~accept]
        stalled = np.zeros(live.size, dtype=bool)
        stalled[searching] = True  # no representable decrease along the Newton direction
        for state, old in zip((weights, signed, exps, loss, value), previous):
            state[searching] = old[searching]
        grad = _logistic_gradient(weights, signed, exps, features, queries, lam, work)
    return weights_out, losses_out, iterations_out, residuals_out, converged_out


def svm_dual_solves(
    spec: KernelSpec,
    reference: np.ndarray,
    queries: np.ndarray,
    lam: float,
    intercept: bool,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximise the weighted-SVM dual of each query against the reference.

    Dual: max over alpha of sum(alpha) - 0.5 * alpha' Y K Y alpha, subject to
    0 <= alpha_i <= 1/(4 n lam) for reference points and
    0 <= alpha_query <= 1/(4 lam) for the query.  The separating function is
    f(.) = sum_k alpha_k y_k k(p_k, .), and the minimised primal objective
    equals 2 * lam times the maximised dual value.

    It is solved in the signed variables u = y alpha over
    [lo, hi] = [min(0, y box), max(0, y box)]: without an intercept by greedy
    single-coordinate updates (_greedy_ascent), whose order depends on the
    data alone.  Coordinates with K_kk = 0 contribute a fixed unit hinge loss
    whatever alpha does, so they are pinned at their box bound, where the
    (linear) dual term is largest.  With an intercept, pairwise updates keep
    sum_k y_k alpha_k = 0 (_pairwise_smo), every coordinate is free, since
    the offset moves even a degenerate coordinate's hinge loss, and the
    offset is recovered from the margin conditions.

    The labels and the box are built once per batch, and so is the
    (n+1) x (n+1) kernel matrix of the reference and a query, when there are
    queries and n is at most DENSE_GRAM_LIMIT: each query overwrites its last
    row and column, the border, with its own kernel values, and the solver
    reads the matrix's rows, which are its columns by symmetry, as views;
    the no-intercept solver is handed the matrix itself, whose loop runs
    compiled (see _greedy_ascent).
    Otherwise columns are formed on demand so large references never
    materialise an n^2 matrix.  Each query is solved on its own, in request
    order, so it gets the same bits alone or in any batch.  A kernel diagonal
    that is not finite (the kernel values overflow) raises ValidationError.

    Returns one array per quantity, row i for query i: the (m, n+1) dual
    coefficients alpha and function values f at the reference points and
    then the query, which exclude the offset, and the (m,) offsets (0 without
    an intercept), iteration counts (int64), final residuals and convergence
    flags.
    """
    cfg = config if config is not None else SolverConfig()
    n, m = reference.shape[0], queries.shape[0]
    labels = np.append(np.ones(n), -1.0)
    signed_box = labels * np.append(np.full(n, 1.0 / (4.0 * n * lam)), 1.0 / (4.0 * lam))
    dense = m > 0 and n <= DENSE_GRAM_LIMIT
    if dense:
        kernel = gram(spec, np.vstack([reference, queries[:1]]))
        diag, column = np.diagonal(kernel), kernel.__getitem__ if intercept else kernel
    solve = _pairwise_smo if intercept else _greedy_ascent
    alpha, fvals = np.empty((m, n + 1)), np.empty((m, n + 1))
    offsets, residuals = np.empty(m), np.empty(m)
    iterations, converged = np.empty(m, dtype=np.int64), np.empty(m, dtype=bool)
    for i, query in enumerate(queries):
        query = query[None, :]
        if dense:
            kernel[n, :n] = kernel[:n, n] = gram(spec, reference, query)[:, 0]
            kernel[n, n] = gram(spec, query, query)[0, 0]
        else:
            points = np.vstack([reference, query])
            diag = spec.diagonal(points)

            def column(k: int) -> np.ndarray:
                return gram(spec, points, points[k : k + 1])[:, 0]

        # only degenerate coordinates, whose kernel columns vanish, start
        # nonzero, so K @ start is zero; under an intercept they stay free,
        # since the offset moves their loss and their alpha is in the balance
        degenerate = (diag <= 1e-15) & (not intercept)
        start = np.where(degenerate, signed_box, 0.0)
        lo = np.where(degenerate, start, np.minimum(0.0, signed_box))
        hi = np.where(degenerate, start, np.maximum(0.0, signed_box))
        signed, fvals[i], offsets[i], iterations[i], residuals[i], converged[i] = solve(
            labels, start, lo, hi, np.zeros(n + 1), diag, column, cfg
        )
        np.abs(signed, out=alpha[i])  # alpha = y u, which is |u| as alpha >= 0
    return alpha, fvals, offsets, iterations, residuals, converged


def _check_finite_diagonal(diag: np.ndarray) -> None:
    """Refuse a kernel whose values overflow.  An infinite K_kk makes every
    Newton step on coordinate k NaN, which no stopping rule catches: the
    solve would spin its whole budget or stop with a NaN marked converged."""
    if not np.isfinite(diag).all():
        raise ValidationError("kernel values overflow: the kernel diagonal is not finite")


def _greedy_ascent(
    linear: np.ndarray, start: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    start_values: np.ndarray, diag: np.ndarray, column, cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, float, int, float, bool]:
    """Greedy maximal-violation coordinate ascent (Gauss-Southwell) for
    max c'u - 0.5 u'Ku over lo <= u <= hi: the equality-free twin of
    _pairwise_smo, with the same arguments, except that column may also be
    the kernel matrix itself.

    Each update takes the coordinate with the largest projected KKT
    violation of the gradient s = c - Ku (s_k where u_k can still rise, -s_k
    where it can still fall) to its clipped Newton point
    min(max(u_k + s_k / K_kk, lo_k), hi_k).  It stops, converged, once the
    largest violation is at or below tolerance.  The budget is max_iterations
    passes of u.size updates, and the reported iterations count passes,
    rounded up.  Returns u, the function values f = Ku, the offset 0.0, the
    iterations, the residual and the convergence flag.
    column(k) may return row k of the symmetric K, as a view, which the
    solver only reads.  A diagonal that is not finite raises ValidationError.

    Given the symmetric K as a C-contiguous float64 matrix, the loop runs
    compiled (native.greedy_ascent) when the library is available; given a
    callable, or without the library, it runs in numpy (_greedy_loop).  The
    two do the same arithmetic in the same order and give the same bits.
    """
    _check_finite_diagonal(diag)
    u = start.copy()
    scores = linear - start_values
    # clipping s_k below at 0 where u_k cannot fall and above at 0 where it
    # cannot rise leaves the violation as the magnitude
    floor = np.where(u > lo, -np.inf, 0.0)
    ceiling = np.where(u < hi, np.inf, 0.0)
    state = (diag, lo, hi, u, scores, floor, ceiling, np.empty_like(u),
             cfg.max_iterations * u.size, cfg.tolerance)
    outcome = None
    if isinstance(column, np.ndarray):
        from . import native  # local: its compiler tooling costs ~10 ms of start-up

        outcome = native.greedy_ascent(column, *state)
        column = column.__getitem__
    updates, residual = outcome if outcome is not None else _greedy_loop(column, *state)
    return u, linear - scores, 0.0, -(-updates // u.size), residual, residual <= cfg.tolerance


def _greedy_loop(
    column, diag: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray,
    scores: np.ndarray, floor: np.ndarray, ceiling: np.ndarray, violations: np.ndarray,
    budget: int, tolerance: float,
) -> tuple[int, float]:
    """The numpy maximal-violation loop of _greedy_ascent, and the reference
    that _dual.c reproduces bit for bit: updates u, the gradient scores and
    the violation clips floor and ceiling in place, overwrites the scratch
    vector violations, and returns the number of updates and the residual."""
    for updates in range(budget + 1):
        np.maximum(scores, floor, out=violations)
        np.minimum(violations, ceiling, out=violations)
        np.abs(violations, out=violations)
        k = int(violations.argmax())
        residual = float(violations[k])
        if residual <= tolerance or updates == budget:
            break
        updated = min(max(u[k] + scores[k] / diag[k], lo[k]), hi[k])
        scores -= (updated - u[k]) * column(k)
        u[k] = updated
        floor[k] = -np.inf if updated > lo[k] else 0.0
        ceiling[k] = np.inf if updated < hi[k] else 0.0
    return updates, residual


def _pairwise_smo(
    linear: np.ndarray, start: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    start_values: np.ndarray, diag: np.ndarray, column, cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, float, int, float, bool]:
    """Maximal-violating-pair SMO (Fan, Chen & Lin 2005) for
    max c'u - 0.5 u'Ku over lo <= u <= hi with sum(u) held at its start.

    This is the signed form u = y alpha of the LIBSVM dual
    max p'alpha - 0.5 (y alpha)' K (y alpha) over 0 <= alpha <= box with
    y'alpha fixed: c = y p and [lo, hi] = [min(0, y box), max(0, y box)].
    A coordinate with lo = hi never moves.  The kernel is read only through
    column(k) and diag; start_values is K @ start.  column(k) may return row k
    of the symmetric K, as a view, which the solver only reads.  A diagonal
    that is not finite raises ValidationError.

    Each iteration moves mass from the coordinate that can still go down with
    the smallest gradient s = c - Ku to the one that can still go up with the
    largest, by the exact maximiser along the pair clipped to the box.  It
    stops, converged, once that spread is at or below tolerance or no
    coordinate can move up or down.  The residual is the last pair's KKT
    violation, the spread floored at 0: a negative spread, or no pair that
    can move, leaves nothing to violate.  The budget is max_iterations passes of
    u.size pair updates, as _greedy_ascent counts its own, and the reported
    iterations count pair updates.  Returns _greedy_ascent's six fields: u,
    the function values f = Ku, the offset b of the margin conditions
    c_k - f_k = b on free coordinates (see _pairwise_offset), the iterations,
    the residual and the convergence flag.
    """
    _check_finite_diagonal(diag)
    u = start.copy()
    scores = linear - start_values

    def finish(iterations: int, residual: float, converged: bool):
        fvals = linear - scores
        offset = _pairwise_offset(u, lo, hi, linear - fvals)
        return u, fvals, offset, iterations, residual, converged

    residual = np.inf
    budget = cfg.max_iterations * u.size
    for iteration in range(1, budget + 1):
        up_scores = np.where(u < hi, scores, -np.inf)
        down_scores = np.where(u > lo, scores, np.inf)
        i = int(up_scores.argmax())
        j = int(down_scores.argmin())
        residual = max(float(up_scores[i] - down_scores[j]), 0.0)  # -inf: no pair can move
        if residual <= cfg.tolerance:
            return finish(iteration - 1, residual, True)
        col_i, col_j = column(i), column(j)
        curvature = diag[i] + diag[j] - 2.0 * float(col_i[j])
        t_max = min(hi[i] - u[i], u[j] - lo[j])
        t = min(residual / curvature, t_max) if curvature > 1e-15 else t_max
        u[i] += t
        u[j] -= t
        scores -= t * (col_i - col_j)
    return finish(budget, residual, False)


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
    hinge = np.maximum(0.0, 1.0 - labels * fvals)
    primal_loss = weighted_expectation(hinge[:-1], hinge[-1])
    squared_norm = float((alpha * labels) @ fvals)
    primal = primal_loss + lam * squared_norm
    dual = float(alpha.sum()) - 0.5 * squared_norm
    return primal - 2.0 * lam * dual
