"""Depth computations.

halfspace_depth is the classical smallest closed-halfspace probability.
Without a HalfspaceConfig it is exact, by the algorithm the reference's
dimension picks (one and two dimensions; higher ones raise); with one it is
bounded from above by the config's seeded random directions, in any
dimension.  logistic_depth and svm_depth report the weighted classification
loss of the best ridge-penalised separator between the reference sample and
the query.

DepthBatchRequest is the one way to ask for a depth, and BatchResult, one
array per quantity with a row per query, the one answer; the halfspace
depth's coefficients are an (m, 0) array.  A request names its depth by one
of METHODS, halfspace, lr or svm: the one set of names the package and the
command line share.  halfspace_depth, logistic_depth and svm_depth build a
request of one row and return row 0 by BatchResult.result, the only place a
DepthResult is built.

Each method has one binder, which does the work that depends on the
reference and the settings alone, once, and returns a loop-free scorer of a
block of query rows together with the method's block size.  depth_batch
binds the request, then scores its queries block by block in _score_blocks,
the only loop over query blocks, the same code for one query or many;
bind_batch keeps one binding for many sets of queries.  A scorer only reads
the arrays its binder keeps.  The halfspace depth: the exact 1-d depth sorts
the reference once and scores every query in one block, the exact 2-d depth
sweeps half the circle of directions with one sort of n angle keys per
query, in blocks of queries: compiled passes around numpy's arctan2 and sort
(native.halfspace_counts), or without the library the numpy sweep
_halfspace_sweep_2d, with the same counts.  Random directions are drawn once
and score one query per block; an overflowing margin is an infinity, or NaN,
counted without a warning.  The logistic depth: one lockstep Newton
solve per cache-sized block of queries, against the augmented reference
and, in low dimension, its coordinate-pair products, both built once.  The
kernel depth: one scorer, which reads the value off the dual optimum
(alpha, f, b) however a solve reached it.  Without an intercept, with a
bounded kernel of constant diagonal kappa and lam >= kappa/4, the optimum
is the box, and the box solve (_box_solves) returns it without iterating:
one pass for the reference row means, before the first block and kept for
the rest, then one gram call per block of queries; otherwise one block of
dual solves, one per query, in request order (solvers.svm_dual_solves).
"""
from __future__ import annotations

import functools
import numbers
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    LOG2,
    DataMatrix,
    DepthResult,
    Reporting,
    ValidationError,
    as_data_matrix,
    lambda_violation,
    weighted_expectation,
)
from .kernels import KernelSpec, gram
from .solvers import (
    SolverConfig,
    augment,
    logistic_block_solve,
    logistic_features,
    logistic_pairs,
    svm_dual_solves,
)

METHOD_HALFSPACE = "halfspace"
METHOD_LOGISTIC = "lr"
METHOD_SVM = "svm"
# the depth names, the same in the package and on the command line
METHODS = (METHOD_HALFSPACE, METHOD_LOGISTIC, METHOD_SVM)

@dataclass(frozen=True)
class HalfspaceConfig:
    """Random halfspace directions: n_directions standard Gaussian directions
    drawn from the seed, each checked with both signs, which bound the depth
    from above in any dimension.  Without a config the depth is exact, which
    needs d <= 2.  Both fields are integers, Python or numpy ones, and the
    seed is non-negative."""

    n_directions: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_directions, numbers.Integral):
            raise ValidationError(f"n_directions must be an integer, got {self.n_directions!r}")
        if self.n_directions < 1:
            raise ValidationError("random-directions halfspace depth needs n_directions >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class BatchResult:
    """The per-query columns of a depth batch, row i for query i: values,
    iterations (int64; 0 for the halfspace depth and the box solve),
    residuals and converged (bool), each of shape (m,), and coefficients,
    (m, k): the logistic weights or the dual coefficients, query last, with
    the offset after them under an intercept, and (m, 0) for the halfspace
    depth.  The box solve's coefficients are one read-only box vector with a
    zero row stride.  result(i) is query i's DepthResult, with its row's
    bits.
    """

    values: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    coefficients: np.ndarray

    def result(self, i: int) -> DepthResult:
        return DepthResult(
            value=float(self.values[i]),
            iterations=int(self.iterations[i]),
            residual=float(self.residuals[i]),
            converged=bool(self.converged[i]),
            coefficients=self.coefficients[i],
        )


# Query-reference pairs per 2-d sweep block.  With the compiled passes,
# median ns per pair over 7 interleaved rounds at n = 400, 1000 and 4000
# (2-CPU Xeon, one thread): 2^11 16-21, 2^12 14-16, 2^13 11-13, 2^14 9.8-11.6,
# 2^15 9.2-10.9, 2^16 12.6-14.7.  2^15 is up to 6 % faster than 2^14, but its
# 256 KiB angle arrays pass glibc's mmap threshold: a process that runs
# halfspace alone then faults in about 260 fresh pages per plane-grid call
# (560 at n = 4000), against 0-2 at 2^14.
HALFSPACE_BLOCK_PAIRS = 1 << 14


def _halfspace_sweep_2d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Smallest closed-halfspace counts for the (rows, n) differences dx, dy
    between the reference points and each row's query, by a sweep over half
    the circle of boundary directions.

    Each difference is folded into the upper half-plane by exact negation, so
    collinear points on either side of the query share one angle theta in
    [0, pi).  Turn the boundary line through the query from just below angle
    0 to just below pi, counting the closed halfspace on its left.  It starts
    with the D duplicates of the query, which lie in every closed halfspace,
    and the points that were not folded.  Where the line crosses a theta, the
    points there that were not folded leave it and the folded ones enter.  One
    sort per row of the n keys, theta's bits with the folded flag below them,
    lines up these -1 and +1 steps, and the count on the open gap after a run
    of equal angles is read where the run ends.  The minimum is attained on an
    open gap, and there the halfspace on the right holds n + D minus the
    count, so the smallest count is min(cmin, n + D - cmax) over the run ends
    and the other half-circle is never swept.  Each row depends on its own
    query alone.  dx and dy are folded in place.
    """
    n = dx.shape[1]
    duplicate = (dx == 0.0) & (dy == 0.0)
    flipped = (dy < 0.0) | ((dy == 0.0) & (dx < 0.0))
    sign = 1.0 - 2.0 * flipped  # times -1.0 is exact negation
    dx *= sign
    dy *= sign
    theta = np.arctan2(dy, dx)
    # A duplicate's angle may come out as -pi or pi and is set to 0.  The shift
    # drops the sign bit, so the -0.0 of a folded -0.0 keys as +0.0, and the
    # bit patterns of nonnegative angles sort as the angles do.
    theta[duplicate] = 0.0
    keys = theta.view(np.uint64)
    keys <<= 1
    keys |= flipped
    keys.sort(axis=1)
    run_end = np.empty(keys.shape, dtype=bool)
    np.greater(keys[:, 1:] ^ keys[:, :-1], 1, out=run_end[:, :-1])  # the angle bits differ
    run_end[:, -1] = True
    steps = (keys & 1).view(np.int64)
    steps *= 2
    steps -= 1
    counts = np.cumsum(steps, axis=1)
    # The steps sum to 2F - n over F folded points, so the start is n - F + D:
    # duplicates sort into the first run as points that were not folded, and
    # counting them twice undoes their steps of -1.
    dups = duplicate.sum(axis=1)
    start = (n - counts[:, -1]) // 2 + dups
    cmin = counts.min(axis=1, where=run_end, initial=n)
    cmax = counts.max(axis=1, where=run_end, initial=-n)
    return np.minimum(start + cmin, n + dups - (start + cmax))


def _side_counts(points: np.ndarray, queries: np.ndarray, directions: np.ndarray):
    """Per query row z and direction u, the counts of reference points x with
    <u, x - z> <= 0 and with <u, x - z> >= 0: those on each closed side of
    the hyperplane, each of shape (queries, directions).  A difference or a
    margin past 1.8e308 is an infinity, counted on its side, and a margin
    that sums infinities of both signs is NaN, counted on neither side;
    either is silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        margins = (points - queries[:, None, :]) @ directions.T
    return np.count_nonzero(margins <= 0.0, axis=1), np.count_nonzero(margins >= 0.0, axis=1)


def _halfspace_columns(values: np.ndarray) -> BatchResult:
    """The columns of halfspace depths, each exact or an upper bound: 0
    iterations, residual 0, converged and no coefficients, an (m, 0) block."""
    m = values.size
    return BatchResult(values, np.zeros(m, dtype=np.int64), np.zeros(m), np.ones(m, dtype=bool),
                       np.empty((m, 0)))


def _bind_halfspace(request: DepthBatchRequest):
    """The halfspace scorer of the request's (n, d) reference, and its block
    size.

    With a config, the seeded directions are drawn here, and each block is
    one query, which projects the reference on its own, so the margins held
    at once are one query's n x n_directions.  Without one, the exact depth
    by the reference's dimension: in 1-d the reference is sorted here and all
    queries form one block, counted min(#{x <= z}, #{x >= z}) / n
    by binary search; in 2-d sweeps over blocks of about
    HALFSPACE_BLOCK_PAIRS query-reference pairs, one sort per query row, in
    the compiled library (native.halfspace_counts, which loads it on the
    first block) or, without it, in _halfspace_sweep_2d, with the same
    counts; d >= 3 raises here, even with no queries.  A query's value never
    depends on the others, so it has the same bits alone or in any batch.
    """
    points, config = request.reference.values, request.halfspace
    n, d = points.shape
    if config is not None:
        rng = np.random.default_rng(config.seed)
        directions = rng.standard_normal((config.n_directions, d))
        norms = np.linalg.norm(directions, axis=1)
        directions[norms == 0.0] = 0.0
        directions[norms == 0.0, 0] = 1.0

        def score(block):
            below, above = _side_counts(points, block, directions)
            return _halfspace_columns(np.minimum(above, below).min(axis=1) / n)

        return score, 1
    if d == 1:
        ordered = np.sort(points[:, 0])

        def score(block):
            below = np.searchsorted(ordered, block[:, 0], side="right")
            above = n - np.searchsorted(ordered, block[:, 0], side="left")
            return _halfspace_columns(np.minimum(below, above) / n)

        return score, sys.maxsize
    if d != 2:
        raise ValidationError(
            "halfspace depth in dimension >= 3 needs an explicit random-directions configuration"
        )
    from . import native  # local: importing the package never imports it

    columns = np.ascontiguousarray(points.T)

    def score(block):
        counts = native.halfspace_counts(columns, block)
        if counts is None:
            with np.errstate(over="ignore"):  # a difference past 1.8e308 is inf, as in C
                dx, dy = points[:, 0] - block[:, 0:1], points[:, 1] - block[:, 1:2]
            counts = _halfspace_sweep_2d(dx, dy)
        return _halfspace_columns(counts / n)

    return score, max(1, HALFSPACE_BLOCK_PAIRS // n)


def _one_query(query, reference, method: str, **settings) -> DepthBatchRequest:
    """The request of a single query: its coordinates flattened into one row,
    which must hold at least one."""
    row = np.asarray(query, dtype=float).reshape(1, -1)
    if not row.size:
        raise ValidationError("query point must have at least one coordinate")
    return DepthBatchRequest(reference=reference, queries=row, method=method, **settings)


def halfspace_depth(query, reference, config: HalfspaceConfig | None = None) -> float:
    """Smallest fraction of reference points in a closed halfspace whose
    boundary passes through the query point: a one-row depth_batch."""
    request = _one_query(query, reference, METHOD_HALFSPACE, halfspace=config)
    return depth_batch(request).result(0).value


def halfspace_depth_as_loss(query, reference, directions, strict: bool = False) -> float:
    """Depth as twice the smallest weighted zero-one loss over linear
    classifiers whose boundary passes through the query.

    Each direction u defines the classifier predicting +1 strictly above the
    hyperplane <u, x - z> = 0 and -1 on or below it.  The query sits on the
    hyperplane, is predicted -1, and contributes no loss; a reference point on
    the hyperplane counts as misclassified.  Under this boundary convention
    the value equals the closed-halfspace depth over the same directions.
    strict=True scores reference points with the zero-margin-is-correct rule
    instead, which can fall below the closed value by exactly the fraction of
    reference mass sitting on the optimal hyperplane.
    """
    request = _one_query(query, reference, METHOD_HALFSPACE)
    ref = request.reference
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[0] < 1:
        raise ValidationError("halfspace loss search needs at least one direction")
    if dirs.shape[1] != ref.d:
        raise ValidationError(
            f"directions have dimension {dirs.shape[1]}, reference has d={ref.d}"
        )
    if not np.all(np.isfinite(dirs)):
        raise ValidationError("directions contain non-finite entries")
    if np.any(np.all(dirs == 0.0, axis=1)):
        raise ValidationError("directions must be non-zero")
    below, above = _side_counts(ref.values, request.queries, dirs)
    # strictly below is all but the points on or above
    counts = ref.n - above if strict else below
    # weighted zero-one loss of direction u: count/(2n) for the reference side
    # plus 0 for the query, doubled
    return float(counts.min()) / ref.n


def logistic_depth(
    query,
    reference,
    lam: float = 1.0,
    *,
    intercept: bool = True,
    reporting: Reporting = Reporting.LOSS_ONLY,
    normalize: bool = True,
    solver: SolverConfig | None = None,
) -> DepthResult:
    """Depth under the log-loss with an L2-penalised linear classifier.

    Runs damped Newton to the unique minimiser and reports the weighted
    log-loss there (plus the ridge term when reporting asks for it).  With
    normalize the value is divided by log 2, the loss of the constant-zero
    classifier, so it lands in [0, 1].  The query is a one-row depth_batch,
    by the same code and to the same bits as in any batch.
    """
    request = _one_query(
        query, reference, METHOD_LOGISTIC, lam=lam, intercept=intercept, reporting=reporting,
        normalize=normalize, solver=solver,
    )
    return depth_batch(request).result(0)


# A lockstep Newton block holds LOGISTIC_BLOCK_ENTRIES // (D max(n, D))
# queries, one at large D.  Up to solvers.PAIR_HESSIAN_MAX_DIM its largest
# arrays are the (block, n + 1) margins, exps and curvatures, each about
# 1/D of this; above it, the stacked Hessian product's (block, D, n)
# temporary and the Hessians hold about this many entries (1 MiB of float64).
# Pair path, big-reference lr (n = 4000, D = 3, 96 queries), median call time
# over 3 interleaved runs of 15 calls, one BLAS thread, 2-CPU host: 2^15
# 36-51 ms, 2^16 29-35, 2^17 21-27, 2^18 22-27, 2^19 28-33.
LOGISTIC_BLOCK_ENTRIES = 1 << 17


def _bind_logistic(request: DepthBatchRequest):
    """The logistic scorer of the request, with an intercept unless it says
    otherwise, and its block size: one lockstep Newton solve per block of
    LOGISTIC_BLOCK_ENTRIES // (D max(n, D)) queries, against the augmented
    reference and its coordinate-pair products (None above
    solvers.PAIR_HESSIAN_MAX_DIM), built here.  Each query's result depends
    on its own row only, so a query gets the same bits alone or in any batch.
    """
    lam = request.lam
    intercept = True if request.intercept is None else request.intercept
    features = logistic_features(request.reference.values, intercept)
    pairs = logistic_pairs(features)
    dim, n = features.shape

    def score(block):
        weights, values, iterations, residuals, converged = logistic_block_solve(
            features, pairs, augment(block, intercept), lam, request.solver
        )
        if request.reporting is Reporting.LOSS_PLUS_REG:
            # one dot per row: an einsum over the rows rounds differently
            values += lam * np.array([w @ w for w in weights])
        if request.normalize:
            values /= LOG2
        return BatchResult(values, iterations, residuals, converged, weights)

    return score, max(1, LOGISTIC_BLOCK_ENTRIES // (dim * max(n, dim)))


KERNEL_BLOCK_ENTRIES = 1 << 18  # reference kernel values per block: 2 MiB of float64


def _kernel_row_means(spec: KernelSpec, reference: np.ndarray) -> np.ndarray:
    """Row means r = K 1/n of the reference Gram K, in one pass over K's upper
    triangle.

    Reference rows [s, e) are evaluated against reference rows s: in one gram
    call.  Its row sums go to r[s:e] and its column sums past the diagonal
    block to r[e:].  A block holds about KERNEL_BLOCK_ENTRIES values, so the
    blocks, and with them the bits of r, depend on n alone.  Every block is
    written in place into one scratch buffer that holds the largest of them,
    so one block is live at a time and no step allocates one.
    """
    n = reference.shape[0]
    sums = np.zeros(n)
    scratch = np.empty(min(max(KERNEL_BLOCK_ENTRIES, n), n * n))
    start = 0
    while start < n:
        stop = min(n, start + max(1, KERNEL_BLOCK_ENTRIES // (n - start)))
        shape = (stop - start, n - start)
        block = gram(spec, reference[start:stop], reference[start:],
                     out=scratch[: shape[0] * shape[1]].reshape(shape))
        sums[start:stop] += block.sum(axis=1)
        sums[stop:] += block[:, stop - start :].sum(axis=0)
        start = stop
    return sums / n


def _box_solves(spec: KernelSpec, reference: np.ndarray, row_means: Callable[[], np.ndarray],
                block: np.ndarray, lam: float, tolerance: float):
    """svm_dual_solves' six columns for the block's queries where the dual
    optimum is the box itself: no intercept, and a bounded kernel with
    constant diagonal kappa (Gaussian, Laplacian, IMQ; all positive) at
    lam >= kappa/4.

    At alpha = box, alpha_i = 1/(4 n lam) and alpha_q = 1/(4 lam), the
    function values are f(x_i) = (r_i - k(x_i, q)) / (4 lam) <= kappa/(4 lam)
    and f(q) = (m(q) - kappa) / (4 lam) >= -kappa/(4 lam), with r the row
    means of the reference Gram (row_means(), called before the block's
    gram call and only when the block has a query) and m(q) the mean of
    k(x_i, q).  Then no margin exceeds 1, the optimality condition at the
    upper bound.  alpha is the box, read-only and broadcast with a zero row
    stride; offsets and iterations are 0; the residual is the KKT violation
    at the box, the greedy solver's projected violation there, and a query
    converged when it is at most tolerance.  Each row depends on its own
    query alone.
    """
    n, m = reference.shape[0], block.shape[0]
    scale = 4.0 * lam
    box = np.append(np.full(n, 1.0 / (scale * n)), 1.0 / scale)
    if m:
        means, query_kernel = row_means(), gram(spec, block, reference)
    else:
        means, query_kernel = 0.0, np.empty((0, n))
    fvals = np.empty((m, n + 1))
    fvals[:, n] = (query_kernel.mean(axis=1) - spec.bound()) / scale
    # in place in the block's own kernel values, so no (m, n) temporary is made
    np.divide(np.subtract(means, query_kernel, out=query_kernel), scale, out=fvals[:, :n])
    residuals = np.maximum(0.0, np.maximum(fvals[:, :n].max(axis=1) - 1.0, -1.0 - fvals[:, n]))
    return (np.broadcast_to(box, (m, n + 1)), fvals, np.zeros(m), np.zeros(m, dtype=np.int64),
            residuals, residuals <= tolerance)


def svm_depth(
    query,
    reference,
    lam: float = 1.0,
    *,
    kernel: KernelSpec,
    intercept: bool = False,
    reporting: Reporting = Reporting.LOSS_ONLY,
    solver: SolverConfig | None = None,
) -> DepthResult:
    """Depth under the hinge loss with a kernel classifier.

    Solves the box-constrained dual and reports the weighted hinge loss of
    the recovered function (plus the penalty term when requested).  The hinge
    loss of the zero function is exactly 1, so no normalisation is applied.
    Coefficients are the n+1 dual variables, query last, with a trailing
    offset when intercept is on.  Where the dual solution is the box itself
    (see _box_solves) it is read off without iterating, with 0 iterations.
    The query is a one-row depth_batch, by the same code and to the same bits
    as in any batch.
    """
    request = _one_query(
        query, reference, METHOD_SVM, lam=lam, kernel=kernel, intercept=intercept,
        reporting=reporting, solver=solver,
    )
    return depth_batch(request).result(0)


def _bind_svm(request: DepthBatchRequest):
    """The request's kernel scorer, without an intercept unless it asks for
    one, and its block size.  The scorer runs one solve per block, which
    returns svm_dual_solves' columns, one row per query in request order:
    without an intercept, with a bounded kernel of constant diagonal kappa
    and lam >= kappa/4, the box solve (_box_solves), with the reference row
    means computed on the first block and kept, in blocks of about
    KERNEL_BLOCK_ENTRIES query kernel values; otherwise svm_dual_solves, with
    every query in one block.  Either way the value is the weighted hinge
    loss of the margins f + b, with the ridge term added as one dot per row,
    since an einsum over the rows rounds differently, and a converged value
    is at most 1.  A query gets the same bits alone or in any batch."""
    spec, reference, lam = request.kernel, request.reference.values, request.lam
    intercept = bool(request.intercept)
    n = reference.shape[0]
    kappa = spec.bound()
    boxed = not intercept and kappa is not None and lam >= kappa / 4.0
    row_means = functools.cache(lambda: _kernel_row_means(spec, reference))  # once, on first use
    tolerance = (request.solver or SolverConfig()).tolerance
    labels = np.append(np.ones(n), -1.0)

    def score(block):
        alpha, fvals, offsets, iterations, residuals, converged = (
            _box_solves(spec, reference, row_means, block, lam, tolerance) if boxed
            else svm_dual_solves(spec, reference, block, lam, intercept, request.solver)
        )
        margins = fvals + offsets[:, None] if intercept else fvals  # else b = 0 changes no value
        values = weighted_expectation(
            np.maximum(0.0, 1.0 - margins[:, :n]), np.maximum(0.0, 1.0 + margins[:, n])
        )
        if request.reporting is Reporting.LOSS_PLUS_REG:
            # y_k alpha_k, the query labelled -1; the box's one row is multiplied once
            signed = np.broadcast_to(alpha[:1] * labels, alpha.shape) if boxed else alpha * labels
            values += lam * np.array([s @ f for s, f in zip(signed, fvals)])
        # the zero function's objective, 1, bounds a solved depth: a converged
        # value above it is the rounding of margins near 0 (for example, every
        # point equal, where 1 - f and 1 + f round up together)
        np.minimum(values, 1.0, out=values, where=converged)
        coefficients = np.hstack([alpha, offsets[:, None]]) if intercept else alpha  # the offset last
        return BatchResult(values, iterations, residuals, converged, coefficients)

    return score, max(1, KERNEL_BLOCK_ENTRIES // n) if boxed else sys.maxsize


@dataclass(frozen=True, eq=False)
class DepthBatchRequest:
    """Shared settings for scoring many queries against one reference, by
    one of METHODS.  Queries with no rows ([], a 1-d empty array or shape
    (0, k)) are no queries; every row must hold the reference's d
    coordinates."""

    reference: DataMatrix
    queries: np.ndarray
    method: str
    lam: float = 1.0
    kernel: KernelSpec | None = None
    intercept: bool | None = None  # None picks the per-method default
    reporting: Reporting = Reporting.LOSS_ONLY
    normalize: bool = True
    solver: SolverConfig | None = None
    halfspace: HalfspaceConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "reference", as_data_matrix(self.reference))
        queries = np.asarray(self.queries, dtype=float)
        if queries.shape[:1] == (0,):
            queries = queries.reshape(0, self.reference.d)
        queries = np.atleast_2d(queries)
        if queries.ndim != 2:
            raise ValidationError(f"queries must form a 2-d array, got shape {queries.shape}")
        if queries.shape[1] != self.reference.d:
            raise ValidationError(
                f"dimension mismatch: reference has d={self.reference.d}, "
                f"queries have d={queries.shape[1]}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValidationError("queries contain non-finite entries")
        object.__setattr__(self, "queries", queries)
        if self.method not in METHODS:
            raise ValidationError(f"unknown depth method {self.method!r}")
        if self.method == METHOD_SVM and self.kernel is None:
            raise ValidationError("svm depth requires a kernel")
        if self.method != METHOD_HALFSPACE and (violation := lambda_violation(self.lam)):
            raise ValidationError(violation)


def _bind(request: DepthBatchRequest) -> tuple[Callable[[np.ndarray], BatchResult], int]:
    """The request's method bound to its reference and settings: the scorer
    of one block of query rows, and the block size."""
    binders = {METHOD_HALFSPACE: _bind_halfspace, METHOD_LOGISTIC: _bind_logistic,
               METHOD_SVM: _bind_svm}
    return binders[request.method](request)


def _score_blocks(
    score: Callable[[np.ndarray], BatchResult], size: int, queries: np.ndarray
) -> BatchResult:
    """The queries scored block by block, size rows at a time in query order,
    and the blocks' columns stacked: the only loop over query blocks.  Blocks
    of the box solve's box, one read-only row with a zero stride, stack to
    that box over every query, never copied.  No queries are one empty
    block, whose columns have the method's shapes.  The halfspace depth's
    (rows, 0) coefficients also have a zero row stride, and broadcast."""
    m = queries.shape[0]
    blocks = [score(queries[start : start + size]) for start in range(0, max(m, 1), size)]
    if len(blocks) == 1:
        return blocks[0]
    coefficients = blocks[0].coefficients
    if coefficients.strides[0] == 0:
        coefficients = np.broadcast_to(coefficients[0], (m, coefficients.shape[1]))
    else:
        coefficients = np.concatenate([block.coefficients for block in blocks])
    columns = ("values", "iterations", "residuals", "converged")
    return BatchResult(
        *(np.concatenate([getattr(block, name) for block in blocks]) for name in columns),
        coefficients,
    )


def bind_batch(request: DepthBatchRequest) -> Callable[..., BatchResult]:
    """depth_batch with the request's method bound once: the returned
    function scores any query rows against the request's reference and
    settings, checked as DepthBatchRequest checks them, to the bits
    depth_batch gives them; the request's own queries are not scored.  The
    reference-only work is done here, or on the first block, once for every
    call, and binding raises what depth_batch raises before it scores."""
    score, size = _bind(request)
    return lambda queries: _score_blocks(score, size, replace(request, queries=queries).queries)


def depth_batch(request: DepthBatchRequest) -> BatchResult:
    """Score every query in the request: the method's binder (_bind) does the
    reference-only work once, and _score_blocks scores the queries block by
    block, the same code a single query runs as a batch of one.  A halfspace
    depth is exact or an upper bound, so its columns read 0 iterations,
    residual 0 and converged.

    Every query is scored or the call raises: an exact halfspace depth (no
    config) in dimension >= 3 raises ValidationError, even with no queries.
    """
    return _score_blocks(*_bind(request), request.queries)
