"""Depth computations.

halfspace_depth is the classical smallest closed-halfspace probability,
computed exactly in one and two dimensions and bounded from above by seeded
random directions in higher dimension.  logistic_depth and svm_depth report
the weighted classification loss of the best ridge-penalised separator
between the reference sample and the query.  depth_batch scores many
queries against one reference.  Three depths are batch operations that a
single query shares: the halfspace depth (the exact 1-d depth sorts the
reference once, the exact 2-d depth sweeps cache-sized blocks of queries
with one sort per query row, and random directions are drawn once per
batch), the logistic depth (one lockstep Newton solve per cache-sized block
of queries), and, without an intercept, with a bounded kernel of constant
diagonal kappa and lam >= kappa/4, the kernel depth in closed form, one
block of queries at a time.  The iterative kernel depth runs one solve per
query, in request order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LOG2,
    DataMatrix,
    DepthProblem,
    DepthResult,
    LossKind,
    Reporting,
    ValidationError,
    as_data_matrix,
    as_query_point,
    lambda_violation,
    weighted_expectation,
)
from .kernels import KernelSpec, gram
from . import solvers
from .solvers import (
    SolverConfig,
    augment,
    logistic_block_solve,
    logistic_features,
    svm_dual_solve,
)

EXACT_1D = "exact-1d"
EXACT_2D = "exact-2d"
RANDOM_DIRECTIONS = "random"


@dataclass(frozen=True)
class HalfspaceConfig:
    """How to search over halfspace directions.

    exact-1d and exact-2d enumerate every distinct closed halfspace through
    the query.  random draws n_directions standard Gaussian directions from
    the seed and checks both signs of each, giving an upper bound on the
    depth in any dimension.
    """

    mode: str
    n_directions: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (EXACT_1D, EXACT_2D, RANDOM_DIRECTIONS):
            raise ValidationError(f"unknown halfspace mode {self.mode!r}")
        if self.mode == RANDOM_DIRECTIONS and self.n_directions < 1:
            raise ValidationError("random-directions halfspace depth needs n_directions >= 1")

    @classmethod
    def exact_1d(cls) -> "HalfspaceConfig":
        return cls(mode=EXACT_1D)

    @classmethod
    def exact_2d(cls) -> "HalfspaceConfig":
        return cls(mode=EXACT_2D)

    @classmethod
    def random_directions(cls, n_directions: int, seed: int = 0) -> "HalfspaceConfig":
        return cls(mode=RANDOM_DIRECTIONS, n_directions=n_directions, seed=seed)


def default_halfspace_config(d: int) -> HalfspaceConfig:
    """Exact mode for d <= 2; higher dimensions must choose a direction count."""
    if d == 1:
        return HalfspaceConfig.exact_1d()
    if d == 2:
        return HalfspaceConfig.exact_2d()
    raise ValidationError(
        "halfspace depth in dimension >= 3 needs an explicit random-directions configuration"
    )


HALFSPACE_BLOCK_PAIRS = 1 << 13  # query-reference pairs per 2-d sweep block: its arrays fit in L2


def _halfspace_exact_1d(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """min(#{x <= z}, #{x >= z}) / n for every query z, counted by binary
    search in the once-sorted reference."""
    ordered = np.sort(values)
    below = np.searchsorted(ordered, queries, side="right")
    above = ordered.size - np.searchsorted(ordered, queries, side="left")
    return np.minimum(below, above) / ordered.size


def _halfspace_sweep_2d(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Angular sweep over the circle of unit normals, for a block of queries.

    A non-duplicate point lies in the closed halfspace of direction u(phi)
    exactly when phi falls in the closed half-circle arc centred on its angle,
    so the count of covered points is piecewise constant between arc
    endpoints and the minimum is attained on an open gap.  Each difference is
    first folded into the upper half-plane by exact negation, and both ends of
    its arc come from the one folded angle, so collinear points on either side
    of the query share their endpoints exactly.  Sorting a query's 2n
    endpoints and summing their +1 (start) and -1 (end) steps gives the count
    on every gap, which is read where a run of equal angles ends.  Duplicates
    of the query belong to every closed halfspace: their arcs start and end at
    angle 0, so their steps cancel, and they are added back at the end.  Each
    row of the result depends on its own query alone.
    """
    n = points.shape[0]
    dx = points[:, 0] - queries[:, 0:1]
    dy = points[:, 1] - queries[:, 1:2]
    duplicate = (dx == 0.0) & (dy == 0.0)
    flipped = (dy < 0.0) | ((dy == 0.0) & (dx < 0.0))
    sign = np.where(flipped, -1.0, 1.0)  # times -1.0 is exact negation
    dx *= sign
    dy *= sign
    lower = np.arctan2(dy, dx)
    lower += 0.5 * np.pi
    upper = lower + np.pi
    upper -= (upper >= 2.0 * np.pi) * (2.0 * np.pi)
    lower[duplicate] = 0.0
    upper[duplicate] = 0.0
    # a point's arc runs from upper to lower; a flipped point's the other way
    starts = np.where(flipped, lower, upper)
    ends = np.where(flipped, upper, lower)
    wrapped = np.count_nonzero(starts > ends, axis=1)  # count on the gap across angle 0
    # The angles are nonnegative, so their bit patterns sort as integers do.
    # A bit shifted in below them marks ends, so one sort of the keys puts
    # every start before the ends at an equal angle.  Within a run of equal
    # angles the running count then rises before it falls, and its minimum
    # over all prefixes is its minimum over run ends.  The full sum is 0: the
    # cycle closes on the wrap-around gap.
    keys = np.concatenate([starts, ends], axis=1).view(np.uint64)
    keys <<= 1
    keys[:, n:] |= 1
    keys.sort(axis=1)
    keys &= 1
    steps = keys.view(np.int64)
    steps *= -2
    steps += 1
    counts = np.cumsum(steps, axis=1)
    return (wrapped + counts.min(axis=1) + np.count_nonzero(duplicate, axis=1)) / n


def _halfspace_random(points: np.ndarray, queries: np.ndarray, config: HalfspaceConfig):
    """Smallest closed-halfspace fraction over the seeded directions, drawn once
    for all queries; each query projects the reference on its own."""
    rng = np.random.default_rng(config.seed)
    directions = rng.standard_normal((config.n_directions, points.shape[1]))
    norms = np.linalg.norm(directions, axis=1)
    directions[norms == 0.0] = 0.0
    directions[norms == 0.0, 0] = 1.0
    counts = np.empty(queries.shape[0])
    for i, z in enumerate(queries):
        scores = (points - z) @ directions.T
        above = np.count_nonzero(scores >= 0.0, axis=0)
        below = np.count_nonzero(scores <= 0.0, axis=0)
        counts[i] = np.minimum(above, below).min()
    return counts / points.shape[0]


def _halfspace_depths(points: np.ndarray, queries: np.ndarray, config: HalfspaceConfig):
    """Halfspace depths of the (m, d) queries against the (n, d) reference.

    Exact 1-d sorts the reference once for the whole batch.  Exact 2-d sweeps
    blocks of about HALFSPACE_BLOCK_PAIRS query-reference pairs, one sort per
    query row.  Random directions are drawn once.  A query's value never
    depends on the others, so it has the same bits alone or in any batch.
    """
    m, d = queries.shape
    if config.mode == EXACT_1D:
        if d != 1:
            raise ValidationError("exact-1d halfspace depth needs one-dimensional data")
        return _halfspace_exact_1d(points[:, 0], queries[:, 0])
    if config.mode == EXACT_2D:
        if d != 2:
            raise ValidationError("exact-2d halfspace depth needs two-dimensional data")
        size = max(1, HALFSPACE_BLOCK_PAIRS // points.shape[0])
        values = np.empty(m)
        for start in range(0, m, size):
            block = queries[start : start + size]
            values[start : start + size] = _halfspace_sweep_2d(points, block)
        return values
    return _halfspace_random(points, queries, config)


def halfspace_depth(query, reference, config: HalfspaceConfig | None = None) -> float:
    """Smallest fraction of reference points in a closed halfspace whose
    boundary passes through the query point."""
    ref = as_data_matrix(reference)
    q = as_query_point(query)
    if ref.d != q.d:
        raise ValidationError(f"dimension mismatch: reference has d={ref.d}, query has d={q.d}")
    cfg = config if config is not None else default_halfspace_config(ref.d)
    return float(_halfspace_depths(ref.values, q.coords[None, :], cfg)[0])


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
    ref = as_data_matrix(reference)
    q = as_query_point(query)
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
    margins = (ref.values - q.coords) @ dirs.T
    if strict:
        counts = np.count_nonzero(margins < 0.0, axis=0)
    else:
        counts = np.count_nonzero(margins <= 0.0, axis=0)
    n = ref.n
    # weighted zero-one loss of direction u: count/(2n) for the reference side
    # plus 0 for the query, doubled
    return float(counts.min()) / n


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
    classifier, so it lands in [0, 1].  The query is a batch of one, by the
    same code and to the same bits as in depth_batch.
    """
    problem = DepthProblem(
        reference=as_data_matrix(reference),
        query=as_query_point(query),
        loss=LossKind.LOGISTIC,
        lam=lam,
        intercept=intercept,
        reporting=reporting,
        normalize=normalize,
    )
    return _logistic_depths(
        problem.reference.values, problem.query.coords[None, :], lam, intercept, reporting,
        normalize, solver,
    )[0]


# Entries of the largest per-block array, the (block, D, max(n, D)) Hessian
# product and Hessians, per lockstep Newton block: 1 MiB of float64, about
# 2^15 query-reference pairs at D = 3, and one query per block at large D.
LOGISTIC_BLOCK_ENTRIES = 1 << 17


def _logistic_depths(
    reference: np.ndarray,
    queries: np.ndarray,
    lam: float,
    intercept: bool,
    reporting: Reporting,
    normalize: bool,
    solver: SolverConfig | None,
) -> list:
    """Logistic depths of every query, one lockstep Newton block at a time.

    The augmented reference is built once; a block's Hessian product holds
    about LOGISTIC_BLOCK_ENTRIES values, and each query's result depends on
    its own row only, so a query gets the same bits alone or in any batch.
    """
    features = logistic_features(reference, intercept)
    rows = augment(queries, intercept)
    dim, n = features.shape
    size = max(1, LOGISTIC_BLOCK_ENTRIES // (dim * max(n, dim)))
    results = []
    for start in range(0, rows.shape[0], size):
        weights, losses, diagnostics = logistic_block_solve(
            features, rows[start : start + size], lam, solver
        )
        for w, loss, diag in zip(weights, losses, diagnostics):
            value = float(loss)
            if reporting is Reporting.LOSS_PLUS_REG:
                value += lam * float(w @ w)
            if normalize:
                value /= LOG2
            results.append(
                DepthResult(
                    value=value,
                    iterations=diag.iterations,
                    residual=diag.residual,
                    converged=diag.converged,
                    coefficients=w,
                )
            )
    return results


KERNEL_BLOCK_ENTRIES = 1 << 18  # reference kernel values per block: 2 MiB of float64


def _closed_form_applies(kernel: KernelSpec, lam: float, intercept: bool) -> bool:
    """Whether every dual variable of the kernel depth sits at its box bound.

    Every bounded family here (Gaussian, Laplacian, IMQ) is positive with
    constant diagonal kappa.  At alpha = box the function values are then
    f(x_i) = (r_i - k(x_i, q)) / (4 lam) <= kappa / (4 lam) and
    f(q) = (m(q) - kappa) / (4 lam) >= -kappa / (4 lam), with r the row means
    of the reference Gram and m(q) the mean of k(x_i, q); with no intercept
    and lam >= kappa/4 no margin exceeds 1, which is the optimality condition
    at the upper bound.
    """
    kappa = kernel.bound()
    return not intercept and kappa is not None and lam >= kappa / 4.0


def _kernel_means(spec: KernelSpec, reference: np.ndarray, queries: np.ndarray):
    """Row means r = K 1/n of the reference Gram K, and the kernel values
    between each query and the reference, in one pass over K's upper triangle.

    Reference rows [s, e) are evaluated against reference rows s: and the
    queries in one gram call.  Its row sums over the reference columns go to
    r[s:e], its column sums past the diagonal block to r[e:], and its query
    columns are the queries' kernel values on rows s:e.  A block holds about
    KERNEL_BLOCK_ENTRIES reference values, so the blocks, and with them the
    bits of r, depend on n alone, not on the queries.
    Returns (r, query kernel) with the query kernel of shape (m, n).
    """
    n = reference.shape[0]
    points = np.vstack([reference, queries])
    sums = np.zeros(n)
    query_kernel = np.empty((queries.shape[0], n))
    start = 0
    while start < n:
        stop = min(n, start + max(1, KERNEL_BLOCK_ENTRIES // (n - start)))
        block = gram(spec, reference[start:stop], points[start:])
        sums[start:stop] += block[:, : n - start].sum(axis=1)
        sums[stop:] += block[:, stop - start : n - start].sum(axis=0)
        query_kernel[:, start:stop] = block[:, n - start :].T
        start = stop
    return sums / n, query_kernel


def _closed_form_depths(
    row_means: np.ndarray,
    query_kernel: np.ndarray,
    lam: float,
    kappa: float,
    reporting: Reporting,
    tolerance: float,
) -> list:
    """Depth results of a block of queries with every dual variable at its box
    bound (see _closed_form_applies), from the reference row means and the
    block's (m, n) kernel values against the reference.

    The value is the weighted hinge loss of f(x_i) = (r_i - k(x_i, q))/(4 lam)
    and f(q) = (m(q) - kappa)/(4 lam), which is
    1 - (mean(K) + kappa)/(8 lam) + m(q)/(4 lam), an affine transform of the
    kernel mean m(q).  The residual is the KKT violation measured at the box,
    and the coefficients, one read-only box vector shared by the block, are
    alpha_i = 1/(4 n lam) and alpha_q = 1/(4 lam).
    """
    n = row_means.size
    scale = 4.0 * lam
    fvals = (row_means - query_kernel) / scale
    fquery = (query_kernel.mean(axis=1) - kappa) / scale
    positive = np.maximum(0.0, 1.0 - fvals).sum(axis=1)
    values = positive / (2.0 * n) + 0.5 * np.maximum(0.0, 1.0 + fquery)
    if reporting is Reporting.LOSS_PLUS_REG:
        # lam ||f||^2 = lam sum_k alpha_k y_k f(p_k) at alpha = box
        values += 0.25 * (fvals.mean(axis=1) - fquery)
    residuals = np.maximum(0.0, np.maximum(fvals.max(axis=1) - 1.0, -1.0 - fquery))
    box = np.append(np.full(n, 1.0 / (scale * n)), 1.0 / scale)
    box.setflags(write=False)
    return [
        DepthResult(
            value=float(value),
            iterations=0,
            residual=float(residual),
            converged=bool(residual <= tolerance),
            coefficients=box,
        )
        for value, residual in zip(values, residuals)
    ]


def _svm_closed_form(
    spec: KernelSpec,
    reference: np.ndarray,
    queries: np.ndarray,
    lam: float,
    reporting: Reporting,
    solver: SolverConfig | None,
) -> list:
    """Closed-form kernel depths of every query, one block at a time.

    The first block rides along the pass that computes the reference row
    means; every later one is a single gram call against the reference.
    Blocks hold about KERNEL_BLOCK_ENTRIES kernel values, and each query's
    value depends on its own row only, so a query gets the same bits alone
    or in any batch.
    """
    m, n = queries.shape[0], reference.shape[0]
    if m == 0:
        return []
    kappa = spec.bound()
    tolerance = (solver if solver is not None else SolverConfig()).tolerance
    size = max(1, KERNEL_BLOCK_ENTRIES // n)
    row_means, query_kernel = _kernel_means(spec, reference, queries[:size])
    results = _closed_form_depths(row_means, query_kernel, lam, kappa, reporting, tolerance)
    for start in range(size, m, size):
        query_kernel = gram(spec, queries[start : start + size], reference)
        results += _closed_form_depths(row_means, query_kernel, lam, kappa, reporting, tolerance)
    return results


def svm_depth(
    query,
    reference,
    lam: float = 1.0,
    *,
    kernel: KernelSpec,
    intercept: bool = False,
    reporting: Reporting = Reporting.LOSS_ONLY,
    solver: SolverConfig | None = None,
    reference_gram: np.ndarray | None = None,
) -> DepthResult:
    """Depth under the hinge loss with a kernel classifier.

    Solves the box-constrained dual and reports the weighted hinge loss of
    the recovered function (plus the penalty term when requested).  The hinge
    loss of the zero function is exactly 1, so no normalisation is applied.
    Coefficients are the n+1 dual variables, query last, with a trailing
    offset when intercept is on.  Where the dual solution is the box itself
    (_closed_form_applies) it is read off in closed form with 0 iterations,
    by the same code and to the same bits as in depth_batch; reference_gram
    is then unused.
    """
    problem = DepthProblem(
        reference=as_data_matrix(reference),
        query=as_query_point(query),
        loss=LossKind.HINGE,
        lam=lam,
        kernel=kernel,
        intercept=intercept,
        reporting=reporting,
    )
    if _closed_form_applies(kernel, lam, intercept):
        return _svm_closed_form(
            kernel, problem.reference.values, problem.query.coords[None, :], lam, reporting, solver
        )[0]
    alpha, diagnostics = svm_dual_solve(problem, solver, reference_gram)
    fvals = diagnostics.function_values
    n = problem.reference.n
    coefficients = np.append(alpha, diagnostics.offset) if intercept else alpha
    margins = fvals + diagnostics.offset
    positive = np.maximum(0.0, 1.0 - margins[:n])
    negative = float(max(0.0, 1.0 + margins[n]))
    value = weighted_expectation(positive, negative)
    if reporting is Reporting.LOSS_PLUS_REG:
        signed = np.append(alpha[:n], -alpha[n])  # y_k alpha_k: the query is labelled -1
        value += lam * float(signed @ fvals)
    return DepthResult(
        value=float(value),
        iterations=diagnostics.iterations,
        residual=diagnostics.residual,
        converged=diagnostics.converged,
        coefficients=coefficients,
    )


METHOD_HALFSPACE = "halfspace"
METHOD_LOGISTIC = "logistic"
METHOD_SVM = "svm"


@dataclass(frozen=True, eq=False)
class DepthBatchRequest:
    """Shared settings for scoring many queries against one reference."""

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
        queries = np.atleast_2d(np.asarray(self.queries, dtype=float))
        if queries.size == 0:
            queries = queries.reshape(0, self.reference.d)
        if queries.ndim != 2:
            raise ValidationError(f"queries must form a 2-d array, got shape {queries.shape}")
        if queries.shape[0] > 0 and queries.shape[1] != self.reference.d:
            raise ValidationError(
                f"dimension mismatch: reference has d={self.reference.d}, "
                f"queries have d={queries.shape[1]}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValidationError("queries contain non-finite entries")
        object.__setattr__(self, "queries", queries)
        if self.method not in (METHOD_HALFSPACE, METHOD_LOGISTIC, METHOD_SVM):
            raise ValidationError(f"unknown depth method {self.method!r}")
        if self.method == METHOD_SVM and self.kernel is None:
            raise ValidationError("svm depth requires a kernel")
        if self.method != METHOD_HALFSPACE and (violation := lambda_violation(self.lam)):
            raise ValidationError(violation)


@dataclass(eq=False)
class BatchResult:
    """Per-query results in request order; failed slots hold None and the
    failure message is recorded under the query index."""

    results: list
    errors: list

    @property
    def values(self) -> np.ndarray:
        if self.errors:
            raise ValidationError(
                f"{len(self.errors)} of {len(self.results)} queries failed; "
                f"first failure at index {self.errors[0][0]}: {self.errors[0][1]}"
            )
        return np.array([r.value for r in self.results])


def depth_batch(request: DepthBatchRequest) -> BatchResult:
    """Score every query in the request.

    The shared reference structures are built once here and only read by the
    queries.  For the kernel depth that is the reference Gram matrix,
    whenever there are queries and n is within the solver's dense limit.
    Errors are collected per query instead of aborting the batch; a halfspace
    mode that does not fit the dimension is recorded at every query.  The
    halfspace depth, the logistic depth and a kernel depth in closed form
    (_closed_form_applies) are scored block by block, by the same code as a
    single query; the iterative kernel depth runs one solve per query, in
    request order.
    """
    m = request.queries.shape[0]
    svm_intercept = False if request.intercept is None else request.intercept
    if request.method == METHOD_SVM and _closed_form_applies(
        request.kernel, request.lam, svm_intercept
    ):
        results = _svm_closed_form(
            request.kernel, request.reference.values, request.queries, request.lam,
            request.reporting, request.solver,
        )
        return BatchResult(results=results, errors=[])

    if request.method == METHOD_HALFSPACE:
        halfspace_cfg = request.halfspace
        if halfspace_cfg is None:
            halfspace_cfg = default_halfspace_config(request.reference.d)
        try:
            values = _halfspace_depths(request.reference.values, request.queries, halfspace_cfg)
        except ValidationError as exc:  # a mode that does not fit d fails every query
            return BatchResult(results=[None] * m, errors=[(i, str(exc)) for i in range(m)])
        results = [
            DepthResult(value=float(value), iterations=0, residual=0.0, converged=True)
            for value in values
        ]
        return BatchResult(results=results, errors=[])

    if request.method == METHOD_LOGISTIC:
        results = _logistic_depths(
            request.reference.values, request.queries, request.lam,
            True if request.intercept is None else request.intercept,
            request.reporting, request.normalize, request.solver,
        )
        return BatchResult(results=results, errors=[])

    reference_gram = None
    if m > 0 and request.reference.n <= solvers.DENSE_GRAM_LIMIT:
        reference_gram = gram(request.kernel, request.reference.values)
    results, errors = [], []
    for i, query in enumerate(request.queries):
        try:
            results.append(
                svm_depth(
                    query, request.reference, request.lam, kernel=request.kernel,
                    intercept=svm_intercept, reporting=request.reporting, solver=request.solver,
                    reference_gram=reference_gram,
                )
            )
        except Exception as exc:  # noqa: BLE001 - recorded per query
            results.append(None)
            errors.append((i, str(exc)))
    return BatchResult(results=results, errors=errors)
