"""Property tests of the depths against independent oracles.

The kernel depth's dual solver is checked on small reference samples (with
duplicate rows allowed) against the closed form where every dual variable
sits at its box bound, a tight solve of the same problem, or the same problem
with its reference rows permuted or moved by a rotation and a translation.
The exact 2-d halfspace depth is checked against an enumeration in integer
arithmetic on collinear, antipodal and duplicated integer point sets, and
under integer affine maps; its compiled passes give the numpy sweep's counts
on the same sets with signed zeros and coordinates near 1e+-300, in every
block of a batch.  The logistic depth of a query has the same bits
alone and in any batch, and its strong-convexity certificate bounds its
error against a tight solve, also where the budget stops it early; seeded
examples pin both Hessian paths, at the pair-product crossover D and one
above it.  A pinned
example shows that the logistic depth with a penalised intercept is not
translation invariant.  An iterative kernel depth has the same bits alone
and in any batch, with the reference Gram held densely or read column by
column, and a kernel's diagonal has the bits of its Gram's.  On generated
CSV text, the bulk reader gives the cell loop's values, labels and error
messages.  On generated report rows, the CSV report has the bytes of
csv.writer over the cell rules written out here, and the JSON report reads
back as the cells' values, or refuses a non-finite one.  A `depth` command
line over extreme cells, every method, kernel and solve flag exits 0 with
finite depths, converged ones in [0, 1], or 2 with one error line.
"""
import contextlib
import csv
import json
import random
import warnings
from io import StringIO

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist
from scipy.special import expit

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lossdepth import cli, depths, io, native, solvers  # noqa: E402
from lossdepth.core import (  # noqa: E402
    LOG2,
    Reporting,
    ValidationError,
    weighted_expectation,
)
from lossdepth.depths import (  # noqa: E402
    DepthBatchRequest,
    depth_batch,
    halfspace_depth,
    logistic_depth,
    svm_depth,
)
from lossdepth.kernels import KernelSpec, gram, pair_distances  # noqa: E402
from lossdepth.solvers import SolverConfig, svm_dual_solves, svm_duality_gap  # noqa: E402
from test_depths import _results, _same_result, integer_halfspace_2d  # noqa: E402

COORDINATE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def samples(draw, max_n=25):
    """(reference, query): up to max_n reference rows in d = 1..3."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, max_n))
    reference = draw(hnp.arrays(float, (n, d), elements=COORDINATE))
    query = draw(hnp.arrays(float, (d,), elements=COORDINATE))
    return reference, query


@settings(max_examples=100)
@given(st.integers(1, 8), st.integers(1, 600), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_a_batched_weighted_expectation_has_the_bits_of_its_rows(m, n, pad, seed):
    # every depth's value is this risk over (m, n) rows of losses, the dual
    # path's a strided view of an (m, n + 1) array
    rng = np.random.default_rng(seed)
    losses = rng.exponential(size=(m, n + pad)) * 10.0 ** rng.uniform(-3.0, 3.0)
    positive, negative = losses[:, :n], rng.exponential(size=m)
    batch = weighted_expectation(positive, negative)
    rows = [weighted_expectation(positive[i], negative[i]) for i in range(m)]
    assert all(type(row) is float for row in rows)
    assert batch.shape == (m,) and batch.tobytes() == np.array(rows).tobytes()


BOUNDED_KERNELS = st.one_of(
    st.floats(0.1, 3.0).map(KernelSpec.gaussian),
    st.floats(0.3, 3.0).map(KernelSpec.laplacian),
    st.tuples(st.floats(0.5, 2.0), st.floats(-1.5, -0.25)).map(lambda cb: KernelSpec.imq(*cb)),
)


def _problem(reference, query, lam, kernel):
    """svm_dual_solves' arguments for one query without an intercept, as plain arrays."""
    return kernel, reference, np.reshape(query, (1, -1)), lam, False


def _labels(n):
    return np.append(np.ones(n), -1.0)


def _dual_depth(alpha, fvals, lam, reporting):
    """The depth svm_depth reports at a dual point: the weighted hinge loss of
    f, plus lam ||f||^2 under loss+reg."""
    labels = _labels(alpha.size - 1)
    hinge = np.maximum(0.0, 1.0 - labels * fvals)
    value = float(hinge[:-1].mean()) / 2.0 + 0.5 * float(hinge[-1])
    if reporting is Reporting.LOSS_PLUS_REG:
        value += lam * float((alpha * labels) @ fvals)
    return value


@settings(max_examples=60)
@given(samples(), BOUNDED_KERNELS, st.floats(0.0, 3.0), st.sampled_from(list(Reporting)))
def test_greedy_matches_the_closed_form_at_and_above_a_quarter_kappa(
    sample, kernel, excess, reporting
):
    reference, query = sample
    lam = kernel.bound() / 4.0 + excess
    (alpha,), (fvals,), _, _, _, (converged,) = svm_dual_solves(
        *_problem(reference, query, lam, kernel), SolverConfig(tolerance=1e-12)
    )
    assert converged
    closed = svm_depth(query, reference, lam, kernel=kernel, reporting=reporting)
    assert closed.iterations == 0
    greedy = _dual_depth(alpha, fvals, lam, reporting)
    assert abs(greedy - closed.value) <= 1e-10


SMALL_LAMBDA = st.floats(0.01, 0.24)
GAUSSIAN = st.floats(0.2, 3.0).map(KernelSpec.gaussian)


@settings(max_examples=40)
@given(samples(), GAUSSIAN, SMALL_LAMBDA)
def test_reported_objective_exceeds_a_tight_solve_by_at_most_the_gap(sample, kernel, lam):
    reference, query = sample
    reported = svm_depth(query, reference, lam, kernel=kernel,
                         reporting=Reporting.LOSS_PLUS_REG)
    tight = svm_depth(query, reference, lam, kernel=kernel, reporting=Reporting.LOSS_PLUS_REG,
                      solver=SolverConfig(tolerance=1e-13))
    assert reported.converged and tight.converged
    (alpha,), (fvals,), *_ = svm_dual_solves(*_problem(reference, query, lam, kernel))
    gap = svm_duality_gap(alpha, _labels(reference.shape[0]), fvals, lam)
    # both values are primal objectives, so each sits at or above the optimum;
    # 1e-12 absorbs the rounding of evaluating them
    assert -1e-12 <= reported.value - tight.value <= gap + 1e-12


@settings(max_examples=40)
@given(samples(), GAUSSIAN, SMALL_LAMBDA, st.randoms(use_true_random=False))
def test_permuting_the_reference_moves_the_depth_within_the_gaps(sample, kernel, lam, random):
    reference, query = sample
    order = list(range(reference.shape[0]))
    random.shuffle(order)
    labels = _labels(reference.shape[0])
    values, gaps = [], []
    for rows in (reference, reference[order]):
        (alpha,), (fvals,), *_ = svm_dual_solves(*_problem(rows, query, lam, kernel))
        values.append(_dual_depth(alpha, fvals, lam, Reporting.LOSS_PLUS_REG))
        gaps.append(svm_duality_gap(alpha, labels, fvals, lam))
    assert abs(values[0] - values[1]) <= max(gaps) + 1e-12


@st.composite
def rigid_motions(draw, d):
    """(rotation, shift): a d x d rotation drawn as the orthogonal factor of a
    seeded Gaussian matrix, its determinant made +1, and a translation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if np.linalg.det(rotation) < 0.0:
        rotation[:, 0] = -rotation[:, 0]
    shift = draw(hnp.arrays(float, (d,), elements=COORDINATE))
    return rotation, shift


@settings(max_examples=60)
@given(samples(), GAUSSIAN, st.floats(0.0, 3.0), st.sampled_from(list(Reporting)), st.data())
def test_closed_form_svm_depth_is_invariant_under_rigid_motions(
    sample, kernel, excess, reporting, data
):
    reference, query = sample
    rotation, shift = data.draw(rigid_motions(reference.shape[1]))
    lam = 0.25 + excess  # a Gaussian kernel has kappa = 1
    before = svm_depth(query, reference, lam, kernel=kernel, reporting=reporting)
    after = svm_depth(rotation @ query + shift, reference @ rotation.T + shift, lam,
                      kernel=kernel, reporting=reporting)
    assert before.iterations == after.iterations == 0
    assert abs(before.value - after.value) <= 1e-12


@settings(max_examples=40)
@given(samples(), GAUSSIAN, SMALL_LAMBDA, st.data())
def test_rigid_motions_move_the_iterative_svm_depth_within_the_gaps(sample, kernel, lam, data):
    reference, query = sample
    rotation, shift = data.draw(rigid_motions(reference.shape[1]))
    labels = _labels(reference.shape[0])
    moved = (reference @ rotation.T + shift, rotation @ query + shift)
    values, gaps = [], []
    for rows, point in ((reference, query), moved):
        values.append(svm_depth(point, rows, lam, kernel=kernel,
                                reporting=Reporting.LOSS_PLUS_REG).value)
        (alpha,), (fvals,), *_ = svm_dual_solves(*_problem(rows, point, lam, kernel))
        gaps.append(svm_duality_gap(alpha, labels, fvals, lam))
    # both values are primal objectives of problems with one optimum
    assert abs(values[0] - values[1]) <= sum(gaps) + 1e-12


def test_penalised_intercept_logistic_depth_is_not_translation_invariant():
    # the intercept is penalised like a weight, so moving the data away from
    # the origin makes separating the query dearer and pulls its depth to 1
    reference = np.arange(10.0)[:, None]
    query = np.array([2.0])
    shift = 10.0
    before = logistic_depth(query, reference, 0.1)
    after = logistic_depth(query + shift, reference + shift, 0.1)
    assert before.converged and after.converged
    assert before.value == pytest.approx(0.858825274580, abs=1e-9)
    assert after.value == pytest.approx(0.979670796257, abs=1e-9)
    assert after.value - before.value > 0.1


@st.composite
def logistic_batches(draw):
    """(reference, queries): a drawn sample and 1-6 queries, spread past the
    reference so that the Newton step counts differ within a batch."""
    reference, query = draw(samples())
    others = draw(hnp.arrays(float, (draw(st.integers(0, 5)), query.size),
                             elements=st.floats(-6.0, 6.0, width=64)))
    return reference, np.vstack([query, others])


LOGISTIC_LAMBDA = st.floats(1e-3, 3.0)

# samples() stays in d <= 3, where every Hessian comes from pair products:
# with d = PAIR_HESSIAN_MAX_DIM, D sits at the crossover without an intercept
# and one above it, on the stacked product, with one
WIDE_BATCH = (
    np.random.default_rng(17).standard_normal((25, solvers.PAIR_HESSIAN_MAX_DIM)),
    np.random.default_rng(18).uniform(-6.0, 6.0, (6, solvers.PAIR_HESSIAN_MAX_DIM)),
)


@settings(max_examples=60)
@given(logistic_batches(), LOGISTIC_LAMBDA, st.booleans(), st.sampled_from(list(Reporting)),
       st.randoms(use_true_random=False))
@example(WIDE_BATCH, 0.05, False, Reporting.LOSS_ONLY, random.Random(0))
@example(WIDE_BATCH, 0.05, True, Reporting.LOSS_PLUS_REG, random.Random(1))
def test_a_logistic_result_has_the_same_bits_alone_and_in_any_batch(
    batch, lam, intercept, reporting, random
):
    reference, queries = batch
    settings_ = dict(lam=lam, intercept=intercept, reporting=reporting)
    alone = [logistic_depth(q, reference, **settings_) for q in queries]

    def scored(rows):
        request = DepthBatchRequest(reference=reference, queries=rows, method="logistic",
                                    **settings_)
        return _results(depth_batch(request))

    order = list(range(queries.shape[0]))
    random.shuffle(order)
    permuted = [None] * len(order)
    for position, result in zip(order, scored(queries[order])):
        permuted[position] = result
    n, dim = reference.shape[0], queries.shape[1] + intercept
    with pytest.MonkeyPatch.context() as patch:  # two queries per Newton block
        patch.setattr(depths, "LOGISTIC_BLOCK_ENTRIES", 2 * dim * max(n, dim))
        blocked = scored(queries)
    for results in (scored(queries), permuted, blocked):
        assert all(_same_result(a, b) for a, b in zip(results, alone))


def _logistic_certificate(reference, query, weights, lam, intercept):
    """G ||grad f(w)|| / (2 lam) / log 2, recomputed with numpy: the objective
    is 2 lam strongly convex, so ||w - w*|| <= ||grad f(w)|| / (2 lam), and the
    weighted log-loss is G-Lipschitz in w with G = (mean ||x_i|| + ||q||) / 2
    over the augmented rows."""
    rows = np.hstack([reference, np.ones((reference.shape[0], 1))]) if intercept else reference
    point = np.append(query, 1.0) if intercept else query
    n = rows.shape[0]
    grad = (-(rows.T @ expit(-(rows @ weights))) / (2.0 * n)
            + 0.5 * expit(point @ weights) * point + 2.0 * lam * weights)
    lipschitz = 0.5 * (float(np.linalg.norm(rows, axis=1).mean()) + float(np.linalg.norm(point)))
    return lipschitz * float(np.linalg.norm(grad)) / (2.0 * lam) / LOG2


MIXED_BLOCK = (  # the first query converges in 3 steps, the second needs 7
    np.array([[-1.0, 0.5], [0.5, -1.5], [1.5, 1.0], [-0.5, -0.5], [0.0, 2.0], [2.0, -0.5]]),
    np.array([[0.25, 0.25], [6.0, -6.0]]),
)


@settings(max_examples=60)
@given(logistic_batches(), LOGISTIC_LAMBDA, st.booleans(), st.integers(1, 6))
@example(MIXED_BLOCK, 0.01, True, 3)
@example(WIDE_BATCH, 0.01, False, 2)
@example(WIDE_BATCH, 0.01, True, 2)
def test_the_logistic_certificate_bounds_the_error_against_a_tight_solve(
    batch, lam, intercept, budget
):
    reference, queries = batch
    solver = SolverConfig(max_iterations=budget)
    request = DepthBatchRequest(reference=reference, queries=queries, method="logistic", lam=lam,
                                intercept=intercept, solver=solver)
    results = _results(depth_batch(request))
    for query, result in zip(queries, results):
        tight = logistic_depth(query, reference, lam, intercept=intercept,
                               solver=SolverConfig(tolerance=1e-12, max_iterations=200))
        assert tight.converged
        bound = _logistic_certificate(reference, query, result.coefficients, lam, intercept)
        tight_bound = _logistic_certificate(reference, query, tight.coefficients, lam, intercept)
        # 1e-12 absorbs the rounding of evaluating the two losses
        assert abs(result.value - tight.value) <= bound + tight_bound + 1e-12
        # each query stops on its own: converged at tolerance, else on the budget
        assert result.converged == (result.residual <= solver.tolerance)
        assert result.converged or result.iterations == budget
    if batch is MIXED_BLOCK:
        near, far = results
        assert near.converged and near.iterations == 3
        assert not far.converged and far.iterations == 3


@settings(max_examples=40)
@given(samples(), GAUSSIAN, st.floats(0.01, 0.1))
def test_a_starved_solve_stops_after_one_pass_inside_the_box(sample, kernel, lam):
    reference, query = sample
    n = reference.shape[0]
    problem = _problem(reference, query, lam, kernel)
    updates = []

    def counting_gram(*args, **kwargs):
        updates.append(args)  # with no dense matrix each update reads one column
        return gram(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "DENSE_GRAM_LIMIT", 0)
        patch.setattr(solvers, "gram", counting_gram)
        (alpha,), _, _, (iterations,), (residual,), (converged,) = svm_dual_solves(
            *problem, SolverConfig(max_iterations=1, tolerance=1e-14)
        )
    assert len(updates) <= n + 1
    box = np.append(np.full(n, 1.0 / (4.0 * n * lam)), 1.0 / (4.0 * lam))
    assert np.all((alpha >= 0.0) & (alpha <= box))
    # the updates follow the same path under any budget, so the starved solve
    # is unconverged exactly when a longer one needs more than its one pass
    *_, (longer_iterations,), _, (longer_converged,) = svm_dual_solves(
        *problem, SolverConfig(max_iterations=2, tolerance=1e-14)
    )
    assert converged == (longer_converged and longer_iterations <= 1)
    assert converged or (iterations == 1 and residual > 1e-14)


ITERATIVE_KERNELS = st.sampled_from(
    [KernelSpec.gaussian(0.7), KernelSpec.laplacian(1.3), KernelSpec.imq(2.0, -0.5),
     KernelSpec.linear()]
)


@st.composite
def svm_batches(draw):
    """(reference, queries): up to 15 reference rows and 2-5 queries, drawn
    directly (round values and duplicates included) or from a seeded
    Gaussian, whose values round in every kernel product.  Some queries lie
    past the reference, so the solves within a batch take different paths."""
    reference, query = draw(samples(max_n=15))
    m, d = draw(st.integers(2, 5)), query.size
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.standard_normal(reference.shape), 2.0 * rng.standard_normal((m, d))
    others = draw(hnp.arrays(float, (m - 1, d), elements=st.floats(-4.0, 4.0, width=64)))
    return reference, np.vstack([query, others])


@settings(max_examples=60)
@given(svm_batches(), ITERATIVE_KERNELS, st.floats(0.04, 0.96), st.booleans(),
       st.sampled_from(list(Reporting)), st.booleans(), st.randoms(use_true_random=False))
def test_an_iterative_svm_result_has_the_same_bits_alone_and_in_any_batch(
    batch, kernel, fraction, intercept, reporting, lazy, random
):
    reference, queries = batch
    lam = fraction * (kernel.bound() or 1.0) / 4.0  # below kappa/4: no closed form
    settings_ = dict(lam=lam, intercept=intercept, reporting=reporting)
    order = list(range(queries.shape[0]))
    random.shuffle(order)
    with pytest.MonkeyPatch.context() as patch:
        if lazy:  # kernel columns on demand instead of the dense reference Gram
            patch.setattr(solvers, "DENSE_GRAM_LIMIT", 0)
        alone = [svm_depth(q, reference, kernel=kernel, **settings_) for q in queries]
        for rows in (list(range(len(order))), order):
            request = DepthBatchRequest(reference=reference, queries=queries[rows],
                                        method="svm", kernel=kernel, **settings_)
            results = _results(depth_batch(request))
            assert all(_same_result(result, alone[i]) for i, result in zip(rows, results))


@st.composite
def greedy_problems(draw):
    """(linear, start, lo, hi, diagonal, kernel matrix, config) of a
    no-intercept dual, built as svm_dual_solves builds it, on the dense
    bordered matrix of any kernel family below kappa/4.  Reference rows lie
    on a half-integer grid, so duplicates and zero rows are common (a zero
    row makes a linear kernel's coordinate degenerate, pinned at its bound),
    the query is sometimes a reference row, and the budget is sometimes one
    pass.  Every coordinate's first violation is 1, so the first update
    breaks an all-way tie."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    half = st.integers(-3, 3).map(lambda v: v / 2.0)
    reference = draw(hnp.arrays(float, (n, d), elements=half))
    if draw(st.booleans()):
        query = reference[draw(st.integers(0, n - 1))]
    else:
        query = draw(hnp.arrays(float, (d,), elements=COORDINATE))
    kernel = draw(ITERATIVE_KERNELS)
    lam = draw(st.floats(0.02, 0.96)) * (kernel.bound() or 1.0) / 4.0
    config = SolverConfig(max_iterations=draw(st.sampled_from((1, 2, 10_000))),
                          tolerance=draw(st.sampled_from((1e-12, 1e-8, 1e-3))))
    matrix = gram(kernel, np.vstack([reference, query]))
    labels = np.append(np.ones(n), -1.0)
    box = labels * np.append(np.full(n, 1.0 / (4.0 * n * lam)), 1.0 / (4.0 * lam))
    diagonal = np.diagonal(matrix)
    degenerate = diagonal <= 1e-15
    start = np.where(degenerate, box, 0.0)
    lo = np.where(degenerate, start, np.minimum(0.0, box))
    hi = np.where(degenerate, start, np.maximum(0.0, box))
    return labels, start, lo, hi, diagonal, matrix, config


@settings(max_examples=300)
@given(greedy_problems())
def test_the_compiled_greedy_loop_has_the_bits_of_the_numpy_loop(problem):
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    labels, start, lo, hi, diagonal, matrix, config = problem
    compiled_loop, ran = native.greedy_ascent, []

    def recorded(*args):
        ran.append(compiled_loop(*args))
        return ran[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "greedy_ascent", recorded)
        compiled, looped = (
            solvers._greedy_ascent(labels, start, lo, hi, np.zeros(labels.size), diagonal,
                                   column, config)
            for column in (matrix, matrix.__getitem__)
        )
    assert len(ran) == 1 and ran[0] is not None  # only the matrix ran compiled
    # u and the function values, then offset, iterations, residual and flag
    assert compiled[0].tobytes() == looped[0].tobytes()
    assert compiled[1].tobytes() == looped[1].tobytes()
    assert compiled[2:4] == looped[2:4] and compiled[5] == looped[5]
    assert np.float64(compiled[4]).tobytes() == np.float64(looped[4]).tobytes()


# coordinates that tie exactly, and magnitudes whose differences or squares
# overflow to inf
SPECIAL_COORDINATES = np.array([0.0, 1.0, -1.0, 2.0, 1e200, -1e200, 1e160, -3e154, 1.7e308,
                                -1.7e308])
# each family's parameter as gram passes it: -gamma, sigma or c^2
STEP_PARAMETERS = {
    "sqeuclidean": st.just(0.0),
    "gaussian": st.floats(1e-300, 1e300).map(lambda gamma: -gamma),
    "laplacian": st.floats(1e-300, 1e300),
    "imq": st.floats(1e-300, 1e300),
}


@st.composite
def distance_problems(draw):
    """(left, right or None, step, parameter): d = 1..40; 0-4 left rows and
    0-49 right rows, around every multiple of the 16 pairs one compiled tile
    sums; right may repeat left's rows; None asks for the packed triangle.
    The coordinates are seeded normals over six decades, with a drawn share
    of them replaced by SPECIAL_COORDINATES."""
    d, rows = draw(st.integers(1, 40)), draw(st.integers(0, 4))
    columns = None if draw(st.booleans()) else draw(st.integers(0, 49))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))

    def points(count):
        values = rng.standard_normal((count, d)) * 10.0 ** rng.integers(-3, 4, (count, d))
        special = rng.random((count, d)) < share
        values[special] = rng.choice(SPECIAL_COORDINATES, special.sum())
        return values

    left = points(rows)
    if columns is None:
        right = None
        if rows and draw(st.booleans()):
            left = np.vstack([left, left[:1]])  # a duplicate pair in the triangle
    else:
        right = points(columns)
        if rows and columns:
            copies = draw(st.lists(st.integers(0, columns - 1), max_size=3))
            right[copies] = left[0]  # duplicate rows: distance exactly 0
    step = draw(st.sampled_from(sorted(STEP_PARAMETERS)))
    return left, right, step, draw(STEP_PARAMETERS[step])


def _scipy_arguments(left, right, step, parameter):
    """scipy's cdist or pdist followed by the family's numpy step, as gram
    computed the kernel argument before the compiled pass."""
    metric = "cityblock" if step == "laplacian" else "sqeuclidean"
    out = pdist(left, metric) if right is None else cdist(left, right, metric)
    with np.errstate(over="ignore"):
        if step == "gaussian":
            out *= parameter
        elif step == "laplacian":
            out /= parameter
            np.negative(out, out=out)
        elif step == "imq":
            out += parameter
    return out


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(distance_problems())
@example((np.ones((1, 1)), np.ones((1, 1)), "gaussian", -1.0))
@example((np.ones((1, 1)), None, "sqeuclidean", 0.0))
@example((np.empty((0, 3)), np.ones((5, 3)), "imq", 1.0))
@example((np.ones((2, 3)), np.empty((0, 3)), "laplacian", 1.0))
@example((np.empty((0, 3)), None, "sqeuclidean", 0.0))
@example((np.array([[0.0]]), np.array([[1e154]]), "gaussian", -1e300))
@example((np.array([[0.0]]), np.array([[1e300]]), "laplacian", 1e-300))
def test_the_compiled_distance_pass_has_the_bits_of_scipy(problem):
    # and so does pair_distances without the library, silently
    if native._library() is None:
        pytest.skip("no C compiler: scipy is the only distance pass")
    left, right, step, parameter = problem
    expected = _scipy_arguments(left, right, step, parameter).tobytes()
    assert native.kernel_arguments(left, right, step, parameter).tobytes() == expected
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(native, "_library", lambda: None)
        warnings.simplefilter("error")
        assert pair_distances(left, right, step, parameter).tobytes() == expected


KERNELS = st.one_of(
    st.floats(1e-3, 1e3).map(KernelSpec.gaussian),
    st.floats(1e-3, 1e3).map(KernelSpec.laplacian),
    st.tuples(st.floats(0.1, 10.0), st.floats(-3.0, -0.05)).map(lambda cb: KernelSpec.imq(*cb)),
    st.just(KernelSpec.linear()),
)


@settings(max_examples=300)
@given(KERNELS, hnp.arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                           elements=COORDINATE))
@example(KernelSpec.imq(2.5, -0.7), np.zeros((1, 1)))
def test_a_kernel_diagonal_has_the_bits_of_the_gram_diagonal(spec, points):
    # the lazy dual reads the diagonal from spec.diagonal, the dense dual from
    # the Gram; they take the same steps only if the two agree to the bit
    assert spec.diagonal(points).tobytes() == np.diagonal(gram(spec, points)).tobytes()


INTEGER = st.integers(-6, 6)
INTEGER_PAIR = st.tuples(INTEGER, INTEGER)


@st.composite
def integer_point_sets(draw):
    """(points, query) on the integer lattice: scattered, antipodal about the
    query, collinear through it, or with repeats of the query and of rows."""
    z = np.array(draw(INTEGER_PAIR))
    steps = np.array(draw(st.lists(INTEGER_PAIR, min_size=1, max_size=8)))
    kind = draw(st.sampled_from(["scattered", "antipodal", "collinear", "duplicated"]))
    if kind == "scattered":
        points = steps
    elif kind == "antipodal":
        points = np.vstack([z + steps, z - steps])
    elif kind == "collinear":
        scales = np.array(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6)))
        points = z + scales[:, None] * steps[:1]
    else:
        repeats = draw(st.lists(st.integers(0, steps.shape[0] - 1), max_size=4))
        points = np.vstack([steps, steps[repeats], np.tile(z, (draw(st.integers(1, 3)), 1))])
    order = draw(st.permutations(range(points.shape[0])))
    return points[order], z


@settings(max_examples=300)
@given(integer_point_sets())
def test_exact_2d_halfspace_matches_integer_enumeration(point_set):
    points, z = point_set
    expected = integer_halfspace_2d(points, z)
    assert halfspace_depth(z.astype(float), points.astype(float)) == expected
    queries = np.vstack([z, points]).astype(float)  # a batch with the query first
    request = DepthBatchRequest(reference=points.astype(float), queries=queries,
                                method="halfspace")
    batch = depth_batch(request).values
    assert batch[0] == expected
    assert list(batch[1:]) == [integer_halfspace_2d(points, p) for p in points]


# scales of the integer sets: exact, and coordinates near 1e+-300, where the
# differences are rounded or overflow to inf
SWEEP_SCALES = st.sampled_from((1.0, 1e300, 5e306, 1e-300, 5e-324))


@st.composite
def sweep_problems(draw):
    """(points, queries), float (n, 2) and (m, 2): an integer point set times
    a drawn scale, with some zeros written as -0.0, and as queries its own
    query, some of its rows and some lattice points; m may be 0."""
    points, z = draw(integer_point_sets())
    scale = draw(SWEEP_SCALES)
    rows = draw(st.lists(st.integers(0, points.shape[0] - 1), max_size=3))
    lattice = np.array(draw(st.lists(INTEGER_PAIR, max_size=3)), dtype=float).reshape(-1, 2)
    queries = np.vstack([z, points[rows], lattice])[: draw(st.integers(0, 7))] * scale
    points = points * scale
    for array in (points, queries):
        signed = draw(hnp.arrays(bool, array.shape))
        array[signed & (array == 0.0)] = -0.0
    return points, queries


def _numpy_sweep(points, queries):
    """depths._halfspace_sweep_2d's counts of the queries against points."""
    with np.errstate(over="ignore"):
        return depths._halfspace_sweep_2d(points[:, 0] - queries[:, 0:1],
                                          points[:, 1] - queries[:, 1:2])


@settings(max_examples=400)
@given(sweep_problems())
@example((np.array([[1.0, -0.0]]), np.array([[-0.0, 0.0], [1.0, 0.0], [2.0, -0.0]])))
@example((np.array([[-1.7e308, 1.7e308], [1.7e308, -0.0]]), np.array([[1.7e308, -1.7e308]])))
@example((np.array([[0.0, 0.0]]), np.empty((0, 2))))
def test_the_compiled_sweep_has_the_counts_of_the_numpy_sweep(problem):
    if native._library() is None:
        pytest.skip("no C compiler: the numpy sweep is the only one")
    points, queries = problem
    counts = native.halfspace_counts(np.ascontiguousarray(points.T), queries)
    assert counts.dtype == np.int64
    assert counts.tobytes() == _numpy_sweep(points, queries).tobytes()


@settings(max_examples=100)
@given(sweep_problems(), st.integers(1, 3))
@example((np.array([[-1.7e308, 1.7e308], [1.7e308, -0.0]]), np.array([[1.7e308, -1.7e308]])), 1)
def test_the_compiled_sweep_gives_every_block_the_bits_of_the_numpy_sweep(problem, size):
    # size queries per block, so blocks end inside the batch; every block
    # runs compiled, and a process without the library gets the same bits
    if native._library() is None:
        pytest.skip("no C compiler: the numpy sweep is the only one")
    points, queries = problem
    request = DepthBatchRequest(reference=points, queries=queries, method="halfspace")
    compiled_counts, ran = native.halfspace_counts, []

    def recorded(*args):
        ran.append(compiled_counts(*args))
        return ran[-1]

    with pytest.MonkeyPatch.context() as patch:  # an overflow warning is an error here
        patch.setattr(depths, "HALFSPACE_BLOCK_PAIRS", size * points.shape[0])
        patch.setattr(native, "halfspace_counts", recorded)
        compiled = depth_batch(request).values
        patch.setattr(native, "_library", lambda: None)
        looped = depth_batch(request).values
    blocks = max(1, -(-queries.shape[0] // size))
    assert len(ran) == 2 * blocks
    assert all(counts is not None for counts in ran[:blocks])
    assert all(counts is None for counts in ran[blocks:])
    assert compiled.tobytes() == looped.tobytes()
    assert compiled.tobytes() == (_numpy_sweep(points, queries) / points.shape[0]).tobytes()


NONSINGULAR_MAPS = st.tuples(INTEGER, INTEGER, INTEGER, INTEGER).filter(
    lambda a: a[0] * a[3] != a[1] * a[2]
).map(lambda a: np.array(a).reshape(2, 2))


@settings(max_examples=200)
@given(integer_point_sets(), NONSINGULAR_MAPS, INTEGER_PAIR)
def test_exact_2d_halfspace_is_invariant_under_integer_affine_maps(point_set, linear, shift):
    points, z = point_set
    # integer images of small integers are exact in floating point
    moved_points = (points @ linear.T + shift).astype(float)
    moved_query = (linear @ z + shift).astype(float)
    assert halfspace_depth(moved_query, moved_points) == integer_halfspace_2d(points, z)


NUMBER_CELLS = st.one_of(
    st.floats(width=64).map(lambda v: format(v, ".17g")),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-inf", "inf", "1_0", "+.5e-3", "-0", "1e400", "\u0661\u0662"]),
)
LABEL_CELLS = st.sampled_from(["0", "1", "1.0", "-0", "0e5"])
ODD_CELLS = st.sampled_from(["", "0x1p3", "oops", "1__0", "1,5", "1\n", "--1", '"2"', "1 2"])
HEADER_NAMES = st.sampled_from(["a", "b", "lab", " lab ", "x y", "0", "1"])
# float() strips the Unicode spaces but not \x1c-\x1f, which str.strip() removes
PADDINGS = st.sampled_from([" \t", " \t\x0b\x0c\u00a0\u2003\u3000", " \x1c\x1f"])


def _csv_cell(draw, body: str, padding: str) -> str:
    cell = draw(st.text(padding, max_size=2)) + body + draw(st.text(padding, max_size=2))
    if draw(st.booleans()) or any(c in cell for c in ',"\r\n'):
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_files(draw):
    """(text, has_header, label_column): mostly regular numeric CSV text, with
    blank and all-blank rows, quoting, mixed line ends and padding, and now
    and then a leading byte-order mark, a ragged row, an odd cell or a label
    other than 0 and 1."""
    width = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    label_column = draw(st.one_of(
        st.none(),
        st.integers(-1, width),
        HEADER_NAMES if has_header else st.none(),
    ))
    label_index = label_column if isinstance(label_column, int) else draw(st.integers(0, width - 1))
    irregular = draw(st.integers(0, 3)) == 0
    padding = draw(PADDINGS)

    def row_width():
        return width + draw(st.integers(-1, 1)) if irregular and draw(st.booleans()) else width

    def blank_row():
        cells = draw(st.integers(1, width + 1))
        return ",".join(draw(st.text(padding, max_size=2)) for _ in range(cells))

    rows = []
    if has_header:
        if draw(st.integers(0, 3)) == 0:
            rows.append(draw(st.sampled_from(["", blank_row()])))
        names = draw(st.sampled_from([HEADER_NAMES, LABEL_CELLS]))  # a numeric header reads as data
        rows.append(",".join(_csv_cell(draw, draw(names), padding) for _ in range(row_width())))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["data"] * 6 + ["empty", "blank"]))
        if kind == "empty":
            rows.append("")
        elif kind == "blank":
            rows.append(blank_row())
        else:
            cells = []
            for j in range(row_width()):
                strategy = LABEL_CELLS if j == label_index else NUMBER_CELLS
                if irregular and draw(st.integers(0, 4)) == 0:
                    strategy = ODD_CELLS
                cells.append(_csv_cell(draw, draw(strategy), padding))
            rows.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in rows]
    text = "".join(row + end for row, end in zip(rows, ends))
    if rows and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    if draw(st.integers(0, 7)) == 0:
        text = "\ufeff" + text  # the UTF-8 byte-order mark of a spreadsheet export
    return text, has_header, label_column


def _read_outcome(read, path, has_header, label_column):
    try:
        data = read(path, has_header, label_column)
    except ValidationError as error:
        return str(error)
    labels = None if data.labels is None else data.labels.tobytes()
    return data.features.shape, data.features.tobytes(), labels


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
@example(("1,2\r\n\r\n , \r3,4", False, None))
@example(("\n , \n0,1\n2,3\n", True, None))
@example(('" , "\n"a", b\n"1",2\n', True, "b"))
@example(("x,lab\n1,0\n2,2\n", True, "lab"))
@example(("1,2\n3,4,5\n", False, None))
@example(("1,0x1p3\n", False, None))
@example((" +.5e-3 ,1_0\nnan,inf", False, 1))
@example(("\ufefflab,x\n0,1\n1,2\n", True, "lab"))
@example(("1_0,2\n", False, None))
@example(("\u0661,2\n", False, None))
@example(("-nan,1\n-0,nan\n", False, None))
@example(("1e999,-1e999\n", False, None))
@example(("\u00a01\u00a0,\u20032\u2003\n\u00a0\u20033,4\u00a0\n", False, None))
@example(('"a\r\nb",lab\n1,0\n2,1\n', True, "lab"))
@example(("1,2\n \t\n3,4\n", False, None))
@example(("1,2\n,\n3,4\n", False, None))
@example(("1,2\r3,4\r", False, None))
@example(("a,b\n", True, None))
def test_bulk_csv_reader_matches_the_cell_loop(tmp_path, csv_file):
    text, has_header, label_column = csv_file
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as out:
        out.write(text)
    assert _read_outcome(io.read_csv, path, has_header, label_column) == _read_outcome(
        io._read_cells, path, has_header, label_column
    )


REPORT_CELLS = st.one_of(
    st.floats(width=64),
    st.floats(width=64).map(np.float64),
    st.sampled_from([-0.0, np.float64(-0.0), float("nan"), np.float64("nan")]),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(st.sampled_from('ab ,"\n\r')),
)


REPORT_TABLES = st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.lists(REPORT_CELLS, min_size=width, max_size=width), max_size=8)
))


def _cell_rule(value) -> str:
    """The report cell rules, written out."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return value


@settings(max_examples=300)
@given(REPORT_TABLES)
def test_report_csv_cells_match_the_writer_over_the_cell_rules(table_shape):
    width, rows = table_shape
    table = io.ReportTable("t", [f"c{j}" for j in range(width)], rows)
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for row in rows:
        writer.writerow([_cell_rule(c) for c in row])
    assert io.table_to_csv(table) == buffer.getvalue()


def _json_cell_is(item, value) -> bool:
    """Whether a cell read back from a json report carries the value."""
    if value is None or isinstance(value, str):
        return item == value
    if isinstance(value, (bool, np.bool_)):
        return item is bool(value)
    if isinstance(value, (int, np.integer)):
        return type(item) is int and item == int(value)
    return float(item) == value  # a negative zero reads back as 0


@settings(max_examples=300)
@given(REPORT_TABLES)
def test_report_json_cells_read_back_as_their_values(table_shape):
    width, rows = table_shape
    table = io.ReportTable("t", [f"c{j}" for j in range(width)], rows)
    report = io.ExperimentReport("r", {"seed": 0}, [table])
    floats = [c for row in rows for c in row if isinstance(c, (float, np.floating))]
    if not all(np.isfinite(floats)):
        with pytest.raises(ValidationError, match="non-finite"):
            io.report_to_json(report)
        return
    read = json.loads(io.report_to_json(report))["tables"][0]["rows"]
    assert len(read) == len(rows)
    for row, items in zip(rows, read):
        assert all(map(_json_cell_is, items, row)), (row, items)


EXTREME_CELLS = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324])
SCALES = st.floats(-300.0, 300.0).map(lambda e: repr(10.0 ** e))  # 1e-300 to 1e300


@st.composite
def depth_commands(draw):
    """(reference, queries, options) of a `depth` run: up to 12 reference
    rows in d = 1..4 of extreme cells, or one row repeated, every method and
    kernel, lambda and the kernel parameters from -1e300 to 1e300, and each
    flag that changes what a depth solve does or reports.  Each value is
    drawn after its option or joined to it by '='."""
    d = draw(st.integers(1, 4))
    reference = draw(hnp.arrays(float, (draw(st.integers(1, 12)), d), elements=EXTREME_CELLS))
    if draw(st.booleans()):
        reference[:] = reference[0]
    queries = draw(hnp.arrays(float, (draw(st.integers(1, 3)), d), elements=EXTREME_CELLS))
    signed = st.tuples(st.sampled_from(["", "-"]), SCALES).map("".join)

    def option(flag, values):
        value = draw(values)
        return draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))

    options = [*option("--method", st.sampled_from(["halfspace", "lr", "svm"])),
               *option("--lambda", signed),
               *option("--kernel", st.sampled_from(["gaussian", "laplacian", "imq", "linear"])),
               *option("--reporting", st.sampled_from(["loss", "loss+reg"]))]
    for flag, values in (
        ("--gamma", signed), ("--sigma", signed), ("--imq-c", signed),
        ("--imq-beta", SCALES.map(lambda scale: "-" + scale)),
        ("--directions", st.integers(1, 8).map(str)),
        ("--max-iterations", st.integers(1, 100).map(str)),
    ):
        if draw(st.booleans()):
            options += option(flag, values)
    options += draw(st.sampled_from([[], ["--intercept"], ["--no-intercept"]]))
    options += draw(st.sampled_from([[], ["--coefficients"]]))
    return reference, queries, options


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(depth_commands())
@example((np.full((6, 1), 2.5), np.full((1, 1), 2.5), ["--method", "svm", "--kernel", "linear"]))
def test_a_depth_run_exits_cleanly_with_finite_depths(tmp_path, command):
    # every run reports finite depths, and a converged one in [0, 1], or
    # exits 2 with one error line; a numpy warning fails the test.  In the
    # example every point is equal, and before, the rounding of margins near
    # 0 gave a converged depth of 1 + 2^-52
    reference, queries, options = command
    paths = []
    for name, rows in (("ref.csv", reference), ("q.csv", queries)):
        path = tmp_path / name
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        paths.append(str(path))
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["depth", *paths, *options])
    if code == cli.EXIT_INVALID:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    assert code == cli.EXIT_OK and err.getvalue() == ""
    rows = list(csv.reader(out.getvalue().splitlines()[1 : 1 + queries.shape[0]]))
    values = np.array([float(row[1]) for row in rows])
    converged = np.array([row[2] == "true" for row in rows])
    assert np.all(np.isfinite(values)), rows
    assert np.all((values[converged] >= 0.0) & (values[converged] <= 1.0)), rows
