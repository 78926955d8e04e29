"""Property tests of the depths against independent oracles.

The kernel depth's dual solver is checked on small reference samples (with
duplicate rows allowed) against the closed form where every dual variable
sits at its box bound, a tight solve of the same problem, or the same problem
with its reference rows permuted or moved by a rotation and a translation.
The exact 2-d halfspace depth is checked against an enumeration in integer
arithmetic on collinear, antipodal and duplicated integer point sets, and
under integer affine maps.  The logistic depth of a query has the same bits
alone and in any batch, and its strong-convexity certificate bounds its
error against a tight solve, also where the budget stops it early.  A pinned
example shows that the logistic depth with a penalised intercept is not
translation invariant.
"""
import numpy as np
import pytest
from scipy.special import expit

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lossdepth import depths, solvers  # noqa: E402
from lossdepth.core import (  # noqa: E402
    LOG2,
    DataMatrix,
    DepthProblem,
    LossKind,
    QueryPoint,
    Reporting,
)
from lossdepth.depths import (  # noqa: E402
    DepthBatchRequest,
    depth_batch,
    halfspace_depth,
    logistic_depth,
    svm_depth,
)
from lossdepth.kernels import KernelSpec, gram  # noqa: E402
from lossdepth.solvers import SolverConfig, svm_dual_solve, svm_duality_gap  # noqa: E402
from test_depths import _same_logistic_result, integer_halfspace_2d  # noqa: E402

COORDINATE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def samples(draw, max_n=25):
    """(reference, query): up to max_n reference rows in d = 1..3."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, max_n))
    reference = draw(hnp.arrays(float, (n, d), elements=COORDINATE))
    query = draw(hnp.arrays(float, (d,), elements=COORDINATE))
    return reference, query


BOUNDED_KERNELS = st.one_of(
    st.floats(0.1, 3.0).map(KernelSpec.gaussian),
    st.floats(0.3, 3.0).map(KernelSpec.laplacian),
    st.tuples(st.floats(0.5, 2.0), st.floats(-1.5, -0.25)).map(lambda cb: KernelSpec.imq(*cb)),
)


def _problem(reference, query, lam, kernel):
    return DepthProblem(reference=DataMatrix(reference), query=QueryPoint(query),
                        loss=LossKind.HINGE, lam=lam, kernel=kernel, intercept=False)


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
    alpha, diagnostics = svm_dual_solve(_problem(reference, query, lam, kernel),
                                        SolverConfig(tolerance=1e-12))
    assert diagnostics.converged
    closed = svm_depth(query, reference, lam, kernel=kernel, reporting=reporting)
    assert closed.iterations == 0
    greedy = _dual_depth(alpha, diagnostics.function_values, lam, reporting)
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
    alpha, diagnostics = svm_dual_solve(_problem(reference, query, lam, kernel))
    gap = svm_duality_gap(alpha, _labels(reference.shape[0]), diagnostics.function_values, lam)
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
        alpha, diagnostics = svm_dual_solve(_problem(rows, query, lam, kernel))
        fvals = diagnostics.function_values
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
        alpha, diagnostics = svm_dual_solve(_problem(rows, point, lam, kernel))
        gaps.append(svm_duality_gap(alpha, labels, diagnostics.function_values, lam))
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


@settings(max_examples=60)
@given(logistic_batches(), LOGISTIC_LAMBDA, st.booleans(), st.sampled_from(list(Reporting)),
       st.randoms(use_true_random=False))
def test_a_logistic_result_has_the_same_bits_alone_and_in_any_batch(
    batch, lam, intercept, reporting, random
):
    reference, queries = batch
    settings_ = dict(lam=lam, intercept=intercept, reporting=reporting)
    alone = [logistic_depth(q, reference, **settings_) for q in queries]

    def scored(rows):
        request = DepthBatchRequest(reference=reference, queries=rows, method="logistic",
                                    **settings_)
        return depth_batch(request).results

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
        assert all(_same_logistic_result(a, b) for a, b in zip(results, alone))


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
def test_the_logistic_certificate_bounds_the_error_against_a_tight_solve(
    batch, lam, intercept, budget
):
    reference, queries = batch
    solver = SolverConfig(max_iterations=budget)
    request = DepthBatchRequest(reference=reference, queries=queries, method="logistic", lam=lam,
                                intercept=intercept, solver=solver)
    results = depth_batch(request).results
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

    def counting_gram(*args):
        updates.append(args)  # with no dense matrix each update reads one column
        return gram(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "DENSE_GRAM_LIMIT", 0)
        patch.setattr(solvers, "gram", counting_gram)
        alpha, starved = svm_dual_solve(problem, SolverConfig(max_iterations=1, tolerance=1e-14))
    assert len(updates) <= n + 1
    box = np.append(np.full(n, 1.0 / (4.0 * n * lam)), 1.0 / (4.0 * lam))
    assert np.all((alpha >= 0.0) & (alpha <= box))
    # the updates follow the same path under any budget, so the starved solve
    # is unconverged exactly when a longer one needs more than its one pass
    _, longer = svm_dual_solve(problem, SolverConfig(max_iterations=2, tolerance=1e-14))
    assert starved.converged == (longer.converged and longer.iterations <= 1)
    assert starved.converged or (starved.iterations == 1 and starved.residual > 1e-14)


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
