"""Property tests of the kernel depth's dual solver against its certificates.

Each property draws small reference samples (with duplicate rows allowed) and
checks the greedy coordinate-ascent solver against an independent oracle: the
closed form where every dual variable sits at its box bound, a tight solve of
the same problem, or the same problem with its reference rows permuted.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lossdepth import solvers  # noqa: E402
from lossdepth.core import DataMatrix, DepthProblem, LossKind, QueryPoint, Reporting  # noqa: E402
from lossdepth.depths import svm_depth  # noqa: E402
from lossdepth.kernels import KernelSpec, gram  # noqa: E402
from lossdepth.solvers import SolverConfig, svm_dual_solve, svm_duality_gap  # noqa: E402

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
