"""Self-tests of the benchmark's correctness oracles.

Each oracle must accept the program's answer and reject a deliberately wrong
one, so that no check passes vacuously.  Run with

    python3 -m pytest perfbench/test_oracles.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from lossdepth.depths import halfspace_depth, logistic_depth, svm_depth  # noqa: E402
from lossdepth.kernels import KernelSpec, median_heuristic  # noqa: E402
from lossdepth.solvers import SolverConfig  # noqa: E402

QUERIES = [np.array(q) for q in ((0.0, 0.0), (0.8, -0.3), (-1.4, 1.1), (2.5, 1.0))]


@pytest.fixture(scope="module")
def reference():
    return np.random.default_rng(7).standard_normal((150, 2))


@pytest.mark.parametrize("query", QUERIES)
def test_halfspace_oracle_rejects_a_depth_off_by_one_over_n(reference, query):
    n = reference.shape[0]
    depth = halfspace_depth(query, reference)
    assert oracles.check_halfspace(reference, query, depth) is None
    assert oracles.check_halfspace(reference, query, depth + 1.0 / n) is not None
    if depth >= 1.0 / n:
        assert oracles.check_halfspace(reference, query, depth - 1.0 / n) is not None


def test_halfspace_oracle_rejects_a_depth_that_is_no_count_or_above_one_half(reference):
    query = QUERIES[0]
    depth = halfspace_depth(query, reference)
    assert oracles.check_halfspace(reference, query, depth + 0.3 / reference.shape[0]) is not None
    assert oracles.check_halfspace(reference, query, 76 / 150) is not None


def test_halfspace_enumeration_counts_copies_of_the_query():
    reference = np.array([[0.0, 0.0], [1.0, 0.2], [-1.0, 0.3], [0.1, -1.0], [0.0, 0.0]])
    query = np.array([0.0, 0.0])
    assert oracles.halfspace_count(reference, query) == round(
        halfspace_depth(query, reference) * reference.shape[0]
    )


@pytest.mark.parametrize("query", QUERIES)
def test_logistic_oracle_rejects_scaled_coefficients_and_a_shifted_depth(reference, query):
    lam, accuracy = 0.5, 1e-6
    result = logistic_depth(query, reference, lam, solver=SolverConfig(tolerance=1e-9))
    w = result.coefficients
    assert oracles.check_logistic(reference, query, result.value, w, lam, accuracy) is None
    assert oracles.check_logistic(reference, query, result.value + 1e-4, w, lam, accuracy) is not None
    assert oracles.check_logistic(reference, query, result.value, 1.01 * w, lam, accuracy) is not None
    # consistent with the scaled coefficients, so only the certificate can reject it
    scaled_depth = oracles.logistic_loss(reference, query, 1.01 * w)
    assert oracles.check_logistic(reference, query, scaled_depth, 1.01 * w, lam, accuracy) is not None


@pytest.mark.parametrize("query", QUERIES)
def test_closed_form_oracle_rejects_an_svm_depth_off_by_1e_4(reference, query):
    gamma, lam = median_heuristic(reference), 1.0
    depth = svm_depth(query, reference, lam, kernel=KernelSpec.gaussian(gamma)).value
    mean_gram = oracles.gaussian_gram_mean(reference, gamma)
    assert oracles.check_svm_closed_form(reference, query, depth, gamma, lam, mean_gram) is None
    assert oracles.check_svm_closed_form(reference, query, depth + 1e-4, gamma, lam, mean_gram) is not None
    assert oracles.check_svm_closed_form(reference, query, depth - 1e-4, gamma, lam, mean_gram) is not None


def test_closed_form_oracle_refuses_lambda_below_kappa_over_four(reference):
    query = QUERIES[1]
    gamma = median_heuristic(reference)
    depth = svm_depth(query, reference, 0.1, kernel=KernelSpec.gaussian(gamma)).value
    mean_gram = oracles.gaussian_gram_mean(reference, gamma)
    assert oracles.check_svm_closed_form(reference, query, depth, gamma, 0.1, mean_gram) is not None


def test_gram_mean_matches_a_dense_gram():
    points = np.random.default_rng(3).standard_normal((700, 2))
    dense = np.exp(-0.4 * ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    assert oracles.gaussian_gram_mean(points, 0.4) == pytest.approx(dense.mean(), rel=1e-12)


def test_median_heuristic_matches_the_program(reference):
    assert oracles.median_heuristic_gamma(reference) == pytest.approx(median_heuristic(reference), rel=1e-14)


@pytest.mark.parametrize("query", QUERIES)
def test_dual_oracle_rejects_scaled_coefficients_and_a_shifted_depth(reference, query):
    gamma, lam, max_gap = 0.5, 0.01, 1e-6
    result = svm_depth(query, reference, lam, kernel=KernelSpec.gaussian(gamma),
                       solver=SolverConfig(tolerance=1e-9))
    alpha = result.coefficients
    assert oracles.check_svm_dual(reference, query, result.value, alpha, gamma, lam, max_gap) is None
    assert oracles.check_svm_dual(reference, query, result.value + 1e-4, alpha, gamma, lam, max_gap) is not None
    assert oracles.check_svm_dual(reference, query, result.value, 1.01 * alpha, gamma, lam, max_gap) is not None
    # inside the box and consistent with its own loss, so only the gap can reject it
    shrunk = 0.99 * alpha
    shrunk_depth, _ = oracles.svm_dual_terms(reference, query, shrunk, gamma, lam)
    assert oracles.check_svm_dual(reference, query, shrunk_depth, shrunk, gamma, lam, max_gap) is not None
