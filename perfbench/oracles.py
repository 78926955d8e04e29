"""Correctness oracles computed apart from the program.

Each check takes what a report states (a depth, and coefficients where the
check needs them) and recomputes it from the raw inputs with numpy alone: no
lossdepth code, no stored copy of an earlier output.  A check returns None
when the value holds and a one-line reason when it does not.
"""
from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)
BLOCK = 256  # rows per block, so no check holds more than BLOCK x n floats

# A cross product this small against the product of the norms leaves the side
# of a point undecided in float64; the enumeration then refuses to answer.
AMBIGUOUS_SINE = 1e-13
# The same loss summed in another order agrees to far better than this.
SAME_VALUE = 1e-10


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def median_heuristic_gamma(points: np.ndarray) -> float:
    """1 / (lower median of the squared distances over distinct pairs), the
    bandwidth the CLI picks when --gamma is absent, for n <= 2000 points
    (above that the CLI draws a subsample)."""
    n = points.shape[0]
    if n > 2000:
        raise ValueError("the median heuristic subsamples above 2000 points")
    upper = np.triu_indices(n, k=1)
    pairs = np.sort(_sqdist(points, points)[upper])
    return 1.0 / float(pairs[(pairs.size - 1) // 2])


def gaussian_mean(points: np.ndarray, centre: np.ndarray, gamma: float) -> float:
    """m(q) = (1/n) sum_i exp(-gamma ||x_i - q||^2)."""
    return float(np.exp(-gamma * _sqdist(points, centre[None, :])[:, 0]).mean())


def gaussian_gram_mean(points: np.ndarray, gamma: float) -> float:
    """Mean of the n x n Gaussian Gram matrix, summed block by block."""
    total = 0.0
    for start in range(0, points.shape[0], BLOCK):
        total += float(np.exp(-gamma * _sqdist(points[start : start + BLOCK], points)).sum())
    return total / points.shape[0] ** 2


def halfspace_count(reference: np.ndarray, query: np.ndarray) -> int:
    """n times the exact 2-d halfspace depth, by enumerating boundary lines.

    The count of points in a closed halfspace through q changes only where its
    normal is perpendicular to some v_i = x_i - q.  Turning the boundary line
    off the line through q and x_i drops x_i and keeps every point strictly on
    one side, so the minimum is the smallest number of points strictly on one
    side of such a line, plus the copies of q, which every halfspace holds.
    """
    v = reference - query
    nonzero = np.any(v != 0.0, axis=1)
    copies = int(reference.shape[0] - np.count_nonzero(nonzero))
    v = v[nonzero]
    if v.shape[0] == 0:
        return copies
    norms = np.hypot(v[:, 0], v[:, 1])
    best = v.shape[0]
    for start in range(0, v.shape[0], BLOCK):
        rows = slice(start, start + BLOCK)
        cross = np.outer(v[rows, 0], v[:, 1]) - np.outer(v[rows, 1], v[:, 0])
        tiny = np.abs(cross) <= AMBIGUOUS_SINE * np.outer(norms[rows], norms)
        tiny[np.arange(cross.shape[0]), np.arange(start, start + cross.shape[0])] = False
        if tiny.any():
            raise ValueError("two reference points are collinear with the query to float precision")
        best = min(best, int((cross > 0.0).sum(axis=1).min()), int((cross < 0.0).sum(axis=1).min()))
    return best + copies


def check_halfspace(reference: np.ndarray, query: np.ndarray, depth: float) -> str | None:
    n = reference.shape[0]
    scaled = depth * n
    if abs(scaled - round(scaled)) > 1e-6:
        return f"n*depth = {scaled!r} is not an integer"
    if depth > 0.5:
        return f"depth {depth!r} exceeds 1/2"
    try:
        expected = halfspace_count(reference, query)
    except ValueError as error:
        return str(error)
    if round(scaled) != expected:
        return f"depth {depth!r} = {round(scaled)}/{n}, enumeration gives {expected}/{n}"
    return None


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -t))


def _augmented(reference: np.ndarray, query: np.ndarray):
    rows = np.hstack([reference, np.ones((reference.shape[0], 1))])
    return rows, np.append(query, 1.0)


def logistic_loss(reference: np.ndarray, query: np.ndarray, weights: np.ndarray) -> float:
    """Weighted log-loss over log 2 of the classifier with intercept, the
    depth the CLI reports for lr with its default --intercept."""
    rows, q = _augmented(reference, query)
    loss = float(np.logaddexp(0.0, -(rows @ weights)).sum()) / (2.0 * rows.shape[0])
    return (loss + 0.5 * float(np.logaddexp(0.0, q @ weights))) / LOG2


def check_logistic(
    reference: np.ndarray, query: np.ndarray, depth: float, weights: np.ndarray, lam: float,
    accuracy: float,
) -> str | None:
    """The reported depth must be the loss at the reported coefficients w, and
    w must be close enough to the minimiser w* that the depth's error is
    certified below accuracy: the objective is 2*lam-strongly convex, so
    ||w - w*|| <= ||grad f(w)|| / (2 lam), and the loss is G-Lipschitz in w
    with G = (mean ||x_i|| + ||q||)/2 over the augmented rows.
    """
    n, d = reference.shape
    if weights.shape != (d + 1,):
        return f"expected {d + 1} coefficients, got {weights.shape[0]}"
    loss = logistic_loss(reference, query, weights)
    if abs(loss - depth) > SAME_VALUE:
        return f"depth {depth!r}, loss at the reported coefficients {loss!r}"
    rows, q = _augmented(reference, query)
    grad = (
        -(rows.T @ _sigmoid(-(rows @ weights))) / (2.0 * n)
        + 0.5 * float(_sigmoid(q @ weights)) * q
        + 2.0 * lam * weights
    )
    lipschitz = 0.5 * (float(np.linalg.norm(rows, axis=1).mean()) + float(np.linalg.norm(q)))
    bound = lipschitz * float(np.linalg.norm(grad)) / (2.0 * lam) / LOG2
    if bound > accuracy:
        return f"certified error {bound:.3g} exceeds the stated accuracy {accuracy:g}"
    return None


def svm_closed_form(mean_gram: float, query_mean: float, lam: float) -> float:
    """1 - (S + kappa)/(8 lam) + m(q)/(4 lam) with kappa = 1, for lam >= 1/4."""
    return 1.0 - (mean_gram + 1.0) / (8.0 * lam) + query_mean / (4.0 * lam)


def check_svm_closed_form(
    reference: np.ndarray, query: np.ndarray, depth: float, gamma: float, lam: float,
    mean_gram: float,
) -> str | None:
    if lam < 0.25:
        return f"lambda {lam!r} is below kappa/4, where the closed form does not hold"
    expected = svm_closed_form(mean_gram, gaussian_mean(reference, query, gamma), lam)
    if abs(expected - depth) > 1e-6:
        return f"depth {depth!r}, closed form {expected!r}"
    return None


def svm_dual_terms(
    reference: np.ndarray, query: np.ndarray, alpha: np.ndarray, gamma: float, lam: float
) -> tuple:
    """(weighted hinge loss, duality gap) of the no-intercept SVM depth at the
    n+1 dual coefficients alpha, query last.

    f = sum_k alpha_k y_k k(p_k, .); the primal is the loss plus lam ||f||^2,
    the dual sum(alpha) - ||f||^2 / 2, and the gap is primal - 2 lam dual.
    """
    n = reference.shape[0]
    points = np.vstack([reference, query[None, :]])
    labels = np.append(np.ones(n), -1.0)
    signed = alpha * labels
    f = np.empty(n + 1)
    for start in range(0, n + 1, BLOCK):
        f[start : start + BLOCK] = np.exp(-gamma * _sqdist(points[start : start + BLOCK], points)) @ signed
    hinge = np.maximum(0.0, 1.0 - labels * f)
    loss = float(hinge[:n].sum()) / (2.0 * n) + 0.5 * float(hinge[n])
    squared_norm = float(signed @ f)
    return loss, loss + lam * squared_norm - 2.0 * lam * (float(alpha.sum()) - 0.5 * squared_norm)


def check_svm_dual(
    reference: np.ndarray, query: np.ndarray, depth: float, alpha: np.ndarray, gamma: float,
    lam: float, max_gap: float,
) -> str | None:
    """The dual coefficients must lie in the box 0 <= alpha_i <= 1/(4 n lam),
    0 <= alpha_q <= 1/(4 lam); the duality gap at them must be nonnegative and
    at most max_gap; and the reported depth must be the hinge loss there."""
    n = reference.shape[0]
    if alpha.shape != (n + 1,):
        return f"expected {n + 1} dual coefficients, got {alpha.shape[0]}"
    box = np.append(np.full(n, 1.0 / (4.0 * n * lam)), 1.0 / (4.0 * lam))
    if np.any(alpha < 0.0) or np.any(alpha > box):
        return "dual coefficients leave the box"
    loss, gap = svm_dual_terms(reference, query, alpha, gamma, lam)
    if gap < -SAME_VALUE:
        return f"negative duality gap {gap:.3g}"
    if gap > max_gap:
        return f"duality gap {gap:.3g} exceeds {max_gap:g}"
    if abs(loss - depth) > SAME_VALUE:
        return f"depth {depth!r}, hinge loss of the recovered function {loss!r}"
    return None
