"""Baseline anomaly scores: local outlier factor and a one-class SVM.

Both are fitted on a training sample and score held-out points, so training
rows never appear in their own neighbourhoods or kernel expansions twice.
LOF returns the raw factor, larger meaning more outlying; one-class SVM
scores are signed margins, larger meaning more inlying.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidationError
from .kernels import KernelSpec, gram
from .solvers import SolverConfig, _pairwise_smo

_LRD_FLOOR = 1e-12  # keeps local reachability density finite on stacked duplicates


def _points_2d(points, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError(f"{name} must be a non-empty 2-d array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def lof_scores(train, test, k: int) -> np.ndarray:
    """Local outlier factor of each test point relative to the training set.

    Neighbourhoods come from the k smallest distances to training points,
    duplicates included, ties broken by index order.  Reachability of a
    neighbour is its k-distance or the actual distance, whichever is larger,
    and the factor is the mean neighbour density over the point's own.
    """
    return lof_scores_per_k(train, test, (k,))[0]


def lof_scores_per_k(train, test, ks) -> list:
    """lof_scores for each neighbourhood size in ks, in order, from one pair
    of distance matrices and one stable sort of each: the first k columns of
    a stable argsort are the k nearest neighbours with ties broken by index,
    so each array has the bits of its own lof_scores call."""
    train = _points_2d(train, "train")
    test = _points_2d(test, "test")
    n = train.shape[0]
    if train.shape[1] != test.shape[1]:
        raise ValidationError(
            f"dimension mismatch: train has d={train.shape[1]}, test has d={test.shape[1]}"
        )
    for k in ks:
        if not 1 <= k < n:
            raise ValidationError(f"lof needs 1 <= k < n_train, got k={k}, n_train={n}")
    from scipy.spatial.distance import cdist  # local: scipy.spatial costs ~0.5 s to import

    dists = cdist(train, train)
    np.fill_diagonal(dists, np.inf)  # a training point is not its own neighbour
    ranked = np.argsort(dists, axis=1, kind="stable")
    test_dists = cdist(test, train)
    test_ranked = np.argsort(test_dists, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    test_rows = np.arange(test.shape[0])[:, None]
    scores = []
    for k in ks:
        order = ranked[:, :k]
        neighbour_dists = dists[rows, order]
        kdist = neighbour_dists[:, -1]
        reach = np.maximum(kdist[order], neighbour_dists)
        lrd = 1.0 / (reach.mean(axis=1) + _LRD_FLOOR)

        test_order = test_ranked[:, :k]
        test_neighbour = test_dists[test_rows, test_order]
        test_reach = np.maximum(kdist[test_order], test_neighbour)
        test_lrd = 1.0 / (test_reach.mean(axis=1) + _LRD_FLOOR)
        scores.append(lrd[test_order].mean(axis=1) / test_lrd)
    return scores


@dataclass(frozen=True, eq=False)
class OneClassSvmModel:
    """Fitted state: expansion weights on the training rows, the margin
    offset, and the kernel used to extend scores to new points."""

    train: np.ndarray
    kernel: KernelSpec
    nu: float
    alpha: np.ndarray
    rho: float
    iterations: int
    residual: float
    converged: bool

    def score(self, points) -> np.ndarray:
        pts = _points_2d(points, "points")
        if pts.shape[1] != self.train.shape[1]:
            raise ValidationError(
                f"dimension mismatch: model has d={self.train.shape[1]}, "
                f"points have d={pts.shape[1]}"
            )
        return gram(self.kernel, pts, self.train) @ self.alpha - self.rho


def _default_ocsvm_config() -> SolverConfig:
    return SolverConfig(max_iterations=200_000, tolerance=1e-6)


def ocsvm_fit(train, kernel: KernelSpec, nu: float = 0.15,
              config: SolverConfig | None = None) -> OneClassSvmModel:
    """Fit the dual: minimise 0.5 a'Ka over the simplex scaled by the box
    0 <= a_i <= 1/(nu n), sum(a) = 1.

    The pairwise solver shared with the intercept SVM depth moves mass
    between the coordinates with the largest and the smallest admissible
    gradient, from the uniform start, until their spread is at or below
    tolerance or no coordinate can move (at nu = 1 the start is the only
    feasible point).  rho is the median decision value over the
    strictly-interior support vectors, falling back to the KKT bracket when
    none are strictly interior.  A kernel diagonal that is not finite (the
    kernel values overflow) raises ValidationError.
    """
    train = _points_2d(train, "train")
    n = train.shape[0]
    if not 0.0 < nu <= 1.0:
        raise ValidationError(f"nu must lie in (0, 1], got {nu}")
    cfg = config if config is not None else _default_ocsvm_config()
    box = 1.0 / (nu * n)

    kmat = gram(kernel, train)
    start = np.full(n, 1.0 / n)
    with np.errstate(over="ignore", invalid="ignore"):  # the solver refuses an overflowed kernel
        start_values = kmat @ start
    alpha, _, offset, iterations, residual, converged = _pairwise_smo(
        np.zeros(n), start, np.zeros(n), np.full(n, box), start_values,
        np.diagonal(kmat), kmat.__getitem__, cfg,
    )
    return OneClassSvmModel(
        train=train,
        kernel=kernel,
        nu=nu,
        alpha=alpha,
        rho=0.0 - offset,  # rho = -b, and a zero rho stays +0
        iterations=iterations,
        residual=residual,
        converged=converged,
    )
