"""Baseline anomaly scores: local outlier factor and a one-class SVM.

Both are fitted on a training sample and score held-out points, so training
rows never appear in their own neighbourhoods or kernel expansions twice.
LOF returns the raw factor, larger meaning more outlying; one-class SVM
scores are signed margins, larger meaning more inlying.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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
    train = _points_2d(train, "train")
    test = _points_2d(test, "test")
    n = train.shape[0]
    if train.shape[1] != test.shape[1]:
        raise ValidationError(
            f"dimension mismatch: train has d={train.shape[1]}, test has d={test.shape[1]}"
        )
    if not 1 <= k < n:
        raise ValidationError(f"lof needs 1 <= k < n_train, got k={k}, n_train={n}")

    dists = cdist(train, train)
    np.fill_diagonal(dists, np.inf)  # a training point is not its own neighbour
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    rows = np.arange(n)[:, None]
    neighbour_dists = dists[rows, order]
    kdist = neighbour_dists[:, -1]
    reach = np.maximum(kdist[order], neighbour_dists)
    lrd = 1.0 / (reach.mean(axis=1) + _LRD_FLOOR)

    test_dists = cdist(test, train)
    test_order = np.argsort(test_dists, axis=1, kind="stable")[:, :k]
    test_rows = np.arange(test.shape[0])[:, None]
    test_neighbour = test_dists[test_rows, test_order]
    test_reach = np.maximum(kdist[test_order], test_neighbour)
    test_lrd = 1.0 / (test_reach.mean(axis=1) + _LRD_FLOOR)
    return lrd[test_order].mean(axis=1) / test_lrd


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
    none are strictly interior.
    """
    train = _points_2d(train, "train")
    n = train.shape[0]
    if not 0.0 < nu <= 1.0:
        raise ValidationError(f"nu must lie in (0, 1], got {nu}")
    cfg = config if config is not None else _default_ocsvm_config()
    box = 1.0 / (nu * n)

    kmat = gram(kernel, train)
    start = np.full(n, 1.0 / n)
    alpha, diagnostics = _pairwise_smo(
        np.zeros(n), start, np.zeros(n), np.full(n, box), kmat @ start,
        np.diagonal(kmat), lambda k: kmat[:, k], cfg,
    )
    return OneClassSvmModel(
        train=train,
        kernel=kernel,
        nu=nu,
        alpha=alpha,
        rho=0.0 - diagnostics.offset,  # rho = -b, and a zero rho stays +0
        iterations=diagnostics.iterations,
        residual=diagnostics.residual,
        converged=diagnostics.converged,
    )


def ocsvm_fit_score(train, test, kernel: KernelSpec, nu: float = 0.15,
                    config: SolverConfig | None = None) -> np.ndarray:
    """Fit on train and return signed margins for test."""
    return ocsvm_fit(train, kernel, nu, config).score(test)


def ocsvm_duality_gap(model: OneClassSvmModel) -> float:
    """Primal objective at the recovered (f, rho) minus the dual value.

    Nonnegative, and zero at the exact optimum: the primal is
    0.5 ||f||^2 - rho + (1 / (nu n)) sum_i max(0, rho - f(x_i)), the dual is
    -0.5 a'Ka.
    """
    n = model.train.shape[0]
    decision = gram(model.kernel, model.train) @ model.alpha
    squared_norm = float(model.alpha @ decision)
    slack = np.maximum(0.0, model.rho - decision)
    primal = 0.5 * squared_norm - model.rho + float(slack.sum()) / (model.nu * n)
    dual = -0.5 * squared_norm
    return primal - dual
