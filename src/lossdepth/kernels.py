"""Positive-definite kernels and data-driven bandwidth heuristics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import LossDepthError, ValidationError


class DegenerateBandwidthError(LossDepthError):
    """Raised when a bandwidth heuristic lands on a zero distance."""


GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"
IMQ = "imq"
LINEAR = "linear"

_FAMILIES = (GAUSSIAN, LAPLACIAN, IMQ, LINEAR)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its parameters.

    gaussian:  k(x, y) = exp(-gamma * ||x - y||^2),      gamma > 0
    laplacian: k(x, y) = exp(-||x - y||_1 / sigma),      sigma > 0
    imq:       k(x, y) = (c^2 + ||x - y||^2)^beta,       c > 0, beta < 0
    linear:    k(x, y) = <x, y>

    Every parameter a family reads must be finite.
    """

    family: str
    gamma: float = 0.0
    sigma: float = 0.0
    c: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN and not 0.0 < self.gamma < math.inf:
            raise ValidationError("gaussian kernel needs a finite gamma > 0")
        if self.family == LAPLACIAN and not 0.0 < self.sigma < math.inf:
            raise ValidationError("laplacian kernel needs a finite sigma > 0")
        if self.family == IMQ and not (0.0 < self.c < math.inf and -math.inf < self.beta < 0.0):
            raise ValidationError("imq kernel needs a finite c > 0 and a finite beta < 0")

    @classmethod
    def gaussian(cls, gamma: float) -> "KernelSpec":
        return cls(family=GAUSSIAN, gamma=float(gamma))

    @classmethod
    def laplacian(cls, sigma: float) -> "KernelSpec":
        return cls(family=LAPLACIAN, sigma=float(sigma))

    @classmethod
    def imq(cls, c: float, beta: float) -> "KernelSpec":
        return cls(family=IMQ, c=float(c), beta=float(beta))

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(family=LINEAR)

    def bound(self) -> float | None:
        """sup_x k(x, x), or None when unbounded (linear)."""
        if self.family in (GAUSSIAN, LAPLACIAN):
            return 1.0
        if self.family == IMQ:
            return float(self.c ** (2.0 * self.beta))
        return None

    def diagonal(self, points: np.ndarray) -> np.ndarray:
        """k(x, x) for each row of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.family == LINEAR:
            return np.einsum("ij,ij->i", pts, pts)
        return np.full(pts.shape[0], self.bound())


def gram(spec: KernelSpec, left, right=None) -> np.ndarray:
    """Kernel matrix between the rows of left and right (right defaults to left)."""
    a = np.atleast_2d(np.asarray(left, dtype=float))
    b = a if right is None else np.atleast_2d(np.asarray(right, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"kernel inputs disagree on dimension: {a.shape[1]} vs {b.shape[1]}")
    # in place on the distance matrix, so a block allocates no further temporaries
    if spec.family == GAUSSIAN:
        out = cdist(a, b, "sqeuclidean")
        out *= -spec.gamma
        return np.exp(out, out=out)
    if spec.family == LAPLACIAN:
        out = cdist(a, b, "cityblock")
        out /= spec.sigma
        np.negative(out, out=out)
        return np.exp(out, out=out)
    if spec.family == IMQ:
        out = cdist(a, b, "sqeuclidean")
        out += spec.c ** 2
        return np.power(out, spec.beta, out=out)
    return a @ b.T


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """k(x, y) for two single points."""
    return float(gram(spec, np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def _pair_rows(points, max_points: int, seed: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise ValidationError("bandwidth heuristics need at least two points")
    if pts.shape[0] > max_points:
        rng = np.random.default_rng(seed)
        keep = rng.choice(pts.shape[0], size=max_points, replace=False)
        pts = pts[np.sort(keep)]
    return pts


def _order_statistic(values: np.ndarray, index: int) -> float:
    """The value at index in sorted order, found by partition without a full sort."""
    return float(np.partition(values, index)[index])


def median_heuristic(points, max_points: int = 2000, seed: int = 0) -> float:
    """Gaussian bandwidth gamma = 1 / median of pairwise squared distances.

    Distinct pairs only (upper triangle).  Even pair counts take the lower of
    the two middle values so the result does not depend on float averaging.
    Samples max_points rows with the given seed when the input is larger.
    """
    pairs = pdist(_pair_rows(points, max_points, seed), "sqeuclidean")
    med = _order_statistic(pairs, (pairs.size - 1) // 2)
    if med <= 0.0:
        raise DegenerateBandwidthError("median pairwise squared distance is zero")
    return 1.0 / med


def quartile_heuristic(points, max_points: int = 2000, seed: int = 0) -> float:
    """Gaussian bandwidth gamma = 0.5 / q25^2 with q25 the lower quartile of
    pairwise Euclidean distances (lower-interpolation convention)."""
    pairs = pdist(_pair_rows(points, max_points, seed), "euclidean")
    q25 = _order_statistic(pairs, int(np.floor(0.25 * (pairs.size - 1))))
    if q25 <= 0.0:
        raise DegenerateBandwidthError("lower-quartile pairwise distance is zero")
    return 0.5 / (q25 * q25)


def rkhs_distance(spec: KernelSpec, x, y) -> float:
    """Distance between feature embeddings, sqrt(k(x,x) - 2k(x,y) + k(y,y))."""
    xx = kernel_eval(spec, x, x)
    yy = kernel_eval(spec, y, y)
    xy = kernel_eval(spec, x, y)
    return float(np.sqrt(max(0.0, xx + yy - 2.0 * xy)))
