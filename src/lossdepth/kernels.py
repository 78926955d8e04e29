"""Positive-definite kernels and data-driven bandwidth heuristics.

Every distance (pair_distances) is computed in the compiled library that
lossdepth.native builds from _dual.c, with the bits of scipy's cdist and
pdist.  Those stay the reference, and the fallback on a machine where the
library cannot be had: only then is `scipy.spatial.distance` imported,
inside the function, as its package import takes about 0.5 s.  Neither
import happens here, so the halfspace and logistic depths, which never
build a kernel, pay neither at CLI start-up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LossDepthError, ValidationError


class DegenerateBandwidthError(LossDepthError):
    """Raised when a bandwidth heuristic lands on a zero or an infinite
    distance."""


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

    Every parameter a family reads must be finite, and so must imq's c^2 > 0
    and its diagonal kappa = (c^2)^beta, as floats: otherwise gram's diagonal
    is not the kernel's.  kappa is computed as gram computes k(x, x), by
    np.power on c^2, so bound(), diagonal and gram's diagonal share its bits.
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
        if self.family == IMQ:
            if not (0.0 < self.c < math.inf and -math.inf < self.beta < 0.0):
                raise ValidationError("imq kernel needs a finite c > 0 and a finite beta < 0")
            try:  # a float ** that overflows raises OverflowError
                usable = self.c ** 2 > 0.0 and self.bound() < math.inf
            except OverflowError:
                usable = False
            if not usable:
                raise ValidationError(
                    f"imq kernel values overflow at c={self.c!r}, beta={self.beta!r}: "
                    "c**2 must not underflow to 0, and c**2 and (c**2)**beta must be finite"
                )

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
            with np.errstate(over="ignore"):  # an overflow is inf, which __post_init__ refuses
                return float(np.power(self.c ** 2, self.beta))
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
    if spec.family == LINEAR:
        # an overflow leaves inf or nan in the result, which the dual solvers
        # refuse; einsum sums each entry in a fixed order, where a BLAS
        # product's rounding depends on its thread count
        with np.errstate(over="ignore", invalid="ignore"):
            return np.einsum("ik,jk->ij", a, b)
    parameter = {GAUSSIAN: -spec.gamma, LAPLACIAN: spec.sigma, IMQ: spec.c ** 2}[spec.family]
    out = pair_distances(a, b, spec.family, parameter)  # the exponent, or imq's base
    if spec.family == IMQ:
        return np.power(out, spec.beta, out=out)
    return np.exp(out, out=out)


def pair_distances(left: np.ndarray, right: np.ndarray | None, step: str = "sqeuclidean",
                   parameter: float = 0.0) -> np.ndarray:
    """The squared euclidean distance s of each pair of a row of left and a
    row of right, as the (m, n) matrix of cdist; with right None, of each
    pair i < j of left's rows, packed as pdist packs them.  A kernel family
    as step applies its scalar step instead, giving what gram hands to
    np.exp or np.power: s * parameter for GAUSSIAN (parameter -gamma),
    -(l1 / parameter) for LAPLACIAN with the l1 distance (parameter sigma),
    and s + parameter for IMQ (parameter c^2).

    Computed in the compiled library (native.kernel_arguments) when it is
    available, else by scipy's cdist or pdist and the step in numpy; each
    pair's sum runs over the coordinates in order in both, so they give the
    same bits.  An overflow gives inf silently, in either.
    """
    from . import native  # local: its compiler tooling costs ~10 ms of start-up

    out = native.kernel_arguments(left, right, step, parameter)
    if out is not None:
        return out
    from scipy.spatial import distance  # local: scipy.spatial costs ~0.5 s to import

    metric = "cityblock" if step == LAPLACIAN else "sqeuclidean"
    out = distance.pdist(left, metric) if right is None else distance.cdist(left, right, metric)
    # in place, so a block allocates nothing more; an overflow is the -inf
    # or inf that the compiled pass gives, without a warning
    with np.errstate(over="ignore"):
        if step == GAUSSIAN:
            out *= parameter
        elif step == LAPLACIAN:
            out /= parameter
            np.negative(out, out=out)
        elif step == IMQ:
            out += parameter
    return out


# A larger input to median_heuristic is subsampled to this many rows, drawn
# with this seed.
_HEURISTIC_MAX_POINTS = 2000
_HEURISTIC_SEED = 0


def median_heuristic(points) -> float:
    """Gaussian bandwidth gamma = 1 / median of pairwise squared distances.

    Distinct pairs only (upper triangle).  Even pair counts take the lower of
    the two middle values, found by partition without a full sort, so the
    result does not depend on float averaging.  Samples _HEURISTIC_MAX_POINTS
    rows, seeded, when the input is larger.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise ValidationError("bandwidth heuristics need at least two points")
    if pts.shape[0] > _HEURISTIC_MAX_POINTS:
        rng = np.random.default_rng(_HEURISTIC_SEED)
        keep = rng.choice(pts.shape[0], size=_HEURISTIC_MAX_POINTS, replace=False)
        pts = pts[np.sort(keep)]
    pairs = pair_distances(pts, None)
    middle = (pairs.size - 1) // 2
    pairs.partition(middle)
    med = float(pairs[middle])
    if med <= 0.0:
        raise DegenerateBandwidthError("median pairwise squared distance is zero")
    if med == math.inf:
        raise DegenerateBandwidthError(
            "median pairwise squared distance overflows to inf: no gaussian bandwidth fits the data"
        )
    return 1.0 / med
