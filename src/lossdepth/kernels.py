"""Positive-definite kernels and data-driven bandwidth heuristics.

Every distance (pair_distances) is computed in the compiled library that
lossdepth.native builds from _dual.c, with the bits of scipy's cdist and
pdist.  Those stay the reference, and the fallback on a machine where the
library cannot be had: only then is `scipy.spatial.distance` imported,
inside the function, as its package import takes about 0.5 s.  Neither
import happens here, so the halfspace and logistic depths, which never
build a kernel, pay neither at CLI start-up.

Memory stays bounded on large references.  median_heuristic holds an array
of every pair distance only up to _SELECTION_PAIRS pairs.  Above that it
finds the same order statistic in one or two selection passes, compiled
(native.pair_selection) or, without the library, over blocks of cdist rows;
either keeps only the few distances around the median.  gram and
pair_distances write into a caller's out array, so a pass over blocks can
reuse one scratch buffer.
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


def gram(spec: KernelSpec, left, right=None, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between the rows of left and right (right defaults to
    left), written into out when it is given: a C-contiguous float64 array
    of that (m, n) shape, which is returned, with the bits a new one gets."""
    a = np.atleast_2d(np.asarray(left, dtype=float))
    b = a if right is None else np.atleast_2d(np.asarray(right, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"kernel inputs disagree on dimension: {a.shape[1]} vs {b.shape[1]}")
    if spec.family == LINEAR:
        # an overflow leaves inf or nan in the result, which the dual solvers
        # refuse; einsum sums each entry in a fixed order, where a BLAS
        # product's rounding depends on its thread count
        with np.errstate(over="ignore", invalid="ignore"):
            return np.einsum("ik,jk->ij", a, b, out=out)
    parameter = {GAUSSIAN: -spec.gamma, LAPLACIAN: spec.sigma, IMQ: spec.c ** 2}[spec.family]
    out = pair_distances(a, b, spec.family, parameter, out)  # the exponent, or imq's base
    if spec.family == IMQ:
        return np.power(out, spec.beta, out=out)
    return np.exp(out, out=out)


def pair_distances(left: np.ndarray, right: np.ndarray | None, step: str = "sqeuclidean",
                   parameter: float = 0.0, out: np.ndarray | None = None) -> np.ndarray:
    """The squared euclidean distance s of each pair of a row of left and a
    row of right, as the (m, n) matrix of cdist; with right None, of each
    pair i < j of left's rows, packed as pdist packs them.  A kernel family
    as step applies its scalar step instead, giving what gram hands to
    np.exp or np.power: s * parameter for GAUSSIAN (parameter -gamma),
    -(l1 / parameter) for LAPLACIAN with the l1 distance (parameter sigma),
    and s + parameter for IMQ (parameter c^2).  Written into out when it is
    given, a C-contiguous float64 array of the result's shape.

    Computed in the compiled library (native.kernel_arguments) when it is
    available, else by scipy's cdist or pdist and the step in numpy; each
    pair's sum runs over the coordinates in order in both, so they give the
    same bits.  An overflow gives inf silently, in either.
    """
    from . import native  # local: its compiler tooling costs ~10 ms of start-up

    result = native.kernel_arguments(left, right, step, parameter, out)
    if result is not None:
        return result
    from scipy.spatial import distance  # local: scipy.spatial costs ~0.5 s to import

    metric = "cityblock" if step == LAPLACIAN else "sqeuclidean"
    if right is None:
        out = distance.pdist(left, metric, out=out)
    else:
        out = distance.cdist(left, right, metric, out=out)
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

# Up to this many pairs (m <= 1024 rows), median_heuristic partitions one
# array of every pair distance, at most 4 MiB; above it, it selects without
# one.  Where the two cross, at m rows, one array against the selection
# (median of 7 interleaved timeit runs, 2-core Xeon with AVX-512): m = 512,
# 0.2 against 0.8 ms; 724, 0.45 against 0.7 ms; 1024, 1.0 against 1.0-1.1 ms;
# 1448, 2.2-2.7 against 1.8 ms; 2000, 4.0-5.1 against 2.9-4.7 ms.
_SELECTION_PAIRS = 1 << 19
# About this many pairs, evenly strided, are sampled for the bounds.
_SAMPLE_PAIRS = 1 << 14


def median_heuristic(points) -> float:
    """Gaussian bandwidth gamma = 1 / median of pairwise squared distances.

    Distinct pairs only (upper triangle).  Even pair counts take the lower of
    the two middle values, found by selection without a full sort, so the
    result does not depend on float averaging.  Samples _HEURISTIC_MAX_POINTS
    rows, seeded, when the input is larger.  Up to _SELECTION_PAIRS pairs,
    one array holds every pair distance, partitioned at the middle; above
    it, _select_rank finds the same value, bit for bit, in one or two passes
    over the pairs, around bounds that a sample of them gives
    (_sample_bounds), with no more than a few of them held.  Points with a
    coordinate that is not finite, whose distances may be NaN, always take
    the one array.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise ValidationError("bandwidth heuristics need at least two points")
    if pts.shape[0] > _HEURISTIC_MAX_POINTS:
        rng = np.random.default_rng(_HEURISTIC_SEED)
        keep = rng.choice(pts.shape[0], size=_HEURISTIC_MAX_POINTS, replace=False)
        pts = pts[np.sort(keep)]
    m = pts.shape[0]
    size = m * (m - 1) // 2
    middle = (size - 1) // 2
    if size <= _SELECTION_PAIRS or not np.isfinite(pts).all():
        pairs = pair_distances(pts, None)
        pairs.partition(middle)
        med = float(pairs[middle])
    else:
        med = _select_rank(pts, size, middle, *_sample_bounds(pts, size, middle))
    if med <= 0.0:
        raise DegenerateBandwidthError("median pairwise squared distance is zero")
    if med == math.inf:
        raise DegenerateBandwidthError(
            "median pairwise squared distance overflows to inf: no gaussian bandwidth fits the data"
        )
    return 1.0 / med


def _sample_bounds(pts: np.ndarray, size: int, rank: int) -> tuple[np.ndarray, int]:
    """Bounds a <= lo <= hi <= b around the rank-th smallest of the size pair
    distances of pts, and a capacity for those in [lo, hi]: order statistics
    of the squared distances of an evenly strided sample of the pairs, in
    pdist's packed order (Floyd and Rivest, 1975).  [lo, hi] spans 2 sqrt(S)
    sample ranks, 4 binomial standard deviations, either side of the rank's
    estimate, and the fences four times that; the capacity is twice the
    expected count in [lo, hi].  Any bounds give the exact statistic in
    _select_rank; good ones let its first pass suffice."""
    m = pts.shape[0]
    stride = max(1, size // _SAMPLE_PAIRS)
    index = np.arange(stride // 2, size, stride)
    row = np.arange(m)
    starts = row * (2 * m - row - 1) // 2  # the index of each row's first pair
    rows = np.repeat(row, np.diff(np.searchsorted(index, starts), append=index.size))
    with np.errstate(over="ignore"):  # an overflow only moves a bound to inf
        differences = pts.take(rows, axis=0) - pts.take(index - starts[rows] + rows + 1, axis=0)
        sample = np.einsum("ij,ij->i", differences, differences)
    sample.sort()
    at, margin = rank * sample.size / size, 2.0 * math.sqrt(sample.size)
    ranks = np.rint([at - 4.0 * margin, at - margin, at + margin, at + 4.0 * margin])
    bounds = sample[np.clip(ranks, 0, sample.size - 1).astype(np.intp)]
    return bounds, math.ceil(4.0 * margin / sample.size * size)


def _select_rank(pts: np.ndarray, size: int, rank: int, bounds: np.ndarray,
                 capacity: int) -> float:
    """The rank-th smallest squared distance of the size pairs i < j of the
    finite rows of pts, as pdist and a partition give it, in at most two
    passes over the pairs, neither of which holds them all.

    The ascending bounds a <= lo <= hi <= b split the distances into five
    classes: below a, [a, lo), [lo, hi], (hi, b] and above b.  The first
    pass (_select_pairs) counts every class exactly and keeps up to capacity
    values of [lo, hi], whose partition then gives the statistic when that
    class holds the rank and was kept whole.  A class of one value gives it
    at once; otherwise a second pass keeps just the class that holds the
    rank, whose exact size the first pass counted.
    """
    counts, kept = _select_pairs(pts, bounds, capacity)
    below_fence, below, above, above_fence = (int(count) for count in counts)
    down, up = np.nextafter(bounds, -math.inf), np.nextafter(bounds, math.inf)
    classes = (  # each as its closed range of values and its count
        (-math.inf, down[0], below_fence),
        (bounds[0], down[1], below - below_fence),
        (bounds[1], bounds[2], size - below - above),
        (up[2], bounds[3], above - above_fence),
        (up[3], math.inf, above_fence),
    )
    for held, (first, last, count) in enumerate(classes):
        if rank < count:
            break
        rank -= count
    if first == last:
        return float(first)
    if not (held == 2 and kept.size == count):  # [lo, hi] holds the rank and was kept whole
        _, kept = _select_pairs(pts, np.array([first, first, last, last]), count)
    kept.partition(rank)
    return float(kept[rank])


# Pair distances per block of the selection pass without the library.
_SELECTION_BLOCK_ENTRIES = 1 << 16


def _select_pairs(pts: np.ndarray, bounds: np.ndarray,
                  capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """native.pair_selection's counts and kept distances; without the
    library, from blocks of rows of pair distances by cdist, whose sums
    have pdist's bits, each block's rows against the rows after its first."""
    from . import native  # local: its compiler tooling costs ~10 ms of start-up

    result = native.pair_selection(pts, bounds, capacity)
    if result is not None:
        return result
    m = pts.shape[0]
    counts, kept = np.zeros(4, dtype=np.int64), []
    step = max(1, _SELECTION_BLOCK_ENTRIES // m)
    for first in range(0, m - 1, step):
        last = min(m - 1, first + step)
        # row r, column c: the pair (first + r, first + 1 + c), one of i < j when c >= r
        block = pair_distances(pts[first:last], pts[first + 1:])
        values = block[np.arange(m - first - 1) >= np.arange(last - first)[:, None]]
        counts += [np.count_nonzero(values < bounds[0]), np.count_nonzero(values < bounds[1]),
                   np.count_nonzero(values > bounds[2]), np.count_nonzero(values > bounds[3])]
        kept.append(values[(values >= bounds[1]) & (values <= bounds[2])])
    return counts, np.concatenate(kept)[:capacity]
