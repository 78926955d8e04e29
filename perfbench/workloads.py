"""Seeded inputs and CLI settings of the benchmark's workloads.

A workload is one reference sample plus one query set per depth method.  Each
query set is sized so that one `lossdepth depth` call takes 0.25-0.7 s on a
2-core host, which keeps ten or more timed repeats of every method inside a
25-second run.  The same seed always gives the same CSV bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

METHODS = ("halfspace", "lr", "svm")

# Base sample of solve-bound.  The number of SVM sweeps at small lambda swings
# threefold between independent samples of one distribution (at gamma = 0.5,
# 1,214 to 3,573 sweeps over six queries across five samples), so solve-bound
# draws its sample once and lets the seed rotate it: every depth and the median
# heuristic are rotation invariant, the work stays put, and the CSV bytes still
# change with the seed.
SOLVE_BOUND_BASE_SEED = 20250711


@dataclass(frozen=True)
class Inputs:
    reference: np.ndarray
    queries: dict  # method -> (m, 2) array


@dataclass(frozen=True)
class Workload:
    name: str
    lam: float
    tolerance: float | None  # None keeps the CLI default, 1e-8
    lr_accuracy: float  # largest certified lr depth error the check accepts
    svm_max_gap: float  # largest duality gap the svm check accepts below kappa/4
    samples: dict  # method -> number of queries checked against an oracle
    build: Callable[[np.random.Generator], Inputs]

    @property
    def closed_form(self) -> bool:
        """Gaussian kernel (kappa = 1) at lambda >= kappa/4: every dual variable
        sits at its upper bound and the SVM depth has a closed form."""
        return self.lam >= 0.25

    def options(self, method: str) -> list:
        """CLI flags of one call; the measured process always gets --threads 1.
        The Gaussian bandwidth is always the CLI's median heuristic."""
        flags = ["--method", method, "--threads", "1", "--lambda", repr(self.lam)]
        if self.tolerance is not None:
            flags += ["--tolerance", repr(self.tolerance)]
        return flags


def _grid(lo: np.ndarray, hi: np.ndarray, resolution: int) -> np.ndarray:
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _rings(radii, per_ring: int) -> np.ndarray:
    """per_ring points on each circle, each ring turned by the golden angle."""
    turn = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for i, radius in enumerate(radii):
        angles = 2.0 * math.pi * np.arange(per_ring) / per_ring + i * turn
        points.append(radius * np.column_stack([np.cos(angles), np.sin(angles)]))
    return np.vstack(points)


def _rotation(rng: np.random.Generator) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def plane_grid(rng: np.random.Generator) -> Inputs:
    """The paper's contamination heatmap: N((-1,-1), I) with 10% of the points
    redrawn around (2, 2), scored on regular grids.

    The grids span [-5, 5.5]^2, the data range +- 1 of a typical sample.  A
    grid over each sample's own range would follow its most extreme point, and
    the logistic work on the far grid points moves by a third between seeds.
    """
    n = 400
    reference = np.array([-1.0, -1.0]) + rng.standard_normal((n, 2))
    moved = rng.choice(n, size=n // 10, replace=False)
    reference[moved] = np.array([2.0, 2.0]) + rng.standard_normal((moved.size, 2))
    lo, hi = np.array([-5.0, -5.0]), np.array([5.5, 5.5])
    resolution = {"halfspace": 15, "lr": 8, "svm": 10}
    return Inputs(reference, {m: _grid(lo, hi, r) for m, r in resolution.items()})


def solve_bound(rng: np.random.Generator) -> Inputs:
    """n = 1000 standard-normal points, queries on rings out to radius 3,
    all turned by one seeded rotation."""
    base = np.random.default_rng(SOLVE_BOUND_BASE_SEED).standard_normal((1000, 2))
    radii = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    queries = {"halfspace": _rings(radii, 16), "lr": _rings(radii, 2), "svm": _rings(radii[:4], 2)}
    turn = _rotation(rng)
    return Inputs(base @ turn.T, {m: q @ turn.T for m, q in queries.items()})


def big_reference(rng: np.random.Generator) -> Inputs:
    """n = 4000 standard-normal points, above the solver's dense-Gram limit."""
    reference = rng.standard_normal((4000, 2))
    radii = (0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 3.75)
    queries = {"halfspace": _rings(radii, 6), "lr": _rings(radii, 12), "svm": _rings((1.0,), 1)}
    return Inputs(reference, queries)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plane-grid",
            lam=1.0,
            tolerance=None,
            lr_accuracy=1e-6,
            svm_max_gap=0.0,
            samples={"halfspace": 16, "lr": 8, "svm": 8},
            build=plane_grid,
        ),
        Workload(
            name="solve-bound",
            lam=1e-2,
            tolerance=1e-7,
            lr_accuracy=1e-4,
            svm_max_gap=1e-6,
            samples={"halfspace": 8, "lr": 6, "svm": 3},
            build=solve_bound,
        ),
        Workload(
            name="big-reference",
            lam=1.0,
            tolerance=None,
            lr_accuracy=1e-6,
            svm_max_gap=0.0,
            samples={"halfspace": 3, "lr": 8, "svm": 1},
            build=big_reference,
        ),
    )
}


def write_csv(path, points: np.ndarray) -> None:
    """Rows of 17-significant-digit floats, which read back bit-exact."""
    with open(path, "w") as out:
        for row in points:
            out.write(",".join(format(float(v), ".17g") for v in row) + "\n")
