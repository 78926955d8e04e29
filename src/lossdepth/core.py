"""Shared types for loss-based data depths.

A depth query separates one point (the query, labelled -1, mass 1/2) from a
reference sample (labelled +1, total mass 1/2, split uniformly).  The depth of
the query is the smallest achievable expected classification loss over a
family of classifiers.  This module holds the containers, which check their
own invariants when built, the weighting and the pointwise losses; the actual
minimisation lives in :mod:`lossdepth.solvers` and :mod:`lossdepth.depths`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

LOG2 = math.log(2.0)


class LossDepthError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(LossDepthError, ValueError):
    """Raised when inputs violate a documented precondition."""


class NotConvergedError(LossDepthError):
    """Raised by harness code when a solver result is required to converge."""


class LossKind(Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


class Reporting(Enum):
    """What the depth value reports at the regularised minimiser.

    LOSS_ONLY: the weighted classification loss alone.
    LOSS_PLUS_REG: the weighted loss plus the ridge penalty, i.e. the full
    minimised objective.  The latter is quasi-concave in the query location.
    """

    LOSS_ONLY = "loss"
    LOSS_PLUS_REG = "loss+reg"


def logistic_loss(predictions, labels):
    """log(1 + exp(-y * f)) evaluated stably, elementwise."""
    return np.logaddexp(0.0, -np.asarray(labels, dtype=float) * np.asarray(predictions, dtype=float))


def hinge_loss(predictions, labels):
    """max(0, 1 - y * f), elementwise."""
    return np.maximum(0.0, 1.0 - np.asarray(labels, dtype=float) * np.asarray(predictions, dtype=float))


def zero_one_loss(predictions, labels):
    """1 when y * f < 0 else 0, elementwise.  Zero margin counts as correct."""
    return (np.asarray(labels, dtype=float) * np.asarray(predictions, dtype=float) < 0.0).astype(float)


def _validated_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    if arr.ndim != 2:
        raise ValidationError(f"reference sample must be a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"reference sample needs at least one row and one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("reference sample contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Immutable n x d reference sample with finite float64 entries."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_matrix(self.values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class QueryPoint:
    """Immutable query location, a finite float64 d-vector."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coords, dtype=float).reshape(-1)
        if arr.size < 1:
            raise ValidationError("query point must have at least one coordinate")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("query point contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def d(self) -> int:
        return self.coords.size


def weighted_expectation(positive_losses, negative_loss: float) -> float:
    """Expected loss under the two-class weighting.

    Args:
        positive_losses: loss values at the n reference points, weight 1/(2n) each.
        negative_loss: loss value at the query point, weight 1/2.
    """
    pos = np.asarray(positive_losses, dtype=float).reshape(-1)
    if pos.size < 1:
        raise ValidationError("weighted expectation needs at least one reference loss")
    return float(pos.sum() / (2.0 * pos.size) + 0.5 * float(negative_loss))


@dataclass(frozen=True, eq=False)
class DepthProblem:
    """One depth evaluation: reference sample, query, loss family and knobs.

    lam is the ridge coefficient on the classifier weights.  With an
    intercept, the classifier acts on features augmented by a constant 1 and
    the intercept coordinate is penalised like any other weight.
    Construction checks the cross-field invariants and raises one
    ValidationError naming every violation; DataMatrix and QueryPoint
    already guarantee finite entries.
    """

    reference: DataMatrix
    query: QueryPoint
    loss: LossKind
    lam: float = 1.0
    kernel: "object | None" = None  # KernelSpec, kept untyped to avoid an import cycle
    intercept: bool = True
    reporting: Reporting = Reporting.LOSS_ONLY
    normalize: bool = True

    def __post_init__(self):
        violations = []
        if self.reference.d != self.query.d:
            violations.append(
                f"dimension mismatch: reference has d={self.reference.d}, query has d={self.query.d}"
            )
        if not self.lam > 0.0:
            violations.append(
                "minimizer may be unbounded: lambda must be positive for a unique regularised minimiser"
            )
        if self.loss is LossKind.HINGE and self.kernel is None:
            violations.append("hinge depth requires a kernel")
        if violations:
            raise ValidationError("; ".join(violations))


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Depth value plus solver diagnostics.

    converged implies residual is at or below the solver tolerance that
    produced it.  coefficients are the classifier weights for the logistic
    depth (d + intercept reals, intercept last) or the dual coefficients for
    the kernel depth (n + 1 reals, query last; with an intercept an extra
    trailing offset value).
    """

    value: float
    iterations: int
    residual: float
    converged: bool
    coefficients: np.ndarray | None = None


def as_data_matrix(values) -> DataMatrix:
    return values if isinstance(values, DataMatrix) else DataMatrix(values)


def as_query_point(coords) -> QueryPoint:
    return coords if isinstance(coords, QueryPoint) else QueryPoint(coords)
