"""Shared types for loss-based data depths.

A depth query separates one point (the query, labelled -1, mass 1/2) from a
reference sample (labelled +1, total mass 1/2, split uniformly).  The depth of
the query is the smallest achievable expected classification loss over a
family of classifiers.  Only the loss and the family differ between the
depths, so one request type, :class:`lossdepth.depths.DepthBatchRequest`,
describes every depth, one query or many.  This module holds the reference
container, which checks its own invariants when built, the result type, the
weighting and the ridge-strength check; the actual minimisation lives in
:mod:`lossdepth.solvers` and :mod:`lossdepth.depths`.
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


class Reporting(Enum):
    """What the depth value reports at the regularised minimiser.

    LOSS_ONLY: the weighted classification loss alone.
    LOSS_PLUS_REG: the weighted loss plus the ridge penalty, i.e. the full
    minimised objective.  The latter is quasi-concave in the query location.
    """

    LOSS_ONLY = "loss"
    LOSS_PLUS_REG = "loss+reg"


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


def weighted_expectation(positive_losses, negative_loss):
    """Expected loss under the two-class weighting, the one place it is
    written: every depth reports it for its own pointwise losses.

    Args:
        positive_losses: loss values at the n reference points, weight 1/(2n)
            each, along the last axis: one row of shape (n,) or rows of shape
            (..., n), read without a copy.
        negative_loss: loss value at the query point, weight 1/2, of shape
            (...), one per row.

    Each row's value is its own sum over the last axis, so a row has the same
    bits alone or among others.  A single row returns a float, rows an array.
    """
    pos = np.atleast_1d(np.asarray(positive_losses, dtype=float))
    if pos.shape[-1] < 1:
        raise ValidationError("weighted expectation needs at least one reference loss")
    neg = np.asarray(negative_loss, dtype=float)
    value = pos.sum(axis=-1) / (2.0 * pos.shape[-1]) + 0.5 * neg
    return float(value) if value.ndim == 0 else value


def lambda_violation(lam: float) -> str | None:
    """Why the ridge strength lam admits no unique regularised minimiser, or
    None when it does: lam must be finite and positive."""
    if 0.0 < lam < math.inf:
        return None
    return "minimizer may be unbounded: lambda must be positive for a unique regularised minimiser"


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Depth value plus solver diagnostics.

    converged implies residual is at or below the solver tolerance that
    produced it.  coefficients are the classifier weights for the logistic
    depth (d + intercept reals, intercept last) or the dual coefficients for
    the kernel depth (n + 1 reals, query last; with an intercept an extra
    trailing offset value), and empty for the halfspace depth.
    """

    value: float
    iterations: int
    residual: float
    converged: bool
    coefficients: np.ndarray | None = None


def as_data_matrix(values) -> DataMatrix:
    return values if isinstance(values, DataMatrix) else DataMatrix(values)
