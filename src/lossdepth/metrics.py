"""Ranking metrics: ROC area and two rank correlations.

All three handle ties explicitly.  The AUC uses midranks, matching the
probability that a random inlier outscores a random outlier with ties worth
one half.  Correlations on a constant sequence are undefined and raise
instead of returning a quiet NaN.
"""
from __future__ import annotations

import numpy as np

from .core import LossDepthError, ValidationError


class UndefinedCorrelationError(LossDepthError):
    """Raised when a rank correlation has no value, e.g. constant scores."""


def auc_roc(scores, inlier) -> float:
    """Area under the ROC curve for separating inliers from outliers.

    Computed from midranks: AUC = (R_pos - n_pos (n_pos + 1) / 2) / (n_pos n_neg)
    where R_pos is the rank sum of the inlier scores.  Ties contribute half.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    inlier = np.asarray(inlier, dtype=bool).reshape(-1)
    if scores.size != inlier.size:
        raise ValidationError(
            f"scores and labels disagree in length: {scores.size} vs {inlier.size}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores contain non-finite entries")
    n_pos = int(np.count_nonzero(inlier))
    n_neg = inlier.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("auc needs at least one inlier and one outlier")
    from scipy.stats import rankdata  # scipy.stats takes most of a second to import

    ranks = rankdata(scores)
    rank_sum = float(ranks[inlier].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _correlation_inputs(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=float).reshape(-1)
    y = np.asarray(b, dtype=float).reshape(-1)
    if x.size != y.size:
        raise ValidationError(f"sequences disagree in length: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValidationError("rank correlation needs at least two observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("rank correlation inputs contain non-finite entries")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise UndefinedCorrelationError("rank correlation is undefined for a constant sequence")
    return x, y


def _statistic(result) -> float:
    value = getattr(result, "statistic", None)
    if value is None:
        value = result[0]
    value = float(value)
    if not np.isfinite(value):
        raise UndefinedCorrelationError("rank correlation came back non-finite")
    return value


def kendall_tau(a, b) -> float:
    """Kendall correlation with tie correction (the tau-b variant)."""
    from scipy.stats import kendalltau

    x, y = _correlation_inputs(a, b)
    return _statistic(kendalltau(x, y))


def spearman_rho(a, b) -> float:
    """Pearson correlation of midranks."""
    from scipy.stats import spearmanr

    x, y = _correlation_inputs(a, b)
    return _statistic(spearmanr(x, y))
