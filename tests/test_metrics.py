"""Ranking metrics: AUC with midrank ties, Kendall and Spearman correlation."""
import numpy as np
import pytest

from lossdepth.core import ValidationError
from lossdepth.metrics import (
    UndefinedCorrelationError,
    auc_roc,
    kendall_tau,
    spearman_rho,
)


def test_auc_perfect_and_reversed():
    assert auc_roc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
    assert auc_roc([0.1, 0.2, 0.8, 0.9], [True, True, False, False]) == 0.0


def test_auc_tie_uses_midranks():
    # pairs: (3,1)=1, (3,2)=1, (2,1)=1, (2,2)=1/2 -> 3.5/4
    scores = [3.0, 2.0, 1.0, 2.0]
    inlier = [True, True, False, False]
    assert auc_roc(scores, inlier) == pytest.approx(0.875)


def test_auc_constant_scores_is_chance():
    assert auc_roc([1.0, 1.0, 1.0, 1.0], [True, False, True, False]) == pytest.approx(0.5)


def test_auc_label_oracle_is_one():
    labels = np.array([True, False, True, True, False])
    assert auc_roc(labels.astype(float), labels) == 1.0


def test_auc_matches_pair_counting_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)  # rounding makes ties likely
        inlier = rng.integers(0, 2, size=n).astype(bool)
        if inlier.all() or not inlier.any():
            inlier[0] = ~inlier[0]
        pos = scores[inlier]
        neg = scores[~inlier]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        expected = wins / (pos.size * neg.size)
        assert auc_roc(scores, inlier) == pytest.approx(expected, abs=1e-12)


def test_auc_requires_both_classes():
    with pytest.raises(ValidationError):
        auc_roc([1.0, 2.0], [True, True])
    with pytest.raises(ValidationError):
        auc_roc([1.0, 2.0], [False, False])


def test_auc_length_mismatch():
    with pytest.raises(ValidationError):
        auc_roc([1.0, 2.0, 3.0], [True, False])


def test_kendall_single_swap():
    # one discordant pair out of three: (2 - 1) / 3
    assert kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(1.0 / 3.0)


def test_spearman_single_swap():
    assert spearman_rho([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_correlations_at_the_extremes():
    a = [1.0, 2.0, 3.0, 4.0]
    assert kendall_tau(a, a) == pytest.approx(1.0)
    assert spearman_rho(a, a) == pytest.approx(1.0)
    assert kendall_tau(a, a[::-1]) == pytest.approx(-1.0)
    assert spearman_rho(a, a[::-1]) == pytest.approx(-1.0)


def test_kendall_handles_ties_as_tau_b():
    # one tied pair on the left: 5 concordant pairs, none discordant,
    # denominator sqrt((6 - 1) * 6)
    tau = kendall_tau([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert tau == pytest.approx(5.0 / np.sqrt(30.0))


def test_constant_input_raises():
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman_rho([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_correlation_input_validation():
    with pytest.raises(ValidationError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(ValidationError):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        spearman_rho([1.0, np.nan], [1.0, 2.0])


def test_correlations_are_symmetric():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(25)
    b = rng.standard_normal(25)
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-15)
    assert spearman_rho(a, b) == pytest.approx(spearman_rho(b, a), abs=1e-15)
