"""Binary-classification metrics for labels in {-1, +1}.

Predictions are probabilities of the positive class (what
``LogisticRegression.predict`` and the FM return); threshold-based
metrics cut at :data:`THRESHOLD`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DataError

#: Probability at or above which a prediction is the positive class.
THRESHOLD = 0.5
#: Probabilities are clipped to ``[EPS, 1 - EPS]`` before the log.
EPS = 1e-12


def _check_pair(labels, scores) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise DataError(
            "labels {} and predictions {} must be matching 1-D arrays".format(
                labels.shape, scores.shape
            )
        )
    if labels.size == 0:
        raise DataError("cannot score an empty batch")
    if not set(np.unique(labels)) <= {-1.0, 1.0}:
        raise DataError("binary metrics expect labels in {-1, +1}")
    return labels, scores


def accuracy(labels, probabilities) -> float:
    """Fraction of correct hard decisions at :data:`THRESHOLD`."""
    labels, probs = _check_pair(labels, probabilities)
    predicted = np.where(probs >= THRESHOLD, 1.0, -1.0)
    return float(np.mean(predicted == labels))


def log_loss(labels, probabilities) -> float:
    """Mean negative log likelihood of the true labels."""
    labels, probs = _check_pair(labels, probabilities)
    probs = np.clip(probs, EPS, 1.0 - EPS)
    positive = (labels + 1.0) / 2.0
    return float(-np.mean(positive * np.log(probs) + (1 - positive) * np.log(1 - probs)))


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic.

    Equivalent to the Mann-Whitney U normalisation; ties get midranks.
    Raises when only one class is present (AUC undefined).
    """
    labels, scores = _check_pair(labels, scores)
    positives = labels > 0
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_auc needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    rank_position = 1.0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        midrank = (rank_position + (rank_position + (j - i))) / 2.0
        ranks[order[i:j + 1]] = midrank
        rank_position += j - i + 1
        i = j + 1
    rank_sum_pos = float(ranks[positives].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)
