"""Bundled evaluation report for a trained classifier."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.datasets.dataset import Dataset
from repro.metrics.classification import accuracy, log_loss, roc_auc
from repro.models.base import StatisticsModel


def evaluate_classifier(
    model: StatisticsModel, params: np.ndarray, dataset: Dataset
) -> Dict[str, float]:
    """Accuracy / AUC / log-loss of a binary classifier on a dataset.

    ``model.predict`` must return positive-class probabilities (true for
    LR and FM; for SVM use margins with :func:`roc_auc` directly).
    """
    probabilities = model.predict(dataset.features, params)
    return {
        "accuracy": accuracy(dataset.labels, probabilities),
        "auc": roc_auc(dataset.labels, probabilities),
        "log_loss": log_loss(dataset.labels, probabilities),
    }

