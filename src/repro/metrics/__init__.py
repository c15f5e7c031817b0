"""Evaluation metrics and data splitting.

The paper reports training loss only; a usable library also needs
held-out evaluation.  Metrics are plain functions over (labels,
predictions); :func:`train_test_split` partitions a Dataset; and
:func:`evaluate_classifier` bundles the common report for a trained
model.
"""

from repro.metrics.classification import accuracy, log_loss, roc_auc
from repro.metrics.split import train_test_split
from repro.metrics.evaluate import evaluate_classifier

__all__ = [
    "accuracy",
    "log_loss",
    "roc_auc",
    "train_test_split",
    "evaluate_classifier",
]
