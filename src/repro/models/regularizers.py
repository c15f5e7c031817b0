"""Separable regularizers Omega(w).

Separability matters: because the penalty decomposes over coordinates,
each ColumnSGD worker can apply the regularization gradient to its own
model partition with no communication — the same locality argument as
the data gradient.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative


class Regularizer:
    """Interface: penalty value and (sub)gradient, both coordinate-wise."""

    name = "abstract"

    def penalty(self, model: np.ndarray) -> float:
        """Omega(w) for the given (partition of the) model."""
        raise NotImplementedError

    def gradient(self, model: np.ndarray) -> np.ndarray:
        """d Omega / d w, same shape as ``model`` (callers must not write to it)."""
        raise NotImplementedError


class NoRegularizer(Regularizer):
    """Omega(w) = 0."""

    name = "none"

    def penalty(self, model):
        return 0.0

    def gradient(self, model):
        # Zeros of the model's shape with no buffer behind them (a
        # read-only zero-stride view); StatisticsModel.add_penalty skips
        # even this.
        return np.broadcast_to(0.0, np.shape(model))


class L2(Regularizer):
    """Omega(w) = lambda/2 * ||w||^2."""

    name = "l2"

    def __init__(self, lam: float):
        check_non_negative(lam, "lam")
        self.lam = float(lam)

    def penalty(self, model):
        return 0.5 * self.lam * float(np.sum(np.square(model)))

    def gradient(self, model):
        return self.lam * model


class L1(Regularizer):
    """Omega(w) = lambda * |w|, with the sign subgradient at 0 -> 0."""

    name = "l1"

    def __init__(self, lam: float):
        check_non_negative(lam, "lam")
        self.lam = float(lam)

    def penalty(self, model):
        return self.lam * float(np.sum(np.abs(model)))

    def gradient(self, model):
        return self.lam * np.sign(model)
