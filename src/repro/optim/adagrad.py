"""AdaGrad (Duchi et al., 2011) — the paper cites it as a supported variant."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

#: Added to the root of the squared-gradient sum before dividing.
EPSILON = 1e-8


class AdaGrad(Optimizer):
    """``w <- w - eta * g / (sqrt(sum g^2) + eps)`` per coordinate."""

    name = "adagrad"

    def __init__(self, learning_rate: float):
        super().__init__(learning_rate)
        self._accumulator = None

    def step(self, params, gradient):
        rows, gradient = self._rows_of(params, gradient)
        if self._accumulator is None:
            # Lazy one-time state allocation, amortized O(1) per round.
            self._accumulator = np.zeros_like(params)
        self._accumulator[rows] += gradient ** 2
        params[rows] -= (
            self.learning_rate * gradient / (np.sqrt(self._accumulator[rows]) + EPSILON)
        )
        return params

    def spawn(self):
        return AdaGrad(self.learning_rate)

    def reset(self):
        self._accumulator = None

    def state_arrays(self):
        return [] if self._accumulator is None else [self._accumulator]

    def load_state_arrays(self, arrays):
        (slot,) = arrays or [None]
        self._accumulator = None if slot is None else np.array(slot, copy=True)
