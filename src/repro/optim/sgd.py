"""Plain SGD with optional classical momentum."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer
from repro.optim.schedules import Schedule
from repro.utils.validation import check_probability


class SGD(Optimizer):
    """``w <- w - eta_t * g`` (+ momentum buffer when ``momentum > 0``)."""

    name = "sgd"

    def __init__(self, learning_rate: float, momentum: float = 0.0, schedule: Schedule = None):
        super().__init__(learning_rate, schedule)
        check_probability(momentum, "momentum")
        self.momentum = float(momentum)
        self._velocity = None

    def step(self, params, gradient, iteration):
        rate = self.effective_rate(iteration)
        if self.momentum == 0.0:
            rows, gradient = self._rows_of(params, gradient)
            params[rows] -= rate * gradient
            return params
        gradient = self._dense(params, gradient)
        if self._velocity is None:
            # Lazy one-time state allocation (amortized O(1) per round);
            # every SGD system keeps dense optimizer state of model size.
            self._velocity = np.zeros_like(params)
        self._velocity *= self.momentum
        self._velocity += gradient
        params -= rate * self._velocity
        return params

    def spawn(self):
        return SGD(self.learning_rate, momentum=self.momentum, schedule=self.schedule)

    def reset(self):
        self._velocity = None

    def state_arrays(self):
        return [] if self._velocity is None else [self._velocity]

    def load_state_arrays(self, arrays):
        (slot,) = arrays or [None]
        self._velocity = None if slot is None else np.array(slot, copy=True)
