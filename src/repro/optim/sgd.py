"""Plain SGD, the paper's optimizer."""

from __future__ import annotations

from repro.optim.base import Optimizer


class SGD(Optimizer):
    """``w <- w - eta * g``; stateless."""

    name = "sgd"

    def step(self, params, gradient):
        rows, gradient = self._rows_of(params, gradient)
        params[rows] -= self.learning_rate * gradient
        return params

    def spawn(self):
        return SGD(self.learning_rate)

    def reset(self):
        pass

    def state_arrays(self):
        return []

    def load_state_arrays(self, arrays):
        pass
