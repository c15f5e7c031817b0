"""Plain SGD, the paper's optimizer."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer


class SGD(Optimizer):
    """``w <- w - eta * g``; stateless."""

    name = "sgd"

    def step(self, params, gradient):
        rows, values = self._rows_of(params, gradient)
        if isinstance(rows, slice):  # every row, in place
            params[rows] -= self.learning_rate * values
            return params
        # The step owns a row gradient's block (RowGradient): scaled in
        # place and subtracted from the gathered rows, it gives the bits
        # of ``params[rows] -= lr * values`` with one temporary fewer.
        values *= self.learning_rate
        block = np.take(params, rows, axis=0)
        block -= values
        params[rows] = block
        return params

    def spawn(self):
        return SGD(self.learning_rate)

    def reset(self):
        pass

    def state_arrays(self):
        return []

    def load_state_arrays(self, arrays):
        pass
