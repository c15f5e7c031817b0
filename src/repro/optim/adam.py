"""Adam (Kingma & Ba, 2014) — supported per the paper's Section III-A."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

#: Decay of the first-moment estimate.
BETA1 = 0.9
#: Decay of the second-moment estimate.
BETA2 = 0.999
#: Added to the root of the second moment before dividing.
EPSILON = 1e-8


class Adam(Optimizer):
    """Bias-corrected first/second-moment adaptive steps."""

    name = "adam"

    def __init__(self, learning_rate: float):
        super().__init__(learning_rate)
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params, gradient):
        gradient = self._dense(params, gradient)
        if self._m is None:
            # Lazy one-time state allocation, amortized O(1) per round.
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        self._m *= BETA1
        self._m += (1.0 - BETA1) * gradient
        self._v *= BETA2
        self._v += (1.0 - BETA2) * gradient ** 2
        m_hat = self._m / (1.0 - BETA1 ** self._t)
        v_hat = self._v / (1.0 - BETA2 ** self._t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        return params

    def spawn(self):
        return Adam(self.learning_rate)

    def reset(self):
        self._m = None
        self._v = None
        self._t = 0

    def state_arrays(self):
        if self._m is None:
            return []
        # the step count rides along as a one-element array (exact in
        # float64 far beyond any run length)
        return [self._m, self._v, np.array([self._t], dtype=np.float64)]

    def load_state_arrays(self, arrays):
        self.reset()
        if arrays:
            m, v, t = arrays
            self._m, self._v = np.array(m, copy=True), np.array(v, copy=True)
            self._t = int(t[0])
