"""Adam (Kingma & Ba, 2014) — supported per the paper's Section III-A."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer
from repro.optim.schedules import Schedule
from repro.utils.validation import check_positive, check_probability


class Adam(Optimizer):
    """Bias-corrected first/second-moment adaptive steps."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        schedule: Schedule = None,
    ):
        super().__init__(learning_rate, schedule)
        check_probability(beta1, "beta1")
        check_probability(beta2, "beta2")
        check_positive(epsilon, "epsilon")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params, gradient, iteration):
        gradient = self._dense(params, gradient)
        if self._m is None:
            # Lazy one-time state allocation, amortized O(1) per round.
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * gradient
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * gradient ** 2
        m_hat = self._m / (1.0 - self.beta1 ** self._t)
        v_hat = self._v / (1.0 - self.beta2 ** self._t)
        rate = self.effective_rate(iteration)
        params -= rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        return params

    def spawn(self):
        return Adam(
            self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            schedule=self.schedule,
        )

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
