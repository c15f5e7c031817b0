"""Optimizer interface.

An optimizer instance owns the state for exactly one parameter array (a
model partition in distributed runs, the full model on a single
machine).  ``spawn()`` creates a fresh instance with the same
hyper-parameters but blank state — one per worker partition.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.optim.schedules import ConstantSchedule, Schedule
from repro.utils.validation import check_positive


class Optimizer:
    """Base class for coordinate-wise optimizers."""

    name = "abstract"

    def __init__(self, learning_rate: float, schedule: Schedule = None):
        check_positive(learning_rate, "learning_rate")
        self.learning_rate = float(learning_rate)
        self.schedule = schedule if schedule is not None else ConstantSchedule()

    def effective_rate(self, iteration: int) -> float:
        """Base rate times the schedule factor at ``iteration``."""
        return self.learning_rate * self.schedule.factor(iteration)

    def step(self, params: np.ndarray, gradient: np.ndarray, iteration: int) -> np.ndarray:
        """Apply one update **in place** and return ``params``.

        ``gradient`` must match ``params`` in shape.
        """
        raise NotImplementedError

    def spawn(self) -> "Optimizer":
        """A fresh same-hyper-parameter instance with empty state."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear accumulated state (moments, squared sums)."""
        raise NotImplementedError

    def state_arrays(self) -> List[np.ndarray]:
        """The accumulated state as float arrays (``[]`` when blank) —
        what a checkpoint stores; hyper-parameters are not state."""
        raise NotImplementedError

    def load_state_arrays(self, arrays: Sequence[np.ndarray]) -> None:
        """Adopt (copies of) what :meth:`state_arrays` returned."""
        raise NotImplementedError

    def _check_shapes(self, params: np.ndarray, gradient: np.ndarray) -> None:
        if params.shape != gradient.shape:
            raise ValueError(
                "gradient shape {} != params shape {}".format(gradient.shape, params.shape)
            )
