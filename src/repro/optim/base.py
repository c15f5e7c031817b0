"""Optimizer interface.

An optimizer instance owns the state for exactly one parameter array (a
model partition in distributed runs, the full model on a single
machine).  ``spawn()`` creates a fresh instance with the same
hyper-parameters but blank state — one per worker partition.

``step`` takes the gradient in either of two forms: a dense array shaped
like the parameters, or the :class:`~repro.linalg.RowGradient` a model's
``gradient_from_statistics`` returns (rows the mini-batch touched + their
values; every row, as a plain slice, for a user-defined model's dense
return).  An optimizer whose update of a row depends on that row's
gradient alone *and* is the identity for a zero gradient (SGD, AdaGrad)
applies a ``RowGradient`` to its rows only — bit for bit what the dense
step computes, since every other row would receive ``+0.0``.  One with
decaying state (Adam) moves every row every step, so it densifies the
gradient — here, once — and runs its dense arithmetic.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.linalg import EVERY_ROW, RowGradient
from repro.utils.validation import check_positive


class Optimizer:
    """Base class for coordinate-wise optimizers."""

    name = "abstract"

    def __init__(self, learning_rate: float):
        check_positive(learning_rate, "learning_rate")
        self.learning_rate = float(learning_rate)

    def step(
        self, params: np.ndarray, gradient: Union[np.ndarray, RowGradient]
    ) -> np.ndarray:
        """Apply one update **in place** and return ``params``.

        ``gradient`` is a dense array matching ``params`` in shape or a
        :class:`~repro.linalg.RowGradient` over it; the step may overwrite
        a row gradient's compact ``values``.
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

    def _rows_of(self, params: np.ndarray, gradient) -> Tuple[object, np.ndarray]:
        """``(rows, values)`` with ``params[rows]`` the rows to update:
        a row gradient's own rows, every row for a dense one."""
        self._check_shapes(params, gradient)
        if isinstance(gradient, RowGradient):
            return gradient.cols, gradient.values
        return slice(None), gradient

    def _dense(self, params: np.ndarray, gradient) -> np.ndarray:
        """``gradient`` as a dense array shaped like ``params``."""
        self._check_shapes(params, gradient)
        if isinstance(gradient, RowGradient):
            # Decaying state moves every row every step: O(d/K) by nature.
            return gradient.to_dense()
        return gradient

    def _check_shapes(self, params: np.ndarray, gradient) -> None:
        if params.shape != gradient.shape:
            raise ValueError(
                "gradient shape {} != params shape {}".format(gradient.shape, params.shape)
            )
        if isinstance(gradient, RowGradient):
            cols, values = gradient.cols, gradient.values
            every = cols is EVERY_ROW
            block = (params.shape[:1] if every else cols.shape) + params.shape[1:]
            if values.shape != block:
                raise ValueError(
                    "gradient shape {} != params shape {}".format(values.shape, block)
                )
            if not every and cols.size and not (
                0 <= cols.min() <= cols.max() < params.shape[0]
            ):
                raise ValueError(
                    "gradient rows [{}, {}] outside params rows [0, {})".format(
                        cols.min(), cols.max(), params.shape[0]
                    )
                )
