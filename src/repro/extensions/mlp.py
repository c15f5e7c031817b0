"""Column-partitioned multi-layer perceptron (Section III-C).

Architecture: ``score = tail(tanh(W1^T x + b1))`` where ``tail`` is a
stack of tanh layers (``hidden_sizes = [H1, H2, ...]``) ending in a
scalar logistic output ``w_out . a + b_out``; labels in {-1, +1}.

The FC layer is ColumnSGD with wider statistics, so
:class:`ColumnMLP` is a :class:`~repro.models.base.StatisticsModel`
that :class:`~repro.core.driver.ColumnSGDDriver` runs like any other,
on every backend and on store-backed loads:

* ``W1`` (m x H1, the only tensor that scales with the feature
  dimension) is the model the driver partitions by *input feature*
  (rows of W1), collocated with the column-partitioned data, exactly
  like a GLM's;
* the per-example pre-activations ``Z = X W1`` are additive over column
  shards, so they are the *statistics* — ``B * H1`` values per
  iteration, independent of m and of the depth;
* the tail ``(b1, W2/b2, ..., w_out, b_out)`` is small — the paper's
  "the width of each individual layer in DNN is usually not large in
  practice" — and has one owner, the model at the master:
  :meth:`ColumnMLP.master_step` runs the backward pass through it on the
  reduced Z and the batch's labels, steps it, and broadcasts
  ``delta1 = d(loss)/dZ`` in Z's place (Z's shape, Z's bytes), so the
  tail adds no traffic.

Backward pass with one hidden layer, given complete ``Z``::

    A      = tanh(Z + b1)
    s_i    = A_i . w_out + b_out
    c_i    = -y_i / (1 + exp(y_i s_i))          # logistic, as LR
    delta  = (c outer w_out) * (1 - A^2)        # B x H1, broadcast
    dW1_k  = X_k^T delta / B                    # each worker's shard gradient
    dw_out = A^T c / B ;  db1 = sum(delta)/B ;  db_out = sum(c)/B

Deeper tails carry ``delta`` back through each ``W_l`` first.
:class:`SequentialMLP` is the single-machine reference the exactness
tests compare against.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.linalg import CSRMatrix, accumulate_rows, row_dots
from repro.models.base import StatisticsModel
from repro.models.losses import LogisticLoss, _sigmoid
from repro.optim.base import Optimizer
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive

_LOGISTIC = LogisticLoss()

#: Standard deviation of the first-layer weights at init.
INIT_STD = 0.5


class ColumnMLP(StatisticsModel):
    """The column-partitioned network as a statistics model.

    ``hidden_sizes = [H1, H2, ...]``: H1 is the partitioned first-layer
    width (the statistics width); the rest are tail layers.  The params
    are ``W1``, at ``N(0, INIT_STD)``; every tail weight starts at
    ``N(0, INIT_STD / sqrt(fan_in))``, and ``out_std``, when given, is
    the output weights' standard deviation instead.

    Unlike the GLMs the model holds state: ``tail``, which
    :meth:`init_params` restarts and :meth:`master_step` steps, so one
    instance serves one driver.
    """

    def __init__(
        self,
        hidden_sizes: Sequence[int],
        out_std: Optional[float] = None,
    ):
        if not hidden_sizes:
            raise ValueError("need at least one hidden layer")
        for h in hidden_sizes:
            check_positive(h, "hidden size")
        if out_std is not None:
            check_positive(out_std, "out_std")
        self.hidden_sizes = [int(h) for h in hidden_sizes]
        self.out_std = None if out_std is None else float(out_std)
        self.name = "mlp-{}".format("x".join(map(str, self.hidden_sizes)))
        #: values synchronised per example: the first hidden width
        self.statistics_width = self.hidden_sizes[0]
        self.tail: Dict[str, np.ndarray] = {}
        self._tail_optimizers: Dict[str, Optimizer] = {}

    # -- layout ---------------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        return (n_features, self.statistics_width)

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        """A fresh ``W1``; the tail restarts from :meth:`init_tail` with
        fresh optimizer state."""
        self.tail = self.init_tail(seed=seed)
        self._tail_optimizers = {}
        rng = rng_from_seed(seed)
        return rng.normal(0.0, INIT_STD, size=self.param_shape(n_features))

    def init_tail(self, seed=None) -> Dict[str, np.ndarray]:
        """The tail's parameters: per tail layer a weight matrix and
        bias, plus the scalar output."""
        rng = rng_from_seed(None if seed is None else seed + 1)
        tail: Dict[str, np.ndarray] = {"b1": np.zeros(self.hidden_sizes[0])}
        widths = self.hidden_sizes
        for layer in range(1, len(widths)):
            fan_in = widths[layer - 1]
            tail["W{}".format(layer + 1)] = rng.normal(
                0.0, INIT_STD / np.sqrt(fan_in), size=(fan_in, widths[layer])
            )
            tail["b{}".format(layer + 1)] = np.zeros(widths[layer])
        fan_in = widths[-1]
        out_std = self.out_std
        if out_std is None:
            out_std = INIT_STD / np.sqrt(fan_in)
        tail["w_out"] = rng.normal(0.0, out_std, size=fan_in)
        tail["b_out"] = np.zeros(1)
        return tail

    # -- the decomposition ------------------------------------------------
    def compute_statistics(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        """The shard's contribution to ``Z = X W1`` (additive)."""
        return row_dots(features, params)

    def forward(self, z: np.ndarray, tail: Dict[str, np.ndarray]):
        """Activations per layer and scalar scores, from complete Z."""
        activations = [np.tanh(np.asarray(z) + tail["b1"])]
        for layer in range(2, len(self.hidden_sizes) + 1):
            pre = activations[-1] @ tail["W{}".format(layer)] + tail["b{}".format(layer)]
            activations.append(np.tanh(pre))
        scores = activations[-1] @ tail["w_out"] + tail["b_out"][0]
        return activations, scores

    def loss_from_statistics(self, statistics, labels, tail=None) -> float:
        """Mean logistic loss through ``tail`` (default: the model's)."""
        _, scores = self.forward(statistics, self.tail if tail is None else tail)
        losses = _LOGISTIC.loss(scores, labels)
        return float(np.mean(losses)) if losses.size else 0.0

    def predict_from_statistics(self, statistics) -> np.ndarray:
        """P(y = +1 | x)."""
        return _sigmoid(self.forward(statistics, self.tail)[1])

    def backward(
        self, z: np.ndarray, labels: np.ndarray, tail: Dict[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Gradients of ``tail`` and the delta feeding W1.

        Returns ``(tail_grads, delta1)`` where ``delta1`` (B x H1) is
        d(loss)/d(Z), what the master (:meth:`master_step`) broadcasts
        in Z's place.
        """
        labels = np.asarray(labels, dtype=np.float64)
        batch = max(labels.size, 1)
        activations, scores = self.forward(z, tail)
        c = _LOGISTIC.derivative(scores, labels)  # dl/dscore

        grads: Dict[str, np.ndarray] = {
            "w_out": activations[-1].T @ c / batch,
            "b_out": np.array([c.sum() / batch]),
        }
        # delta at the top tail activation
        delta = (c[:, None] * tail["w_out"][None, :]) * (1.0 - activations[-1] ** 2)
        for layer in range(len(self.hidden_sizes), 1, -1):
            w_key = "W{}".format(layer)
            grads[w_key] = activations[layer - 2].T @ delta / batch
            grads["b{}".format(layer)] = delta.sum(axis=0) / batch
            delta = (delta @ tail[w_key].T) * (1.0 - activations[layer - 2] ** 2)
        grads["b1"] = delta.sum(axis=0) / batch
        return grads, delta

    def master_step(self, statistics, labels, optimizer=None) -> np.ndarray:
        """``delta1``, from the backward pass through the tail on the
        complete Z and ``labels()``; with ``optimizer``, the tail then
        steps, each tensor with its own spawned copy."""
        tail_grads, delta1 = self.backward(statistics, labels(), self.tail)
        if optimizer is not None:
            if not self._tail_optimizers:
                self._tail_optimizers = {k: optimizer.spawn() for k in self.tail}
            for key, grad in tail_grads.items():
                self._tail_optimizers[key].step(self.tail[key], grad)
        return delta1

    def gradient_from_statistics(self, features, labels, coefficients, params):
        """The shard's ``dW1_k = X_k^T delta1 / B``, over the rows it
        touches; ``coefficients`` is the broadcast ``delta1``."""
        self._check_labels(features, labels)
        gradient = accumulate_rows(features, coefficients)
        gradient.values /= max(len(labels), 1)
        return gradient


class SequentialMLP:
    """Single-machine reference used by the exactness tests."""

    def __init__(self, model: ColumnMLP, optimizer: Optimizer, n_features: int, seed=0):
        self.model = model
        self.w1 = model.init_params(n_features, seed=seed)
        self.tail = model.init_tail(seed=seed)
        self._opt_w1 = optimizer.spawn()
        self._opt_tail = {k: optimizer.spawn() for k in self.tail}

    def loss(self, features: CSRMatrix, labels) -> float:
        z = self.model.compute_statistics(features, self.w1)
        return self.model.loss_from_statistics(z, labels, self.tail)

    def step(self, features: CSRMatrix, labels) -> None:
        z = self.model.compute_statistics(features, self.w1)
        tail_grads, delta1 = self.model.backward(z, labels, self.tail)
        grad_w1 = self.model.gradient_from_statistics(features, labels, delta1, self.w1)
        self._opt_w1.step(self.w1, grad_w1)
        for key, grad in tail_grads.items():
            self._opt_tail[key].step(self.tail[key], grad)
