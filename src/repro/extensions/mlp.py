"""Column-partitioned multi-layer perceptron (Section III-C).

Architecture: ``score = tail(tanh(W1^T x + b1))`` where ``tail`` is a
stack of tanh layers (``hidden_sizes = [H1, H2, ...]``) ending in a
scalar logistic output ``w_out . a + b_out``; labels in {-1, +1}.

Distribution strategy, following the paper's FC-layer discussion:

* ``W1`` (m x H1, the only tensor that scales with the feature
  dimension) is partitioned by *input feature* (rows of W1), collocated
  with the column-partitioned data, exactly like a GLM model;
* the per-example pre-activations ``Z = X W1`` are additive over column
  shards, so they are the *statistics* — ``B * H1`` values per
  iteration, independent of m and of the depth;
* the tail ``(b1, W2/b2, ..., w_out, b_out)`` is small and *replicated*
  on every worker.  Given the broadcast ``Z``, every worker computes the
  identical tail gradient locally, so the replicas stay bit-identical
  with no extra communication — the paper's argument that "the width of
  each individual layer in DNN is usually not large in practice".

Backward pass with one hidden layer, all local given complete ``Z``::

    A      = tanh(Z + b1)
    s_i    = A_i . w_out + b_out
    c_i    = -y_i / (1 + exp(y_i s_i))          # logistic, as LR
    delta  = (c outer w_out) * (1 - A^2)        # B x H1
    dW1_k  = X_k^T delta / B                    # local shard gradient
    dw_out = A^T c / B ;  db1 = sum(delta)/B ;  db_out = sum(c)/B

Deeper tails carry ``delta`` back through each ``W_l`` first.
:class:`MLPColumnTrainer` runs this on the simulated cluster with the
same loading, indexing and timing machinery as the GLM driver;
:class:`SequentialMLP` is the single-machine reference the exactness
tests compare against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.trainer import Trainer
from repro.datasets.dataset import Dataset
from repro.engine import BarrierSync, CommPhase, ComputePhase, MasterPhase, RoundSpec
from repro.errors import TrainingError
from repro.linalg import CSRMatrix, row_dots
from repro.linalg.ops import accumulate_rows
from repro.models.losses import LogisticLoss
from repro.net.message import MessageKind
from repro.optim.base import Optimizer
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.partition.indexing import TwoPhaseIndex
from repro.sim.cluster import SimulatedCluster
from repro.storage.serialization import dense_vector_bytes
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive

_LOGISTIC = LogisticLoss()

#: Standard deviation of the first-layer weights at init.
INIT_STD = 0.5


class ColumnMLP:
    """Model math for the column-partitioned network.

    ``hidden_sizes = [H1, H2, ...]``: H1 is the partitioned first-layer
    width (the statistics width); the rest are replicated tail layers.
    ``W1`` starts at ``N(0, INIT_STD)`` and every tail weight at
    ``N(0, INIT_STD / sqrt(fan_in))``; ``out_std``, when given, is the
    output weights' standard deviation instead.
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

    @property
    def statistics_width(self) -> int:
        """Values synchronised per example: the first hidden width."""
        return self.hidden_sizes[0]

    # -- initialisation ---------------------------------------------------
    def init_w1(self, n_features: int, seed=None) -> np.ndarray:
        rng = rng_from_seed(seed)
        return rng.normal(0.0, INIT_STD, size=(n_features, self.hidden_sizes[0]))

    def init_tail(self, seed=None) -> Dict[str, np.ndarray]:
        """Replicated parameters: per tail layer a weight matrix and
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

    # -- forward / backward -------------------------------------------------
    def partial_statistics(self, shard: CSRMatrix, w1_part: np.ndarray) -> np.ndarray:
        """Shard's contribution to ``Z = X W1`` (additive)."""
        return row_dots(shard, w1_part)

    def forward(self, z: np.ndarray, tail: Dict[str, np.ndarray]):
        """Activations per layer and scalar scores, from complete Z."""
        activations = [np.tanh(np.asarray(z) + tail["b1"])]
        for layer in range(2, len(self.hidden_sizes) + 1):
            pre = activations[-1] @ tail["W{}".format(layer)] + tail["b{}".format(layer)]
            activations.append(np.tanh(pre))
        scores = activations[-1] @ tail["w_out"] + tail["b_out"][0]
        return activations, scores

    def loss_from_statistics(self, z, labels, tail) -> float:
        _, scores = self.forward(z, tail)
        losses = _LOGISTIC.loss(scores, labels)
        return float(np.mean(losses)) if losses.size else 0.0

    def backward(
        self, z: np.ndarray, labels: np.ndarray, tail: Dict[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Gradients of the replicated tail and the delta feeding W1.

        Returns ``(tail_grads, delta1)`` where ``delta1`` (B x H1) is
        d(loss)/d(Z): every worker computes the identical values from
        the broadcast Z, then its own ``dW1_k = X_k^T delta1 / B``.
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

    def w1_gradient(self, shard: CSRMatrix, delta1: np.ndarray, batch: int):
        """Local first-layer gradient ``X_k^T delta1 / B``, over the rows
        the shard touches (a :class:`~repro.linalg.RowGradient`)."""
        gradient = accumulate_rows(shard, delta1)
        gradient.values /= max(batch, 1)
        return gradient


class SequentialMLP:
    """Single-machine reference used by the exactness tests."""

    def __init__(self, model: ColumnMLP, optimizer: Optimizer, n_features: int, seed=0):
        self.model = model
        self.w1 = model.init_w1(n_features, seed=seed)
        self.tail = model.init_tail(seed=seed)
        self._opt_w1 = optimizer.spawn()
        self._opt_tail = {k: optimizer.spawn() for k in self.tail}

    def loss(self, features: CSRMatrix, labels) -> float:
        z = self.model.partial_statistics(features, self.w1)
        return self.model.loss_from_statistics(z, labels, self.tail)

    def step(self, features: CSRMatrix, labels) -> None:
        z = self.model.partial_statistics(features, self.w1)
        tail_grads, delta1 = self.model.backward(z, labels, self.tail)
        grad_w1 = self.model.w1_gradient(features, delta1, features.n_rows)
        self._opt_w1.step(self.w1, grad_w1)
        for key, grad in tail_grads.items():
            self._opt_tail[key].step(self.tail[key], grad)


class MLPColumnTrainer(Trainer):
    """ColumnSGD-style distributed training of :class:`ColumnMLP`.

    One ``B x H1`` statistics round per iteration (one synchronisation
    for the FC layer, as Section III-C prescribes); the replicated tail
    is updated identically on every worker from the broadcast Z, so a
    single logical copy stands in for the replicas.
    """

    def __init__(
        self,
        model: ColumnMLP,
        optimizer: Optimizer,
        cluster: SimulatedCluster,
        batch_size: int = 1000,
        iterations: int = 100,
        eval_every: int = 10,
        seed: int = 0,
    ):
        check_positive(batch_size, "batch_size")
        check_positive(iterations, "iterations")
        self.model = model
        self.optimizer = optimizer
        self.cluster = cluster
        self.batch_size = int(batch_size)
        self.iterations = int(iterations)
        self.eval_every = int(eval_every)
        self.seed = int(seed)
        self._dataset: Optional[Dataset] = None
        self._assignment = None
        self._stores = None
        self._index: Optional[TwoPhaseIndex] = None
        self._w1_parts: List[np.ndarray] = []
        self._w1_optimizers: List[Optimizer] = []
        self._tail: Dict[str, np.ndarray] = {}
        self._tail_optimizers: Dict[str, Optimizer] = {}

    def load(self, dataset: Dataset):
        """Column-partition the data and W1; replicate the tail."""
        K = self.cluster.n_workers
        self._dataset = dataset
        self._assignment = make_assignment("round_robin", dataset.n_features, K)
        self._stores, block_sizes, report = dispatch_block_based(
            dataset, self._assignment, self.cluster
        )
        self._index = TwoPhaseIndex(block_sizes, base_seed=self.seed)
        full_w1 = self.model.init_w1(dataset.n_features, seed=self.seed)
        self._w1_parts = [
            np.array(full_w1[self._assignment.columns_of(k)], copy=True)
            for k in range(K)
        ]
        self._w1_optimizers = [self.optimizer.spawn() for _ in range(K)]
        self._tail = self.model.init_tail(seed=self.seed)
        self._tail_optimizers = {k: self.optimizer.spawn() for k in self._tail}
        return report

    def _result_header(self) -> Dict[str, object]:
        return dict(
            system="ColumnSGD-MLP",
            model="mlp-{}".format("x".join(map(str, self.model.hidden_sizes))),
            dataset=self._dataset.name,
            batch_size=self.batch_size,
        )

    # ------------------------------------------------------------------
    def round_spec(self) -> RoundSpec:
        """One ``B x H1`` statistics round; the replicated tail updates
        identically on every worker from the broadcast Z."""
        return RoundSpec(
            system="ColumnSGD-MLP",
            sync=BarrierSync(),
            phases=(
                ComputePhase(
                    "partial_statistics",
                    run="_phase_partial_statistics",
                    synchronized=True,
                ),
                CommPhase(
                    "gather",
                    kind=MessageKind.STATISTICS_PUSH,
                    pattern="gather",
                    sizes="_statistics_push_sizes",
                ),
                MasterPhase("reduce", run="_phase_reduce"),
                CommPhase(
                    "broadcast",
                    kind=MessageKind.STATISTICS_BCAST,
                    pattern="broadcast",
                    sizes="_statistics_size",
                ),
                ComputePhase("update_model", run="_phase_update_model"),
                MasterPhase("update_tail", run="_phase_update_tail"),
            ),
        )

    def _phase_partial_statistics(self, ctx) -> Dict[int, float]:
        """Each worker's partial Z over its shard."""
        cost = self.cluster.cost
        width = self.model.statistics_width
        draws = self._index.sample(ctx.t, self.batch_size)
        shards = []
        labels = None
        z_total = None
        per_worker: Dict[int, float] = {}
        for k in range(self.cluster.n_workers):
            shard, shard_labels = self._stores[k].assemble_batch(draws)
            shards.append(shard)
            labels = shard_labels
            part = self.model.partial_statistics(shard, self._w1_parts[k])
            z_total = part if z_total is None else z_total + part
            per_worker[k] = cost.task_overhead + cost.sparse_work(
                shard.nnz, passes=width
            )
        ctx.scratch["shards"] = shards
        ctx.scratch["labels"] = labels
        ctx.scratch["z_total"] = z_total
        return per_worker

    def _statistics_size(self, ctx) -> int:
        return dense_vector_bytes(self.batch_size * self.model.statistics_width)

    def _statistics_push_sizes(self, ctx) -> List[int]:
        return [self._statistics_size(ctx)] * self.cluster.n_workers

    def _phase_reduce(self, ctx) -> float:
        return self.cluster.cost.dense_work(
            self.cluster.n_workers * self.batch_size * self.model.statistics_width
        )

    def _phase_update_model(self, ctx) -> Dict[int, float]:
        """Local backward; W1 partitions step their optimizers."""
        cost = self.cluster.cost
        width = self.model.statistics_width
        shards = ctx.scratch["shards"]
        tail_grads, delta1 = self.model.backward(
            ctx.scratch["z_total"], ctx.scratch["labels"], self._tail
        )
        ctx.scratch["tail_grads"] = tail_grads
        per_worker: Dict[int, float] = {}
        for k in range(self.cluster.n_workers):
            grad = self.model.w1_gradient(shards[k], delta1, self.batch_size)
            self._w1_optimizers[k].step(self._w1_parts[k], grad)
            per_worker[k] = cost.task_overhead + cost.sparse_work(
                shards[k].nnz, passes=width
            )
        return per_worker

    def _phase_update_tail(self, ctx) -> float:
        """The replicated tail's identical update (no communication)."""
        for key, grad in ctx.scratch["tail_grads"].items():
            self._tail_optimizers[key].step(self._tail[key], grad)
        tail_elements = sum(v.size for v in self._tail.values())
        return self.cluster.cost.dense_work(tail_elements)

    # ------------------------------------------------------------------
    def current_w1(self) -> np.ndarray:
        """Reassemble the full first-layer matrix from the partitions."""
        if self._dataset is None:
            raise TrainingError("no dataset to evaluate; call load() first")
        full = np.zeros((self._dataset.n_features, self.model.statistics_width))
        for k in range(self.cluster.n_workers):
            full[self._assignment.columns_of(k)] = self._w1_parts[k]
        return full

    def tail(self) -> Dict[str, np.ndarray]:
        """The replicated tail parameters."""
        return {k: v.copy() for k, v in self._tail.items()}

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Full-train loss (not charged to simulated time)."""
        w1 = self.current_w1()
        data = dataset if dataset is not None else self._dataset
        z = self.model.partial_statistics(data.features, w1)
        return self.model.loss_from_statistics(z, data.labels, self._tail)
