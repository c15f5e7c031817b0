"""Column-partitioned multi-layer perceptron (Section III-C sketch).

Architecture: one hidden layer of width ``H`` with tanh activation and a
scalar logistic head — ``score(x) = w2 . tanh(W1^T x + b1) + b2`` with
labels in {-1, +1}.

Distribution strategy, following the paper's FC-layer discussion:

* ``W1`` (m x H) is the large tensor — partitioned by *input feature*
  (rows of W1), collocated with the column-partitioned data, exactly
  like a GLM model;
* the per-example hidden pre-activations ``Z = X W1`` are additive over
  column shards, so they are the *statistics* — ``B * H`` values per
  iteration, independent of m;
* the head ``(w2, b1, b2)`` is tiny (2H + 1 scalars) and *replicated* on
  every worker.  Given the broadcast ``Z``, every worker computes the
  identical head gradient locally, so the replicas stay bit-identical
  with no extra communication — the reason the paper deems FC layers
  supportable but conv/pool layers not.

Backward pass, all local given complete ``Z``::

    A      = tanh(Z + b1)
    s_i    = A_i . w2 + b2
    c_i    = -y_i / (1 + exp(y_i s_i))         # logistic, as LR
    delta  = (c  outer w2) * (1 - A^2)          # B x H
    dW1_k  = X_k^T delta / B                    # local shard gradient
    dw2    = A^T c / B ;  db1 = sum(delta)/B ;  db2 = sum(c)/B

:class:`MLPColumnTrainer` runs this on the simulated cluster with the
same loading, indexing, timing, and straggler machinery as the GLM
driver; :class:`SequentialMLP` is the single-machine reference the
exactness tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.trainer import Trainer
from repro.datasets.dataset import Dataset
from repro.engine import (
    BarrierSync,
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundSpec,
)
from repro.linalg import CSRMatrix, row_dots
from repro.linalg.ops import accumulate_rows
from repro.net.message import MessageKind
from repro.optim.base import Optimizer
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.partition.indexing import TwoPhaseIndex
from repro.sim.cluster import SimulatedCluster
from repro.storage.serialization import dense_vector_bytes
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


@dataclass
class ColumnMLP:
    """Model hyper-parameters and the shared math of the column MLP."""

    hidden: int
    init_std: float = 0.5

    def __post_init__(self):
        check_positive(self.hidden, "hidden")
        check_positive(self.init_std, "init_std")

    # -- initialisation -------------------------------------------------
    def init_w1(self, n_features: int, seed=None) -> np.ndarray:
        rng = rng_from_seed(seed)
        return rng.normal(0.0, self.init_std, size=(n_features, self.hidden))

    def init_head(self, seed=None) -> Dict[str, np.ndarray]:
        rng = rng_from_seed(None if seed is None else seed + 1)
        return {
            "w2": rng.normal(0.0, self.init_std, size=self.hidden),
            "b1": np.zeros(self.hidden),
            "b2": np.zeros(1),
        }

    # -- forward/backward given complete statistics ----------------------
    def partial_statistics(self, shard: CSRMatrix, w1_part: np.ndarray) -> np.ndarray:
        """Shard's contribution to Z = X W1 (additive across shards)."""
        return row_dots(shard, w1_part)

    def forward(self, z: np.ndarray, head: Dict[str, np.ndarray]):
        """Hidden activations and scalar scores from complete Z."""
        a = np.tanh(z + head["b1"])
        scores = a @ head["w2"] + head["b2"][0]
        return a, scores

    def loss_from_statistics(self, z, labels, head) -> float:
        _, scores = self.forward(np.asarray(z), head)
        margins = np.asarray(labels) * scores
        stable = np.where(
            margins > 0,
            np.log1p(np.exp(-np.abs(margins))),
            -margins + np.log1p(np.exp(-np.abs(margins))),
        )
        return float(np.mean(stable)) if stable.size else 0.0

    def backward(self, z, labels, head):
        """Per-example coefficients and hidden deltas (identical on all
        workers given the broadcast Z)."""
        labels = np.asarray(labels)
        a, scores = self.forward(np.asarray(z), head)
        margins = labels * scores
        c = -labels * _sigmoid(-margins)
        delta = (c[:, None] * head["w2"][None, :]) * (1.0 - a ** 2)
        return a, c, delta

    def head_gradients(self, a, c, delta, batch_size):
        """Gradients of the replicated head — no communication needed."""
        b = max(batch_size, 1)
        return {
            "w2": a.T @ c / b,
            "b1": delta.sum(axis=0) / b,
            "b2": np.array([c.sum() / b]),
        }

    def w1_gradient(self, shard: CSRMatrix, delta: np.ndarray, batch_size: int):
        """Local W1-partition gradient ``X_k^T delta / B``, over the rows
        the shard touches (a :class:`~repro.linalg.RowGradient`)."""
        gradient = accumulate_rows(shard, delta)
        gradient.values /= max(batch_size, 1)
        return gradient


class SequentialMLP:
    """Single-machine reference implementation (exactness baseline)."""

    def __init__(self, model: ColumnMLP, optimizer: Optimizer, n_features: int, seed=0):
        self.model = model
        self.w1 = model.init_w1(n_features, seed=seed)
        self.head = model.init_head(seed=seed)
        self._opt_w1 = optimizer.spawn()
        self._opt_head = {k: optimizer.spawn() for k in self.head}

    def loss(self, features: CSRMatrix, labels) -> float:
        z = self.model.partial_statistics(features, self.w1)
        return self.model.loss_from_statistics(z, labels, self.head)

    def step(self, features: CSRMatrix, labels, iteration: int) -> None:
        z = self.model.partial_statistics(features, self.w1)
        a, c, delta = self.model.backward(z, labels, self.head)
        grad_w1 = self.model.w1_gradient(features, delta, features.n_rows)
        head_grads = self.model.head_gradients(a, c, delta, features.n_rows)
        self._opt_w1.step(self.w1, grad_w1, iteration)
        for key, grad in head_grads.items():
            self._opt_head[key].step(self.head[key], grad, iteration)

    def predict_proba(self, features: CSRMatrix) -> np.ndarray:
        z = self.model.partial_statistics(features, self.w1)
        _, scores = self.model.forward(z, self.head)
        return _sigmoid(scores)


class MLPColumnTrainer(Trainer):
    """ColumnSGD-style distributed training of :class:`ColumnMLP`.

    Statistics per iteration: ``B * hidden`` values gathered and
    broadcast once (one synchronisation per layer, as Section III-C
    prescribes for FC layers).  The head is replicated; every worker
    applies the identical head update, so replicas never diverge.
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
        block_size: int = 2048,
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
        self.block_size = int(block_size)

        self._dataset: Optional[Dataset] = None
        self._assignment = None
        self._stores = None
        self._index: Optional[TwoPhaseIndex] = None
        self._w1_parts: List[np.ndarray] = []
        self._w1_optimizers: List[Optimizer] = []
        self._head: Dict[str, np.ndarray] = {}
        self._head_optimizers: Dict[str, Optimizer] = {}

    # ------------------------------------------------------------------
    def load(self, dataset: Dataset):
        """Column-partition the data and W1; replicate the head."""
        K = self.cluster.n_workers
        self._dataset = dataset
        self._assignment = make_assignment("round_robin", dataset.n_features, K)
        self._stores, block_sizes, report = dispatch_block_based(
            dataset, self._assignment, self.cluster, block_size=self.block_size
        )
        self._index = TwoPhaseIndex(block_sizes, base_seed=self.seed)
        full_w1 = self.model.init_w1(dataset.n_features, seed=self.seed)
        self._w1_parts = [
            np.array(full_w1[self._assignment.columns_of(k)], copy=True)
            for k in range(K)
        ]
        self._w1_optimizers = [self.optimizer.spawn() for _ in range(K)]
        # One logical head; replicas would stay identical, so a single
        # array stands in for all of them (same trick as model replicas
        # in backup computation).
        self._head = self.model.init_head(seed=self.seed)
        self._head_optimizers = {k: self.optimizer.spawn() for k in self._head}
        return report

    def _result_header(self) -> Dict[str, object]:
        return dict(
            system="ColumnSGD-MLP",
            model="mlp{}".format(self.model.hidden),
            dataset=self._dataset.name,
            batch_size=self.batch_size,
        )

    # ------------------------------------------------------------------
    def round_spec(self) -> RoundSpec:
        """One statistics round per iteration (Section III-C, FC layer):
        gather/broadcast the ``B x H`` pre-activations, then local
        backward on each W1 partition plus the replicated head."""
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
                MasterPhase("update_head", run="_phase_update_head"),
            ),
        )

    def _phase_partial_statistics(self, ctx) -> Dict[int, float]:
        """Each worker's partial Z over its shard."""
        cost = self.cluster.cost
        draws = self._index.sample(ctx.t, self.batch_size)
        H = self.model.hidden
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
            per_worker[k] = cost.task_overhead + cost.sparse_work(shard.nnz, passes=H)
        ctx.scratch["shards"] = shards
        ctx.scratch["labels"] = labels
        ctx.scratch["z_total"] = z_total
        return per_worker

    def _statistics_size(self, ctx) -> int:
        return dense_vector_bytes(self.batch_size * self.model.hidden)

    def _statistics_push_sizes(self, ctx) -> List[int]:
        return [self._statistics_size(ctx)] * self.cluster.n_workers

    def _phase_reduce(self, ctx) -> float:
        return self.cluster.cost.dense_work(
            self.cluster.n_workers * self.batch_size * self.model.hidden
        )

    def _phase_update_model(self, ctx) -> Dict[int, float]:
        """Local backward; W1 partitions step their optimizers."""
        cost = self.cluster.cost
        H = self.model.hidden
        shards = ctx.scratch["shards"]
        a, c, delta = self.model.backward(
            ctx.scratch["z_total"], ctx.scratch["labels"], self._head
        )
        ctx.scratch["backward"] = (a, c, delta)
        per_worker: Dict[int, float] = {}
        for k in range(self.cluster.n_workers):
            grad = self.model.w1_gradient(shards[k], delta, self.batch_size)
            self._w1_optimizers[k].step(self._w1_parts[k], grad, ctx.t)
            per_worker[k] = cost.task_overhead + cost.sparse_work(
                shards[k].nnz, passes=H
            )
        return per_worker

    def _phase_update_head(self, ctx) -> float:
        """The replicated head's identical update (no communication)."""
        a, c, delta = ctx.scratch["backward"]
        head_grads = self.model.head_gradients(a, c, delta, self.batch_size)
        for key, grad in head_grads.items():
            self._head_optimizers[key].step(self._head[key], grad, ctx.t)
        return self.cluster.cost.dense_work(2 * self.model.hidden + 1)

    # ------------------------------------------------------------------
    def current_w1(self) -> np.ndarray:
        """Reassemble the full W1 from the partitions."""
        full = np.zeros((self._dataset.n_features, self.model.hidden))
        for k in range(self.cluster.n_workers):
            full[self._assignment.columns_of(k)] = self._w1_parts[k]
        return full

    def head(self) -> Dict[str, np.ndarray]:
        """The replicated head parameters."""
        return {k: v.copy() for k, v in self._head.items()}

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Full-train loss (not charged to simulated time)."""
        data = dataset if dataset is not None else self._dataset
        z = self.model.partial_statistics(data.features, self.current_w1())
        return self.model.loss_from_statistics(z, data.labels, self._head)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
