"""Shared machinery of the RowSGD baselines.

The trainers differ only in who stores the model and what crosses the
network; the numerical loop (Algorithm 2) is shared here: workers sample
``B/K`` rows from their horizontal shards, compute *sum* gradients
against the current model, the center aggregates to the mean batch
gradient, adds the regularization gradient once, and steps the
optimizer.  With the same batch, every baseline's trajectory matches
single-machine SGD exactly — the differences the paper measures are in
time and memory, not math.

Each subclass declares its communication as :class:`CommPhase` entries
(:meth:`_comm_phases`); the shared :meth:`round_spec` wraps them
between the compute and center-update phases and
:class:`~repro.engine.RoundEngine` runs the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.trainer import Trainer, straggler_model
from repro.datasets.dataset import Dataset
from repro.engine import (
    BarrierSync,
    CommPhase,
    ComputePhase,
    MasterPhase,
    RecoveryEvent,
    RoundSpec,
)
from repro.errors import MasterFailedError, TrainingError
from repro.faults import REPLY_LOSSES, FaultKind, FaultSchedule
from repro.linalg import CSRMatrix
from repro.models.base import StatisticsModel
from repro.optim.base import Optimizer
from repro.partition.dispatch import load_row_partitioned
from repro.partition.row import RowPartitioner
from repro.sim.cluster import DISK_BANDWIDTH_BYTES_PER_S, SimulatedCluster
from repro.sim.straggler import StragglerModel
from repro.runtime import BACKENDS
from repro.utils.validation import check_in, check_non_negative, check_positive


@dataclass(frozen=True)
class RowSGDConfig:
    """Hyper-parameters shared by all RowSGD baselines."""

    batch_size: int = 1000
    iterations: int = 100
    eval_every: int = 10
    seed: int = 0
    repartition: bool = False  # MLlib-Repartition loading for Fig 7
    check_protocol: bool = False  # verify BSP invariants every round
                                  # (see repro.net.protocol)
    backend: str = "sim"          # 'sim' or 'local' (real worker
                                  # processes, wall-clock rounds; MLlib
                                  # only — see docs/runtime.md)
    local_processes: int = 0      # OS processes hosting the K logical
                                  # workers on the local backend
                                  # (0 = one process per worker)
    local_timeout_s: float = 30.0  # deadline floor for local-backend
                                   # exchanges (alpha x median rule, see
                                   # repro.runtime.deadline)

    def __post_init__(self):
        check_positive(self.batch_size, "batch_size")
        check_positive(self.iterations, "iterations")
        check_non_negative(self.eval_every, "eval_every")
        check_non_negative(self.seed, "seed")
        check_in(self.backend, BACKENDS, "backend")
        check_non_negative(self.local_processes, "local_processes")
        check_positive(self.local_timeout_s, "local_timeout_s")


class BaselineTrainer(Trainer):
    """Template for the centralized RowSGD systems (Algorithm 2).

    Subclasses define :meth:`_system_name`, their per-iteration
    communication declarations (:meth:`_comm_phases`) and setup memory
    charges (:meth:`_charge_setup_memory`).  MLlib* overrides the whole
    :meth:`round_spec` because model averaging changes the math.
    """

    def __init__(
        self,
        model: StatisticsModel,
        optimizer: Optimizer,
        cluster: SimulatedCluster,
        config: Optional[RowSGDConfig] = None,
        straggler: Optional[StragglerModel] = None,
        failures: Optional[FaultSchedule] = None,
    ):
        self.model = model
        self.optimizer = optimizer.spawn()
        self.cluster = cluster
        self.config = config if config is not None else RowSGDConfig()
        self.iterations = self.config.iterations
        self.eval_every = self.config.eval_every
        self.check_protocol = self.config.check_protocol
        self.backend = self.config.backend
        self.straggler = straggler_model(straggler, cluster.n_workers, self.backend)
        self.failures = failures if failures is not None else FaultSchedule()
        self.failures.validate(cluster.n_workers, self.config.backend)
        self._dataset: Optional[Dataset] = None
        self._partitioner: Optional[RowPartitioner] = None
        self._params: Optional[np.ndarray] = None
        self.load_report = None

    # ------------------------------------------------------------------
    def _system_name(self) -> str:
        raise NotImplementedError

    def _comm_phases(self) -> Tuple[CommPhase, ...]:
        """The subclass's per-iteration communication, as declarations."""
        raise NotImplementedError

    def _center_update_seconds(self) -> float:
        """Dense model-maintenance time at the master/servers."""
        raise NotImplementedError

    def _charge_setup_memory(self) -> None:
        raise NotImplementedError

    def round_spec(self) -> RoundSpec:
        """Algorithm 2 as a spec: compute sum gradients on every shard,
        run the subclass's declared communication, maintain the center."""
        return RoundSpec(
            system=self._system_name(),
            sync=BarrierSync(),
            phases=(
                ComputePhase(
                    "compute_gradients",
                    run="_phase_compute_gradients",
                    synchronized=True,
                ),
            )
            + tuple(self._comm_phases())
            + (MasterPhase("center_update", run="_phase_center_update"),),
        )

    # ------------------------------------------------------------------
    def load(self, dataset: Dataset):
        """Row-partition the data and initialise the central model."""
        self._dataset = dataset
        self._partitioner, self.load_report = load_row_partitioned(
            dataset,
            self.cluster,
            repartition=self.config.repartition,
            seed=self.config.seed,
        )
        self._params = self.model.init_params(dataset.n_features, seed=self.config.seed)
        self._charge_setup_memory()
        return self.load_report

    @property
    def model_elements(self) -> int:
        """Total scalars in the model (m * params_per_feature)."""
        if self._dataset is None:
            raise TrainingError("call load() first")
        return int(self._dataset.n_features * self.model.params_per_feature())

    def _result_header(self) -> Dict[str, object]:
        return dict(
            system=self._system_name(),
            model=self.model.name,
            dataset=self._dataset.name,
            batch_size=self.config.batch_size,
        )

    # ------------------------------------------------------------------
    def _phase_compute_gradients(self, ctx) -> Dict[int, float]:
        """One Algorithm 2 compute phase: per-shard sum gradients."""
        width = self.model.statistics_width
        # RowSGD workers really hold a full dense model replica — the
        # O(d) footprint is the paper's argument against row-oriented
        # systems, and it is charged through the MODEL_PULL bytes and
        # the center's dense_work, not the worker gradient kernel.
        grad_sum = np.zeros_like(self._params)
        per_worker: Dict[int, float] = {}
        batch_parts: List[Dataset] = []
        for w in range(self.cluster.n_workers):
            local = self._partitioner.sample_local_batch(
                ctx.t, self.config.batch_size, w
            )
            batch_parts.append(local)
            if local.n_rows:
                stats = self.model.compute_statistics(local.features, self._params)
                # The data gradient only: the penalty is added exactly
                # once below, not once per shard.
                mean_grad = self.model.data_gradient(
                    local.features, local.labels, stats, self._params
                )
                mean_grad.values *= local.n_rows
                mean_grad.add_to(grad_sum)
            # StragglerLevel multiplies the whole task (launch + kernel),
            # matching the ColumnSGD driver's convention.
            task = self._task_overhead() + self.cluster.cost.sparse_work(
                local.nnz, passes=2 * width
            )
            per_worker[w] = task * ctx.slowdowns[w]

        batch = _concat_batches(batch_parts, self._dataset.n_features)
        ctx.scratch["batch"] = batch
        gradient = self.model.add_penalty(grad_sum / max(batch.n_rows, 1), self._params)
        self.optimizer.step(self._params, gradient, ctx.t)
        return per_worker

    def _phase_center_update(self, ctx) -> float:
        return self._center_update_seconds()

    def _task_overhead(self) -> float:
        return self.cluster.cost.task_overhead

    def _handle_failures(self, t: int) -> float:
        """Strike round ``t``'s scheduled faults on the executor — this
        trainer on ``sim``, its master program on ``local``."""
        return self._engine.trainer._strike(t, self.failures.events_at(t))

    def _strike(self, t: int, events) -> float:
        """RowSGD fault semantics, simulated: the model lives at the
        center, so a worker crash costs only a shard reload (no numeric
        effect); a master crash loses the model and aborts the job; a
        lost or garbled reply is a retransmit the round's comm phase
        pays."""
        extra = 0.0
        for event in events:
            if event.kind in REPLY_LOSSES:
                self.cluster.network.lose_next(event.worker)
                continue
            if event.kind is FaultKind.MASTER:
                raise MasterFailedError(
                    "master failed at iteration {} — the model is lost; "
                    "RowSGD restarts from scratch".format(t)
                )
            if event.kind is FaultKind.TASK:
                extra += self.cluster.cost.task_overhead
                continue
            shard = self._partitioner.shard(event.worker)
            reload_bytes = shard.nnz * 12 + shard.n_rows * 8
            reload_s = (
                self.cluster.cost.task_overhead
                + reload_bytes / DISK_BANDWIDTH_BYTES_PER_S
                + reload_bytes / self.cluster.network.bandwidth
            )
            extra += reload_s
            trace = getattr(self.cluster, "engine_trace", None)
            if trace is not None:
                trace.add_recovery(
                    RecoveryEvent(
                        round=t,
                        kind="worker",
                        mode="reload",
                        worker=event.worker,
                        reload_s=reload_s,
                    )
                )
        return extra

    # ------------------------------------------------------------------
    def current_params(self) -> np.ndarray:
        """The central model."""
        if self._params is None:
            raise TrainingError("call load() first")
        return np.array(self._params, copy=True)

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Full objective on the training set (not charged to sim time)."""
        data = dataset if dataset is not None else self._dataset
        return self.model.loss(data.features, data.labels, self._params)


def _concat_batches(parts: List[Dataset], n_features: int) -> Dataset:
    """Stack per-worker batches into the logical global batch."""
    nonempty = [p for p in parts if p.n_rows]
    if not nonempty:
        raise TrainingError("empty global batch")
    features = CSRMatrix.vstack([p.features for p in nonempty])
    labels = np.concatenate([p.labels for p in nonempty])
    return Dataset(features, labels, name=nonempty[0].name)
