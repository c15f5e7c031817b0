"""Shared machinery of the RowSGD baselines.

The trainers differ only in who stores the model and what crosses the
network; the numerical loop (Algorithm 2) is shared here: workers sample
``B/K`` rows from their horizontal shards, compute *sum* gradients
against the current model, the center aggregates to the mean batch
gradient and steps the optimizer.  With the same batch, every
baseline's trajectory matches single-machine SGD exactly — the
differences the paper measures are in time and memory, not math.

Each subclass declares its communication as :class:`CommPhase` entries
(:meth:`_comm_phases`); the shared :meth:`round_spec` wraps them
between the compute and center-update phases and
:class:`~repro.engine.RoundEngine` runs the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.trainer import RunConfig, Trainer
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
from repro.faults import FaultKind, FaultSchedule
from repro.linalg import RowGradient
from repro.models.base import StatisticsModel
from repro.optim.base import Optimizer
from repro.partition.dispatch import load_row_partitioned
from repro.partition.row import RowPartitioner
from repro.sim.cluster import DISK_BANDWIDTH_BYTES_PER_S, SimulatedCluster
from repro.sim.straggler import StragglerModel
from repro.storage.serialization import LABEL_BYTES, SPARSE_PAIR_BYTES


@dataclass(frozen=True)
class RowSGDConfig(RunConfig):
    """Hyper-parameters shared by all RowSGD baselines: the
    :class:`~repro.core.trainer.RunConfig` every trainer takes (its
    ``backend='local'`` is MLlib only — see docs/runtime.md), plus the
    loader."""

    repartition: bool = False  # MLlib-Repartition loading for Fig 7


def shard_gradient(model: StatisticsModel, local: Dataset, params: np.ndarray) -> RowGradient:
    """Algorithm 2's shard step: the *sum* gradient of ``local``'s
    (non-empty) rows against ``params``."""
    stats = model.compute_statistics(local.features, params)
    coefficients = model.coefficients(stats, local.labels)
    gradient = model.gradient_from_statistics(local.features, local.labels, coefficients, params)
    gradient.values *= local.n_rows
    return gradient


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
        self._configure(
            cluster, config if config is not None else RowSGDConfig(),
            straggler, failures,
        )
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
        batch_rows = batch_nnz = 0
        for w in range(self.cluster.n_workers):
            local = self._partitioner.sample_local_batch(
                ctx.t, self.config.batch_size, w
            )
            batch_rows += local.n_rows
            batch_nnz += local.nnz
            if local.n_rows:
                params = self._worker_params(ctx, w)
                shard_gradient(self.model, local, params).add_to(grad_sum)
            # StragglerLevel multiplies the whole task (launch + kernel),
            # matching the ColumnSGD driver's convention.
            task = self._task_overhead() + self.cluster.cost.sparse_work(
                local.nnz, passes=2 * width
            )
            per_worker[w] = task * ctx.slowdowns[w]

        if not batch_rows:
            raise TrainingError("empty global batch")
        ctx.scratch["batch_nnz"] = batch_nnz
        self.optimizer.step(self._params, grad_sum / batch_rows)
        return per_worker

    def _worker_params(self, ctx, worker: int) -> np.ndarray:
        """The model ``worker`` computes its round-``ctx.t`` gradient
        against: the current one under BSP."""
        return self._params

    def _phase_center_update(self, ctx) -> float:
        return self._center_update_seconds()

    def _task_overhead(self) -> float:
        return self.cluster.cost.task_overhead

    def _strike(self, t: int, events) -> float:
        """RowSGD fault semantics, simulated: the model lives at the
        center, so a task failure costs one relaunch and a worker crash
        a shard reload (no numeric effect); a master crash loses the
        model and aborts the job."""
        extra = 0.0
        for event in events:
            if event.kind is FaultKind.MASTER:
                raise MasterFailedError(
                    "master failed at iteration {} — the model is lost; "
                    "RowSGD restarts from scratch".format(t)
                )
            if event.kind is FaultKind.TASK:
                relaunch_s = self.cluster.cost.task_overhead
                extra += relaunch_s
                self._record_recovery(
                    RecoveryEvent(
                        round=t, kind="task", mode="restart", worker=None,
                        reload_s=relaunch_s,
                    )
                )
                continue
            shard = self._partitioner.shard(event.worker)
            reload_bytes = shard.nnz * SPARSE_PAIR_BYTES + shard.n_rows * LABEL_BYTES
            reload_s = (
                self.cluster.cost.task_overhead
                + reload_bytes / DISK_BANDWIDTH_BYTES_PER_S
                + reload_bytes / self.cluster.network.bandwidth
            )
            extra += reload_s
            self._record_recovery(
                RecoveryEvent(
                    round=t, kind="worker", mode="reload", worker=event.worker,
                    reload_s=reload_s,
                )
            )
        return extra

    def _record_recovery(self, event: RecoveryEvent) -> None:
        trace = getattr(self.cluster, "engine_trace", None)
        if trace is not None:
            trace.add_recovery(event)

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

