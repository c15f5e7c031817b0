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

from repro.core.results import IterationRecord, TrainingResult
from repro.datasets.dataset import Dataset
from repro.engine import (
    BarrierSync,
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundEngine,
    RoundSpec,
    run_training_loop,
)
from repro.errors import ConfigurationError, MasterFailedError, TrainingError
from repro.faults import FaultKind, FaultSchedule
from repro.linalg import CSRMatrix
from repro.models.base import StatisticsModel
from repro.optim.base import Optimizer
from repro.net.protocol import ProtocolChecker
from repro.partition.dispatch import load_row_partitioned
from repro.partition.row import RowPartitioner
from repro.sim.cluster import SimulatedCluster
from repro.sim.straggler import StragglerModel
from repro.runtime.base import BACKENDS
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
    check_cost: bool = False      # audit measured kernel work against
                                  # sparse_work/dense_work charges each
                                  # round (see repro.engine.cost_audit)
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
        if self.backend == "local" and self.check_cost:
            raise ValueError(
                "check_cost audits the simulated engine; "
                "it is unavailable on backend='local'"
            )


class BaselineTrainer:
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
        self.straggler = (
            straggler if straggler is not None else StragglerModel.none(cluster.n_workers)
        )
        self.failures = failures if failures is not None else FaultSchedule()
        self.failures.validate(cluster.n_workers, self.config.backend)
        self._dataset: Optional[Dataset] = None
        self._partitioner: Optional[RowPartitioner] = None
        self._params: Optional[np.ndarray] = None
        self._engine: Optional[RoundEngine] = None
        self.load_report = None
        #: the started LocalRuntime a backend='local' trainer's rounds
        #: run on (attached by ``run_local_rowsgd`` for the length of a run)
        self.local_runtime = None

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

    # ------------------------------------------------------------------
    def fit(self, dataset: Optional[Dataset] = None, iterations: Optional[int] = None) -> TrainingResult:
        """Run Algorithm 2; returns the loss/time trace."""
        if dataset is not None and self._dataset is None:
            self.load(dataset)
        if self._dataset is None:
            raise TrainingError("call load() or pass a dataset to fit()")
        iterations = iterations if iterations is not None else self.config.iterations
        check_positive(iterations, "iterations")

        result = TrainingResult(
            system=self._system_name(),
            model=self.model.name,
            dataset=self._dataset.name,
            batch_size=self.config.batch_size,
            n_workers=self.cluster.n_workers,
        )
        if self.config.eval_every:
            self._record(result, -1, 0.0, 0, evaluate=True)

        return self._train(iterations, result)

    def _train(self, iterations: int, result: TrainingResult) -> TrainingResult:
        """Algorithm 2's loop, on either backend.

        ``backend='local'`` needs worker processes: with none attached,
        ``run_local_rowsgd`` hosts them for the run and re-enters.
        """
        if self.config.backend == "local" and self.local_runtime is None:
            from repro.baselines.localexec import run_local_rowsgd

            return run_local_rowsgd(self, iterations, result)

        self._engine = self._make_engine()
        substrate = self.local_runtime or self.cluster
        checker = ProtocolChecker(substrate) if self.config.check_protocol else None
        run_training_loop(
            cluster=substrate,
            run_round=self.run_round,
            iterations=iterations,
            eval_every=self.config.eval_every,
            record=lambda t, duration, bytes_sent, evaluate: self._record(
                result, t, duration, bytes_sent, evaluate
            ),
            # the trainer itself on sim, its master program on local
            handle_failures=self._engine.trainer._handle_failures,
            checker=checker,
        )

        result.final_params = np.array(self._params, copy=True)
        return result

    def _make_engine(self) -> RoundEngine:
        """A fresh engine over :meth:`round_spec`; on ``backend='local'``
        the master program stands in for the trainer as the executor."""
        executor = self
        if self.config.backend == "local":
            from repro.baselines.localexec import RowMasterProgram

            if self.local_runtime is None:
                raise ConfigurationError(
                    "backend='local' rounds run on worker processes and none "
                    "are attached: call fit()"
                )
            executor = RowMasterProgram(self, self.local_runtime)
        return RoundEngine(
            executor, self.cluster, spec=self.round_spec(),
            straggler=self.straggler,
            check_cost=self.config.check_cost,
            runtime=self.local_runtime,
        )

    # ------------------------------------------------------------------
    def run_round(self, t: int):
        """One engine round (used by fit(), benchmarks and tests);
        returns the :class:`~repro.engine.RoundOutcome`.  On
        ``backend='local'`` it runs on the attached worker processes
        (:class:`~repro.errors.ConfigurationError` if none)."""
        if self._engine is None:
            self._engine = self._make_engine()
        return self._engine.run_round(t)

    # ------------------------------------------------------------------
    def _phase_compute_gradients(self, ctx) -> Dict[int, float]:
        """One Algorithm 2 compute phase: per-shard sum gradients."""
        width = self.model.statistics_width
        # RowSGD workers really hold a full dense model replica — the
        # O(d) footprint is the paper's argument against row-oriented
        # systems, and it is charged through the MODEL_PULL bytes and
        # the center's dense_work, not the worker gradient kernel.
        grad_sum = np.zeros_like(self._params)  # lint: noqa[R015,R016]
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
        """RowSGD fault semantics: the model lives at the center, so a
        worker crash costs only a shard reload (no numeric effect); a
        master crash loses the model and aborts the job."""
        extra = 0.0
        for event in self.failures.events_at(t):
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
                + reload_bytes / self.cluster.spec.disk_bandwidth_bytes_per_s
                + reload_bytes / self.cluster.network.bandwidth
            )
            extra += reload_s
            trace = getattr(self.cluster, "engine_trace", None)
            if trace is not None:
                from repro.engine import RecoveryEvent

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

    def _record(self, result, iteration, duration, bytes_sent, evaluate) -> None:
        """Append one iteration record, stamped on the run's clock (the
        attached runtime's measured one, else the simulated one)."""
        loss = self.evaluate_loss() if evaluate else None
        if loss is not None and not np.isfinite(loss):
            raise TrainingError(
                "training diverged at iteration {} (loss={})".format(iteration, loss)
            )
        result.add(
            IterationRecord(
                iteration=iteration,
                sim_time=(self.local_runtime or self.cluster).clock.now(),
                duration=duration,
                loss=loss,
                bytes_sent=bytes_sent,
            )
        )


def _concat_batches(parts: List[Dataset], n_features: int) -> Dataset:
    """Stack per-worker batches into the logical global batch."""
    nonempty = [p for p in parts if p.n_rows]
    if not nonempty:
        raise TrainingError("empty global batch")
    features = CSRMatrix.vstack([p.features for p in nonempty])
    labels = np.concatenate([p.labels for p in nonempty])
    return Dataset(features, labels, name=nonempty[0].name)
