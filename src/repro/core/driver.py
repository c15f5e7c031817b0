"""The ColumnSGD driver: load, partition, and run Algorithm 3.

The driver owns the job — the row-to-column load, model init, master,
workers, faults and recovery — and declares the round as a
:class:`~repro.engine.RoundSpec` (computeStatistics, gather, reduce,
broadcast, updateModel) that :class:`~repro.engine.RoundEngine` runs;
S-backup recovery is the spec's :class:`~repro.engine.BackupSync`
policy (S = 0 degenerates to the plain barrier).  The phase bodies are
:mod:`repro.core.localexec`'s master and worker programs on both
backends: on ``sim`` the cluster hosts the workers in-process and
charges simulated compute (cost model x straggler slowdowns), network
and barrier time; on ``local`` worker processes run them, measured.

Exactness invariant: with no failures, the parameter trajectory is
identical (to float tolerance) to single-machine mini-batch SGD on the
same draw sequence — tests assert this for every model and optimizer.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.backup import BackupGroups
from repro.core.localexec import (
    ColumnMasterProgram,
    collect_store_stats,
    make_local_runtime,
    sync_params,
    host_program,
)
from repro.core.master import ColumnMaster
from repro.core.recovery import CheckpointStore, RecoveryManager, RecoveryPolicy
from repro.core.results import TrainingResult
from repro.core.trainer import RunConfig, Trainer
from repro.core.worker import ColumnWorker, PartitionState
from repro.datasets.dataset import Dataset
from repro.engine import (
    BackupSync,
    BarrierSync,
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundSpec,
    TimeoutSync,
)
from repro.engine.policy import SYNC_RETRIES, check_deadline_factors
from repro.errors import ConfigurationError, MasterFailedError, TrainingError
from repro.faults import FaultKind, FaultSchedule
from repro.models.base import StatisticsModel
from repro.net.message import MessageKind
from repro.optim.base import Optimizer
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based, LoadReport
from repro.partition.indexing import TwoPhaseIndex
from repro.sim.cluster import SimulatedCluster
from repro.sim.straggler import StragglerModel
from repro.storage.serialization import VALUE_BYTES, dense_vector_bytes
from repro.utils.validation import check_in, check_non_negative, check_positive

#: Loss drop an evaluation must beat the best earlier loss by to count
#: as progress for ``early_stop_patience``.
EARLY_STOP_MIN_IMPROVEMENT = 1e-4


@dataclass(frozen=True)
class ColumnSGDConfig(RunConfig):
    """Hyper-parameters and protocol knobs of one ColumnSGD job, on top
    of the :class:`~repro.core.trainer.RunConfig` every trainer takes."""

    backup: int = 0          # S in S-backup computation
    block_size: int = 2048
    scheme: str = "round_robin"
    wire_precision: str = "fp64"  # 'fp32' halves statistics traffic
                                  # (values are rounded through float32)
    early_stop_patience: int = 0  # stop after this many consecutive
                                  # evaluations without an
                                  # EARLY_STOP_MIN_IMPROVEMENT gain
                                  # (0 disables; needs eval_every > 0)
    sync_policy: str = "backup"   # 'backup' (Fig 6 recovery), 'timeout'
                                  # (suspect by deadline), or 'retry'
                                  # (timeout + SYNC_RETRIES doubling
                                  # retries); an uncovered group past
                                  # the last deadline goes stale
    sync_alpha: float = 3.0       # deadline = alpha * median(finish); on
                                  # the local backend the effective
                                  # deadline is max(local_timeout_s,
                                  # alpha * median of measured exchange
                                  # seconds), doubled per retry
    store_dir: str = ""           # when set, load() shuffles the data
                                  # into (or reopens) an on-disk
                                  # column-shard store there and workers
                                  # read their shards out-of-core (see
                                  # repro.store and docs/storage.md)
    memory_budget_bytes: int = 0  # bounds the shuffle writer's tracked
                                  # buffers (0 = unbounded); reading
                                  # maps views, nothing to budget

    def __post_init__(self):
        super().__post_init__()
        check_non_negative(self.backup, "backup")
        check_positive(self.block_size, "block_size")
        check_in(self.wire_precision, ("fp64", "fp32"), "wire_precision")
        check_non_negative(self.early_stop_patience, "early_stop_patience")
        check_in(self.sync_policy, ("backup", "timeout", "retry"), "sync_policy")
        check_positive(self.sync_alpha, "sync_alpha")
        check_deadline_factors(self.sync_alpha)
        check_non_negative(self.memory_budget_bytes, "memory_budget_bytes")
        if self.early_stop_patience and not self.eval_every:
            raise ConfigurationError("early stopping requires eval_every > 0")
        if self.backend == "local" and self.backup:
            # the round bodies carry S-backup's rules on both backends;
            # the local transport does not complete a group on its first
            # replica yet
            raise ConfigurationError(
                "backend='local' supports backup=0 only; backup "
                "computation runs on the simulator"
            )


class ColumnSGDDriver(Trainer):
    """One master + K workers running column-partitioned SGD."""

    master_program = ColumnMasterProgram

    def __init__(
        self,
        model: StatisticsModel,
        optimizer: Optimizer,
        cluster: SimulatedCluster,
        config: Optional[ColumnSGDConfig] = None,
        straggler: Optional[StragglerModel] = None,
        failures: Optional[FaultSchedule] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self._configure(
            cluster, config if config is not None else ColumnSGDConfig(),
            straggler, failures,
        )
        self.recovery_policy = recovery if recovery is not None else RecoveryPolicy()
        if self.backend == "local" and self.recovery_policy.heartbeat_interval_s > 0:
            raise ConfigurationError(
                "heartbeats are a simulated failure detector; on backend='local' "
                "detection is the transport's deadline (local_timeout_s)"
            )
        if self.recovery_policy.master_restart and (
            type(model).master_step is not StatisticsModel.master_step
        ):
            raise ConfigurationError(
                "master_restart replays rounds from the partitions' checkpoint, "
                "which does not hold the state {} keeps at the master: the "
                "replay would step it twice".format(type(model).__name__)
            )
        self.recovery_manager: Optional[RecoveryManager] = None
        self.groups = BackupGroups(cluster.n_workers, self.config.backup)
        self.master = ColumnMaster(self.groups, model)
        if self.config.sync_policy != "backup":
            self.master.cache_contributions = True

        self._dataset: Optional[Dataset] = None
        self._assignment = None
        self._partitions: List[PartitionState] = []
        self._workers: List[ColumnWorker] = []
        self._index: Optional[TwoPhaseIndex] = None
        #: the ColumnShardStore behind a store-backed load (else None)
        self._store = None
        self._n_features: int = 0
        self._dataset_name: str = ""
        #: per-worker shard cache counters of the most recent
        #: backend='local' fit() (worker id -> partition id -> stats)
        self.store_read_stats: Dict[int, Dict[int, Dict[str, int]]] = {}
        self.load_report: Optional[LoadReport] = None

    # ------------------------------------------------------------------
    # loading (Algorithm 3 lines 2-3 + Section IV transformation)
    # ------------------------------------------------------------------
    def load(self, dataset: Dataset) -> LoadReport:
        """Transform row-stored data to column partitions and init models.

        With ``config.store_dir`` set, the row→column transformation
        runs as an out-of-core disk shuffle into a column-shard store
        (reused if the directory already holds a matching one) and the
        workers read their shards lazily through mmap — same block
        layout, same simulated load cost, bit-identical training.
        """
        K = self.cluster.n_workers
        # one-hot features as a pattern matrix, for evaluation and the
        # in-memory dispatch; the caller's Dataset (and the shard writer's) is untouched
        self._dataset = Dataset(dataset.features.pattern_view(), dataset.labels, dataset.name)
        self._n_features = dataset.n_features
        self._dataset_name = dataset.name
        self._assignment = make_assignment(self.config.scheme, dataset.n_features, K)
        if self.config.store_dir:
            from repro.store import store_backed_dispatch

            self._store, stores, block_sizes, report = store_backed_dispatch(
                dataset,
                self.cluster,
                self.config.store_dir,
                scheme=self.config.scheme,
                block_size=self.config.block_size,
                memory_budget_bytes=self.config.memory_budget_bytes,
            )
        else:
            stores, block_sizes, report = dispatch_block_based(
                self._dataset, self._assignment, self.cluster, block_size=self.config.block_size
            )
        self.load_report = report
        self._init_partitions(stores, block_sizes)
        return report

    def _init_partitions(self, stores, block_sizes) -> None:
        """Load tail: index, initModel, workers, memory, recovery."""
        K = self.cluster.n_workers
        self._index = TwoPhaseIndex(block_sizes, base_seed=self.config.seed)

        # initModel: one global init, sliced per partition so distributed
        # initialisation matches a single-machine init exactly.
        full_init = self.model.init_params(self._n_features, seed=self.config.seed)
        self._partitions = []
        for p in range(K):
            columns = self._assignment.columns_of(p)
            self._partitions.append(
                PartitionState(
                    partition_id=p,
                    store=stores[p],
                    columns=columns,
                    params=np.array(full_init[columns], dtype=np.float64, copy=True),
                    optimizer=self.optimizer.spawn(),
                )
            )
        self._workers = [
            ColumnWorker(
                w,
                self.model,
                [self._partitions[p] for p in self.groups.partitions_of_worker(w)],
            )
            for w in range(K)
        ]
        self._charge_setup_memory()
        self._engine = None  # its programs hold the previous load's workers
        self.recovery_manager = RecoveryManager(
            self.cluster,
            self.groups,
            self.recovery_policy,
            self._workers,
            self._partitions,
        )

    def _charge_setup_memory(self) -> None:
        """Table I memory shape: master holds B-sized buffers, workers
        hold shard + model partition + two batch-sized temporaries."""
        B, width = self.config.batch_size, self.model.statistics_width
        stats_bytes = dense_vector_bytes(B * width)
        self.cluster.charge_memory(self.cluster.MASTER, 2 * stats_bytes, "statistics buffers")
        for worker in self._workers:
            footprint = (
                worker.stored_bytes()
                + worker.model_elements() * VALUE_BYTES
                + 2 * stats_bytes
            )
            self.cluster.charge_memory(worker.worker_id, footprint, "shard+model")

    # ------------------------------------------------------------------
    # training loop (Algorithm 3 lines 4-8): Trainer.fit, with these hooks
    # ------------------------------------------------------------------
    def _result_header(self) -> Dict[str, object]:
        backup = self.config.backup
        return dict(
            system="ColumnSGD-backup{}".format(backup) if backup else "ColumnSGD",
            model=self.model.name,
            dataset=self._dataset_name,
            batch_size=self.config.batch_size,
        )

    def _make_local_runtime(self):
        return make_local_runtime(self)

    def _executor(self):
        """The master program on either backend; on ``sim`` the cluster
        hosts one program for every worker, in-process."""
        if self.backend == "local":
            return super()._executor()
        self.cluster.host(host_program(self, range(self.cluster.n_workers)))
        return ColumnMasterProgram(self, self.cluster)

    @contextmanager
    def _local_run(self, runtime):
        """Snapshots really spill on this backend, to files that live as
        long as the run (the store object and its counters outlive it);
        afterwards the workers' shard-cache counters are pulled back."""
        with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as spill_dir:
            self.recovery_manager.checkpoints = CheckpointStore(spill_dir)
            yield
        self.store_read_stats = collect_store_stats(runtime)

    def _should_stop(self, result: TrainingResult) -> bool:
        """Plateau detection over the evaluated-loss series."""
        patience = self.config.early_stop_patience
        if not patience:
            return False
        losses = [loss for _, _, loss in result.losses()]
        if len(losses) <= patience:
            return False
        best_before = min(losses[:-patience])
        recent_best = min(losses[-patience:])
        return recent_best > best_before - EARLY_STOP_MIN_IMPROVEMENT

    # ------------------------------------------------------------------
    # the round, declared (Algorithm 3's phases) and executed by the engine
    # ------------------------------------------------------------------
    def round_spec(self) -> RoundSpec:
        """Algorithm 3 as a declarative spec: two Spark stages
        (computeStatistics, updateModel) around the master's
        gather-reduce-broadcast interlude.  Table I, ColumnSGD row:
        K pushes + K broadcasts of ``B * width`` values per round.

        The same five sequential phases run on both backends."""
        return RoundSpec(
            system="ColumnSGD",
            sync=self._sync_policy(),
            phases=(
                ComputePhase(
                    "compute_statistics",
                    run="_phase_compute_statistics",
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
            ),
        )

    def _sync_policy(self):
        """The spec's sync policy, from the config's ``sync_*`` knobs.

        On ``backend='local'`` the knobs configure the transport's
        deadlines instead (``make_local_runtime``), and who is chosen or
        stale is what that transport delivered — the engine just waits
        for it."""
        if self.config.backend == "local":
            return BarrierSync()
        if self.config.sync_policy == "backup":
            return BackupSync(self.groups)
        return TimeoutSync(
            self.groups,
            alpha=self.config.sync_alpha,
            max_retries=SYNC_RETRIES if self.config.sync_policy == "retry" else 0,
        )

    # ------------------------------------------------------------------
    # manual worker control (the paper's footnote 6 scenario)
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """Permanently kill a worker without recovery.

        Models the paper's footnote 6: "we just kill this worker and
        continue the training without data re-distribution".  With
        backup computation the group replicas keep the job exact; with
        no backup the next iteration raises
        :class:`~repro.errors.StatisticsRecoveryError` because the
        worker's partition statistics are unrecoverable.
        """
        if not 0 <= worker_id < self.cluster.n_workers:
            raise ConfigurationError(
                "unknown worker {}; cluster has workers 0..{}".format(
                    worker_id, self.cluster.n_workers - 1
                )
            )
        self._workers[worker_id].fail()

    # ------------------------------------------------------------------
    # failures (Section X)
    # ------------------------------------------------------------------
    def _strike(self, t: int, events) -> float:
        """Simulated faults: heartbeat upkeep, then each event's
        Section X recovery, charged in simulated seconds."""
        manager = self.recovery_manager
        manager.heartbeats()
        extra = 0.0
        for event in events:
            if event.kind is FaultKind.MASTER:
                if not self.recovery_policy.master_restart:
                    raise MasterFailedError(
                        "master failed at iteration {}".format(t)
                    )
                extra += manager.recover_master(t, self._engine)
            elif event.kind is FaultKind.TASK:
                # Spark relaunches the task; data and model are cached, so
                # the cost is one extra task launch (plus detection delay
                # when a heartbeat detector is configured).
                extra += manager.restart_task(t)
            else:
                extra += manager.recover_worker(event.worker, iteration=t)
        return extra

    def _checkpoint(self, t: int, struck) -> float:
        """Spill every partition's snapshot when the recovery policy says
        round ``t`` is due, on either backend
        (:meth:`~repro.core.localexec.ColumnMasterProgram.spill_checkpoint`)."""
        if not self.recovery_manager.checkpoint_due(t):
            return 0.0
        return self._engine.trainer.spill_checkpoint(t, struck)

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def current_params(self) -> np.ndarray:
        """Assemble the full model from the column partitions.

        Attached worker processes own the live partitions; they are
        copied back first (out of band, like the simulator's free
        evaluation)."""
        if self._index is None:
            raise TrainingError("no model yet; call load() first")
        if self.local_runtime is not None:
            sync_params(self.local_runtime, self)
        full = np.zeros(
            self.model.param_shape(self._n_features), dtype=np.float64
        )
        for state in self._partitions:
            full[state.columns] = state.params
        return full

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Full objective on the (training) dataset — not charged to time."""
        data = dataset if dataset is not None else self._dataset
        if data is None:
            raise TrainingError("no dataset to evaluate; call load() first")
        return self.model.loss(data.features, data.labels, self.current_params())


def train_columnsgd(
    dataset: Dataset,
    model: StatisticsModel,
    optimizer: Optimizer,
    cluster: SimulatedCluster,
    **config_kwargs,
) -> TrainingResult:
    """One-call convenience: load + fit with a fresh driver."""
    driver = ColumnSGDDriver(
        model, optimizer, cluster, config=ColumnSGDConfig(**config_kwargs)
    )
    driver.load(dataset)
    return driver.fit()
