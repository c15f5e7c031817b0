"""Stale-Synchronous-Parallel (SSP) parameter server.

The paper's related work (Section VI) describes the other way RowSGD
systems fight stragglers: "breaking the synchronization barrier ...
where a worker may proceed without waiting for the slowest worker"
(Petuum's bounded staleness).  ColumnSGD cannot use this trick — the
master needs *all* statistics — which is why it adopts backup
computation instead.  This trainer implements the SSP alternative so
the trade-off is measurable in one framework.

Semantics (Cui et al., ATC'14): a worker may run iteration ``t`` as
soon as the update of iteration ``t - 1 - staleness`` is committed, so
transient stragglers are absorbed by the pipeline instead of stalling
every peer.  Gradients may therefore be computed on a model up to
``staleness`` versions old; the server aggregates whatever versions
arrive.  ``staleness = 0`` degenerates to BSP and reproduces the exact
synchronous trajectory (tested).

The pipeline recurrence lives in :class:`~repro.engine.StaleSync`
(per-worker free times, commit times); the executor here replays the
same recurrence to decide which historical model version each worker
saw.  Because batch sparsity makes exact per-round gradient bytes
unpredictable under staleness, the spec declares a
:class:`~repro.engine.TrafficEnvelope` for ``GRADIENT_PUSH`` — so SSP
runs are protocol-*checked* (bounded), not exempted.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.parameter_server import ParameterServerTrainer
from repro.engine import (
    ComputePhase,
    MasterPhase,
    RoundSpec,
    StaleSync,
    TrafficEnvelope,
)
from repro.errors import ConfigurationError
from repro.net.message import MessageKind
from repro.storage.serialization import SPARSE_PAIR_BYTES, dense_vector_bytes
from repro.utils.validation import check_non_negative


class StaleSyncPSTrainer(ParameterServerTrainer):
    """Petuum-style PS with bounded staleness."""

    def __init__(self, *args, staleness: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        check_non_negative(staleness, "staleness")
        if self.failures.events or self.failures.mtbf_rounds:
            # StaleSync's timeline (commits, worker_free) is relative to
            # the pipeline: recovery seconds added outside the round, the
            # other baselines' fault cost, would never enter it
            raise ConfigurationError(
                "Petuum-SSP takes no fault schedule: its pipelined timeline "
                "cannot charge a recovery to a round; use the BSP 'petuum' "
                "trainer for fault runs"
            )
        self.staleness = int(staleness)
        self._history: List[np.ndarray] = []
        self._max_row_nnz = 0

    def _system_name(self) -> str:
        return "Petuum-SSP{}".format(self.staleness)

    def load(self, dataset):
        report = super().load(dataset)
        # Worst-case rows for the GRADIENT_PUSH envelope's byte ceiling.
        self._max_row_nnz = int(self._dataset.features.row_nnz().max())
        return report

    # ------------------------------------------------------------------
    def round_spec(self) -> RoundSpec:
        # Same traffic shape as BSP Petuum: workers pull the full dense
        # model and push sparse gradients through S server NICs.  The
        # StaleSync policy (fresh per engine) turns the barrier into the
        # bounded-staleness pipeline recurrence.
        return RoundSpec(
            system=self._system_name(),
            sync=StaleSync(self.staleness, self.cluster.n_workers),
            phases=(
                ComputePhase(
                    "compute_gradients",
                    run="_phase_stale_compute",
                    synchronized=True,
                ),
            )
            + self._comm_phases()
            + (MasterPhase("server_update", run="_phase_center_update"),),
            envelopes="_traffic_envelopes",
        )

    def _phase_stale_compute(self, ctx) -> Dict[int, float]:
        """Per-worker gradient tasks against possibly-stale models."""
        K = self.cluster.n_workers
        width = self.model.statistics_width
        commits = ctx.sync.commits
        # Dense replica cost of the PS architecture, charged via the
        # MODEL_PULL bytes and server dense_work (see BaselineTrainer).
        grad_sum = np.zeros_like(self._params)
        batch_rows = 0
        batch_nnz = 0
        per_worker: Dict[int, float] = {}
        for w in range(K):
            local = self._partitioner.sample_local_batch(
                ctx.t, self.config.batch_size, w
            )
            batch_rows += local.n_rows
            batch_nnz += local.nnz
            # --- numerics: which committed version had this worker seen
            # when it started iteration t?
            version = 0
            while version < len(commits) and commits[version] <= ctx.start_times[w]:
                version += 1
            seen = self._history[min(version, len(self._history) - 1)]
            if local.n_rows:
                stats = self.model.compute_statistics(local.features, seen)
                mean_grad = self.model.gradient_from_statistics(
                    local.features, local.labels, stats, seen
                )
                mean_grad.values *= local.n_rows
                mean_grad.add_to(grad_sum)
            per_worker[w] = (
                self._task_overhead()
                + self.cluster.cost.sparse_work(local.nnz, passes=2 * width)
            ) * ctx.slowdowns[w]

        self.optimizer.step(self._params, grad_sum / max(batch_rows, 1))
        # Full history is kept so commit-count -> model-version indexing
        # stays direct; runs are a few hundred iterations on scaled
        # models, so this is cheap.
        self._history.append(np.array(self._params, copy=True))
        ctx.scratch["batch_nnz"] = batch_nnz
        return per_worker

    def _traffic_envelopes(self, ctx) -> Dict[MessageKind, TrafficEnvelope]:
        """Bounded-staleness traffic bounds (satisfied every round).

        Pull traffic is deterministic (K full-model pulls); push bytes
        vary with the sampled batch's sparsity, bounded above by every
        sampled row hitting the densest row of the dataset.
        """
        K = self.cluster.n_workers
        model_bytes = dense_vector_bytes(self.model_elements)
        max_push = int(
            self.config.batch_size
            * self._max_row_nnz
            / K
            * self.model.params_per_feature()
            * SPARSE_PAIR_BYTES
        )
        return {
            MessageKind.MODEL_PULL: TrafficEnvelope.exact(K, K * model_bytes),
            MessageKind.GRADIENT_PUSH: TrafficEnvelope(K, K, 0, K * max_push),
        }

    def _make_engine(self):
        # a fresh engine runs a fresh StaleSync: the version history its
        # commit timeline indexes starts over with it
        self._history = [np.array(self._params, copy=True)]
        return super()._make_engine()
