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
(per-worker free times, commit times); the round is the BSP shard loop
(:meth:`~repro.baselines.base.BaselineTrainer._phase_compute_gradients`)
with :meth:`_worker_params` replaying the recurrence to pick the
historical model version each worker saw.  Because batch sparsity makes exact per-round gradient bytes
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
                    run="_phase_compute_gradients",
                    synchronized=True,
                ),
            )
            + self._comm_phases()
            + (MasterPhase("server_update", run="_phase_center_update"),),
            envelopes="_traffic_envelopes",
        )

    def _worker_params(self, ctx, worker: int) -> np.ndarray:
        """The newest model version committed when ``worker`` started
        round ``ctx.t``."""
        commits = ctx.sync.commits
        version = 0
        while version < len(commits) and commits[version] <= ctx.start_times[worker]:
            version += 1
        return self._history[min(version, len(self._history) - 1)]

    def _phase_compute_gradients(self, ctx) -> Dict[int, float]:
        per_worker = super()._phase_compute_gradients(ctx)
        # Full history is kept so commit-count -> model-version indexing
        # stays direct; runs are a few hundred iterations on scaled
        # models, so this is cheap.
        self._history.append(np.array(self._params, copy=True))
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
