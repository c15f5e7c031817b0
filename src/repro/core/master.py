"""ColumnSGD master: statistics aggregation and recovery.

The master is deliberately lightweight (the paper's headline design
point): it never sees the parameters, only per-batch statistics buffers of
shape ``(B, statistics_width)``.  With backup computation it additionally
runs the recovery rule: inspect arrivals until every group is covered,
then kill the rest.  Under timeout-based suspicion
(:class:`~repro.engine.policy.TimeoutSync`) the master may also
substitute a group's *previous* contribution for one that never arrived
— enabled by setting :attr:`cache_contributions`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.core.backup import BackupGroups
from repro.errors import SimulationError, StatisticsRecoveryError
from repro.models.base import StatisticsModel


class ColumnMaster:
    """Aggregates per-group statistics (Algorithm 3, reduceStatistics)."""

    def __init__(self, groups: BackupGroups, model: StatisticsModel):
        self.groups = groups
        #: its ``reduce_statistics`` folds the groups' contributions
        self.model = model
        #: keep each group's last contribution so a stale round can
        #: substitute it; off by default (costs one buffer per group)
        self.cache_contributions = False
        self._last_contribution: Dict[int, np.ndarray] = {}

    def reduce(
        self,
        stats_by_worker: Dict[int, Optional[np.ndarray]],
        finish_times: Optional[Sequence[float]] = None,
        stale_groups: Optional[Set[int]] = None,
    ) -> np.ndarray:
        """Fold one contribution per group, in group order, into the
        complete statistics with the model's ``reduce_statistics``.

        ``stats_by_worker[w]`` is worker w's aggregated group statistics,
        or ``None`` for workers that never reported (killed stragglers,
        crashes).  Of each group's reporting members the earliest
        finisher by ``finish_times`` is chosen (the paper's recovery
        rule), or with no times the first.  Groups in ``stale_groups``
        contribute their cached previous statistics instead (requires
        :attr:`cache_contributions`); a stale group with no cached
        contribution yet (the first rounds) falls back to its live
        statistics — the master waits for the straggler this once.
        """
        stale = stale_groups if stale_groups is not None else set()
        contributions = []  # (group, contribution) in group order
        missing = []
        used_cache = set()
        for g, members in enumerate(self.groups.groups()):
            if g in stale:
                cached = self._last_contribution.get(g)
                if cached is not None:
                    contributions.append((g, cached))
                    used_cache.add(g)
                    continue
                # nothing cached yet — fall through to the live path
            alive = [w for w in members if stats_by_worker.get(w) is not None]
            if not alive:
                missing.append(g)
                continue
            chosen = (
                alive[0] if finish_times is None
                else min(alive, key=finish_times.__getitem__)
            )
            contributions.append((g, stats_by_worker[chosen]))
        if missing:
            raise StatisticsRecoveryError(missing)

        total = None
        for g, contribution in contributions:
            if self.cache_contributions and g not in used_cache:
                self._last_contribution[g] = np.array(contribution, copy=True)
            total = (
                contribution.copy() if total is None
                else self.model.reduce_statistics(total, contribution)
            )
        if total is None:
            raise SimulationError("no statistics to reduce")
        return total
