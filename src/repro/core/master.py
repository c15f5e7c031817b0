"""ColumnSGD master: statistics aggregation and recovery.

The master is deliberately lightweight (the paper's headline design
point): it never sees the parameters, only per-batch statistics buffers of
shape ``(B, statistics_width)``.  It folds one contribution per backup
group; which member's contribution that is — Fig 6's recovery rule, the
earliest finisher — is decided once, by
:meth:`~repro.core.backup.BackupGroups.cover`, which the sync policy and
the master program both call.  Under timeout-based suspicion
(:class:`~repro.engine.policy.TimeoutSync`) the master may also
substitute a group's *previous* contribution for one that never arrived
— enabled by setting :attr:`cache_contributions`.
"""

from __future__ import annotations

from typing import AbstractSet, Dict

import numpy as np

from repro.core.backup import BackupGroups
from repro.errors import StatisticsRecoveryError
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
        stats_by_group: Dict[int, np.ndarray],
        stale_groups: AbstractSet[int] = frozenset(),
    ) -> np.ndarray:
        """Fold one contribution per group, in group order, into the
        complete statistics with the model's ``reduce_statistics``.

        ``stats_by_group[g]`` is group g's live statistics: what its
        member chosen by :meth:`~repro.core.backup.BackupGroups.cover`
        reported.  A group in ``stale_groups`` contributes its cached
        previous statistics instead (requires
        :attr:`cache_contributions`); with nothing cached yet (the first
        rounds) its live statistics are used if it has any.  A group
        with neither raises :class:`StatisticsRecoveryError`.
        """
        cached = {
            g: self._last_contribution[g]
            for g in stale_groups if g in self._last_contribution
        }
        groups = range(self.groups.n_groups)
        missing = [g for g in groups if g not in cached and g not in stats_by_group]
        if missing:
            raise StatisticsRecoveryError(missing)

        total = None
        for g in groups:
            contribution = cached.get(g)
            if contribution is None:
                contribution = stats_by_group[g]
                if self.cache_contributions:
                    self._last_contribution[g] = np.array(contribution, copy=True)
            total = (
                contribution.copy() if total is None
                else self.model.reduce_statistics(total, contribution)
            )
        return total
