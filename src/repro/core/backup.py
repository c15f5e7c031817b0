"""S-backup computation groups (Section IV-B, Fig 6).

With K workers and backup level S, workers are divided into K/(S+1)
groups; each group owns S+1 data/model partitions and every member
stores *all* of them — members are replicas of one another.  During
training each member reports the statistics aggregated over the whole
group's partitions, so the master only needs one response per group to
recover the complete statistics; up to S stragglers per group are
tolerated.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import PartitionError, StatisticsRecoveryError
from repro.utils.validation import check_non_negative, check_positive


class BackupGroups:
    """Partition/worker grouping for S-backup computation.

    ``S = 0`` degenerates to singleton groups — pure ColumnSGD.
    """

    def __init__(self, n_workers: int, backup: int = 0):
        check_positive(n_workers, "n_workers")
        check_non_negative(backup, "backup")
        group_size = backup + 1
        if n_workers % group_size != 0:
            raise PartitionError(
                "K={} workers cannot form groups of S+1={}".format(n_workers, group_size)
            )
        self.n_workers = int(n_workers)
        self.backup = int(backup)
        self.group_size = group_size
        self.n_groups = self.n_workers // group_size
        self._groups: List[Tuple[int, ...]] = [
            tuple(range(g * group_size, (g + 1) * group_size)) for g in range(self.n_groups)
        ]

    # ------------------------------------------------------------------
    def groups(self) -> List[Tuple[int, ...]]:
        """Worker ids per group, in group order."""
        return list(self._groups)

    def group_of(self, worker: int) -> int:
        """Group index of ``worker``."""
        if not 0 <= worker < self.n_workers:
            raise PartitionError("worker {} out of range".format(worker))
        return worker // self.group_size

    def partitions_of_worker(self, worker: int) -> Tuple[int, ...]:
        """Partition ids ``worker`` stores (its whole group's partitions).

        Partition ids coincide with worker ids of the no-backup layout:
        group g owns partitions ``g*(S+1) .. g*(S+1)+S``.
        """
        g = self.group_of(worker)
        return self._groups[g]

    def replicas_of_partition(self, partition: int) -> Tuple[int, ...]:
        """Workers holding a replica of ``partition``."""
        return self._groups[partition // self.group_size]

    # ------------------------------------------------------------------
    def fastest_per_group(self, finish_times: Sequence[float]) -> List[int]:
        """Per group, the member finishing first (Fig 6's recovery rule).

        ``finish_times[w]`` may be ``float('inf')`` for dead workers; a
        group of all-inf members raises
        :class:`StatisticsRecoveryError`.
        """
        chosen: List[int] = []
        missing: List[int] = []
        for g, members in enumerate(self._groups):
            best = min(members, key=lambda w: finish_times[w])
            if finish_times[best] == float("inf"):
                missing.append(g)
            else:
                chosen.append(best)
        if missing:
            raise StatisticsRecoveryError(missing)
        return chosen

    def __repr__(self) -> str:
        return "BackupGroups(K={}, S={}, groups={})".format(
            self.n_workers, self.backup, self.n_groups
        )
