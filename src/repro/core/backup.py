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

import math
from typing import Dict, List, Mapping, Tuple

from repro.errors import PartitionError
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
    def cover(self, finish: Mapping[int, float]) -> Tuple[Dict[int, int], List[int]]:
        """Fig 6's recovery rule: ``(chosen, missing)``.

        ``chosen`` maps each group to its earliest finite finisher in
        ``finish`` (worker -> seconds), ties to the lower worker id;
        ``missing`` lists, in order, the groups with none.  A worker
        absent from ``finish`` or finishing at ``inf`` never counts.
        """
        chosen: Dict[int, int] = {}
        missing: List[int] = []
        for g, members in enumerate(self._groups):
            finite = [w for w in members if finish.get(w, math.inf) < math.inf]
            if finite:
                chosen[g] = min(finite, key=finish.__getitem__)
            else:
                missing.append(g)
        return chosen, missing

    def __repr__(self) -> str:
        return "BackupGroups(K={}, S={}, groups={})".format(
            self.n_workers, self.backup, self.n_groups
        )
