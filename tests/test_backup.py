"""Unit tests for backup groups and the master's recovery rule."""

import numpy as np
import pytest

from repro.core import BackupGroups, ColumnMaster
from repro.errors import PartitionError, StatisticsRecoveryError
from repro.models import LogisticRegression

INF = float("inf")
LR = LogisticRegression()  # additive statistics: the master sums them


class TestBackupGroups:
    def test_no_backup_singletons(self):
        groups = BackupGroups(4, backup=0)
        assert groups.n_groups == 4
        assert groups.groups() == [(0,), (1,), (2,), (3,)]
        assert groups.partitions_of_worker(2) == (2,)

    def test_one_backup_pairs(self):
        groups = BackupGroups(6, backup=1)
        assert groups.n_groups == 3
        assert groups.groups()[0] == (0, 1)
        assert groups.partitions_of_worker(0) == (0, 1)
        assert groups.partitions_of_worker(1) == (0, 1)
        assert groups.replicas_of_partition(3) == (2, 3)

    def test_divisibility_enforced(self):
        with pytest.raises(PartitionError):
            BackupGroups(5, backup=1)

    def test_group_of(self):
        groups = BackupGroups(8, backup=3)
        assert groups.group_of(0) == 0
        assert groups.group_of(7) == 1
        with pytest.raises(PartitionError):
            groups.group_of(8)

    def test_select_survivors_prefers_first_alive(self):
        """On a tie the group's first live member reports; a dead one
        (``inf``) never does."""
        groups = BackupGroups(4, backup=1)
        assert groups.fastest_per_group([1.0] * 4) == [0, 2]
        assert groups.fastest_per_group([INF, 1.0, 1.0, 1.0]) == [1, 2]

    def test_select_survivors_raises_on_dead_group(self):
        groups = BackupGroups(4, backup=1)
        with pytest.raises(StatisticsRecoveryError) as err:
            groups.fastest_per_group([1.0, 1.0, INF, INF])
        assert err.value.missing_groups == (1,)

    def test_fastest_per_group(self):
        groups = BackupGroups(4, backup=1)
        assert groups.fastest_per_group([5.0, 1.0, 2.0, 9.0]) == [1, 2]

    def test_fastest_per_group_all_inf(self):
        groups = BackupGroups(2, backup=1)
        with pytest.raises(StatisticsRecoveryError):
            groups.fastest_per_group([float("inf"), float("inf")])


class TestMasterReduce:
    def stats(self, value, shape=(3, 1)):
        return np.full(shape, float(value))

    def test_sum_without_backup(self):
        master = ColumnMaster(BackupGroups(3, backup=0), LR)
        reduced = master.reduce({0: self.stats(1), 1: self.stats(2), 2: self.stats(4)})
        assert np.all(reduced == 7.0)

    def test_one_contribution_per_group(self):
        """With backup, replicas are NOT double-counted."""
        master = ColumnMaster(BackupGroups(4, backup=1), LR)
        stats = {w: self.stats(10 + w) for w in range(4)}
        reduced = master.reduce(stats)
        # groups (0,1) and (2,3): first member each -> 10 + 12
        assert np.all(reduced == 22.0)

    def test_fastest_finisher_chosen(self):
        master = ColumnMaster(BackupGroups(4, backup=1), LR)
        stats = {w: self.stats(10 + w) for w in range(4)}
        reduced = master.reduce(stats, finish_times=[9.0, 1.0, 1.0, 9.0])
        assert np.all(reduced == 11.0 + 12.0)

    def test_recovers_with_dead_straggler(self):
        """Fig 6: worker1 straggles, worker2's replica statistics suffice."""
        master = ColumnMaster(BackupGroups(2, backup=1), LR)
        reduced = master.reduce({0: None, 1: self.stats(5)})
        assert np.all(reduced == 5.0)

    def test_whole_group_dead_raises(self):
        master = ColumnMaster(BackupGroups(2, backup=1), LR)
        with pytest.raises(StatisticsRecoveryError):
            master.reduce({0: None, 1: None})

    def test_dead_worker_with_finish_times(self):
        master = ColumnMaster(BackupGroups(2, backup=1), LR)
        reduced = master.reduce(
            {0: None, 1: self.stats(3)}, finish_times=[0.1, 5.0]
        )
        assert np.all(reduced == 3.0)

    def test_does_not_mutate_contributions(self):
        master = ColumnMaster(BackupGroups(2, backup=0), LR)
        a, b = self.stats(1), self.stats(2)
        master.reduce({0: a, 1: b})
        assert np.all(a == 1.0) and np.all(b == 2.0)
