"""Unit tests for backup groups and the master's recovery rule."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import BackupGroups, ColumnMaster, ColumnSGDConfig, ColumnSGDDriver, localexec
from repro.core.localexec import ColumnMasterProgram
from repro.engine import BackupSync
from repro.errors import PartitionError, StatisticsRecoveryError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.sim.straggler import StragglerModel

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
        assert groups.cover(dict.fromkeys(range(4), 1.0)) == ({0: 0, 1: 2}, [])
        assert groups.cover({0: INF, 1: 1.0, 2: 1.0, 3: 1.0}) == ({0: 1, 1: 2}, [])

    def test_select_survivors_raises_on_dead_group(self):
        groups = BackupGroups(4, backup=1)
        finish = {0: 1.0, 1: 1.0, 2: INF, 3: INF}
        assert groups.cover(finish) == ({0: 0}, [1])
        with pytest.raises(StatisticsRecoveryError) as err:
            BackupSync(groups).resolve(SimpleNamespace(), finish)
        assert err.value.missing_groups == (1,)

    def test_fastest_per_group(self):
        groups = BackupGroups(4, backup=1)
        assert groups.cover({0: 5.0, 1: 1.0, 2: 2.0, 3: 9.0}) == ({0: 1, 1: 2}, [])

    def test_fastest_per_group_all_inf(self):
        groups = BackupGroups(2, backup=1)
        assert groups.cover({0: INF, 1: INF}) == ({}, [0])
        assert groups.cover({}) == ({}, [0])  # absent is never a finisher
        with pytest.raises(StatisticsRecoveryError):
            BackupSync(groups).resolve(SimpleNamespace(), {0: INF, 1: INF})


class TestMasterReduce:
    def stats(self, value, shape=(3, 1)):
        return np.full(shape, float(value))

    def test_sum_without_backup(self):
        master = ColumnMaster(BackupGroups(3, backup=0), LR)
        reduced = master.reduce({0: self.stats(1), 1: self.stats(2), 2: self.stats(4)})
        assert np.all(reduced == 7.0)

    @staticmethod
    def reduce_covered(master, stats, finish):
        """What the master program does: reduce each group's ``cover`` pick."""
        chosen, _ = master.groups.cover(finish)
        return master.reduce({g: stats[w] for g, w in chosen.items()})

    def test_one_contribution_per_group(self):
        """With backup, replicas are NOT double-counted."""
        master = ColumnMaster(BackupGroups(4, backup=1), LR)
        stats = {w: self.stats(10 + w) for w in range(4)}
        reduced = self.reduce_covered(master, stats, dict.fromkeys(range(4), 1.0))
        # groups (0,1) and (2,3): first member each on a tie -> 10 + 12
        assert np.all(reduced == 22.0)

    def test_fastest_finisher_chosen(self):
        master = ColumnMaster(BackupGroups(4, backup=1), LR)
        stats = {w: self.stats(10 + w) for w in range(4)}
        reduced = self.reduce_covered(master, stats, {0: 9.0, 1: 1.0, 2: 1.0, 3: 9.0})
        assert np.all(reduced == 11.0 + 12.0)

    def test_recovers_with_dead_straggler(self):
        """Fig 6: worker1 straggles, worker2's replica statistics suffice."""
        master = ColumnMaster(BackupGroups(2, backup=1), LR)
        reduced = self.reduce_covered(master, {1: self.stats(5)}, {0: INF, 1: 1.0})
        assert np.all(reduced == 5.0)

    def test_whole_group_dead_raises(self):
        master = ColumnMaster(BackupGroups(2, backup=1), LR)
        with pytest.raises(StatisticsRecoveryError):
            self.reduce_covered(master, {}, {0: INF, 1: INF})

    def test_dead_worker_with_finish_times(self):
        """A worker that never replied is absent from the finish times,
        however early it would have been."""
        master = ColumnMaster(BackupGroups(2, backup=1), LR)
        reduced = self.reduce_covered(master, {1: self.stats(3)}, {1: 5.0})
        assert np.all(reduced == 3.0)

    def test_does_not_mutate_contributions(self):
        master = ColumnMaster(BackupGroups(2, backup=0), LR)
        a, b = self.stats(1), self.stats(2)
        master.reduce({0: a, 1: b})
        assert np.all(a == 1.0) and np.all(b == 2.0)


class FirstMembersSlow(StragglerModel):
    """Workers 0 and 2, the first member of each pair group, run 1.5x
    every round: slower than their replicas, well inside a 3 x median
    deadline."""

    def victims(self, iteration):
        return frozenset({0, 2})


class TestMasterProgram:
    def run(self, data, straggler, monkeypatch):
        """Three ``timeout`` rounds at K = 4, S = 1; returns the payloads
        ``_phase_reduce`` decoded per round, each round's ``updater_of``
        and the final model."""
        real_decode = localexec.decode_payload
        real_reduce = ColumnMasterProgram._phase_reduce
        real_updaters = ColumnMasterProgram._updaters
        decodes, per_round, updaters = [], [], []

        def decode(*args, **kwargs):
            decodes.append(1)
            return real_decode(*args, **kwargs)

        def reduce(program, ctx):
            before = len(decodes)
            seconds = real_reduce(program, ctx)
            per_round.append(len(decodes) - before)
            return seconds

        def updater_of(program, ctx):
            updaters.append(real_updaters(program, ctx))
            return updaters[-1]

        monkeypatch.setattr(localexec, "decode_payload", decode)
        monkeypatch.setattr(ColumnMasterProgram, "_phase_reduce", reduce)
        monkeypatch.setattr(ColumnMasterProgram, "_updaters", updater_of)
        config = ColumnSGDConfig(
            batch_size=64, iterations=3, eval_every=0, seed=9, block_size=64,
            backup=1, sync_policy="timeout",
        )
        driver = ColumnSGDDriver(
            LR, SGD(1.0), SimulatedCluster(CLUSTER1.with_workers(4)), config=config,
            straggler=straggler,
        )
        driver.load(data)
        return per_round, updaters, driver.fit().final_params

    def test_reduce_decodes_and_updates_through_each_groups_earliest(
        self, tiny_binary, monkeypatch
    ):
        per_round, updaters, params = self.run(
            tiny_binary, FirstMembersSlow(4, level=0.5), monkeypatch
        )
        assert per_round == [2, 2, 2]  # one payload per group, not K
        assert updaters == [{0: 1, 1: 1, 2: 3, 3: 3}] * 3
        # replicas share their partitions' state: the updater moves no bit
        _, even_updaters, even = self.run(tiny_binary, None, monkeypatch)
        assert even_updaters == [{0: 0, 1: 0, 2: 2, 3: 2}] * 3  # ties: lower id
        assert np.array_equal(params, even)
