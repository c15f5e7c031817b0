"""Property-based tests on the distributed protocol itself.

Hypothesis draws cluster widths, batch sizes, block sizes and schemes;
the exactness invariant (distributed trajectory == sequential) and the
statistics-recovery invariant must hold for all of them.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BackupGroups, ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.engine import BackupSync, TimeoutSync
from repro.errors import StatisticsRecoveryError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster

INF = float("inf")
DATA = make_classification(200, 64, nnz_per_row=6, binary_features=False, seed=42)


def distributed_params(workers, batch, block, scheme, iterations=5, backup=0):
    cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
    config = ColumnSGDConfig(
        batch_size=batch, iterations=iterations, eval_every=0, seed=11,
        block_size=block, scheme=scheme, backup=backup,
    )
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config)
    driver.load(DATA)
    result = driver.fit()
    return driver, result.final_params


class TestExactnessProperty:
    @given(
        workers=st.integers(1, 8),
        batch=st.integers(1, 64),
        block=st.sampled_from([16, 32, 64, 128]),
        scheme=st.sampled_from(["round_robin", "range", "hash"]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_distributed_equals_sequential(self, workers, batch, block, scheme):
        driver, params = distributed_params(workers, batch, block, scheme)
        reference = LogisticRegression().init_params(DATA.n_features)
        opt = SGD(0.5)
        index = driver._index
        for t in range(5):
            rows = index.to_global_rows(index.sample(t, batch))
            sub = DATA.take(rows)
            grad = LogisticRegression().gradient(sub.features, sub.labels, reference)
            opt.step(reference, grad)
        assert np.allclose(params, reference, atol=1e-9)

    @given(
        workers=st.sampled_from([2, 4, 6, 8]),
        backup=st.sampled_from([1]),
        batch=st.integers(4, 48),
    )
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backup_preserves_trajectory(self, workers, backup, batch):
        _, pure = distributed_params(workers, batch, 32, "round_robin")
        _, backed = distributed_params(workers, batch, 32, "round_robin",
                                       backup=backup)
        assert np.allclose(pure, backed, atol=1e-9)


class TestBackupGroupProperties:
    @given(
        st.integers(1, 24).filter(lambda k: k > 0),
        st.integers(0, 5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_survivor_selection_covers_all_partitions(self, n_workers, backup, data):
        if n_workers % (backup + 1) != 0:
            return
        groups = BackupGroups(n_workers, backup)
        dead = data.draw(
            st.sets(st.integers(0, n_workers - 1), max_size=n_workers)
        )
        # keep at least one survivor per group, else skip
        if any(set(g) <= dead for g in groups.groups()):
            return
        finish = {w: float("inf") if w in dead else 1.0 for w in range(n_workers)}
        chosen, missing = groups.cover(finish)
        assert missing == []
        covered = set()
        for w in chosen.values():
            covered |= set(groups.partitions_of_worker(w))
        assert covered == set(range(n_workers))
        # exactly one survivor per group
        assert sorted(chosen) == list(range(groups.n_groups))

    @given(
        st.sampled_from(
            [(k, s) for k in range(1, 9) for s in range(k) if k % (s + 1) == 0]
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_cover_is_fig6_rule_for_every_policy(self, shape, data):
        """Each group's pick is its lowest-id earliest finite finisher;
        ``missing`` is exactly the groups with none; and the policies
        that choose workers choose those."""
        n_workers, backup = shape
        groups = BackupGroups(n_workers, backup)
        # ties (few distinct times), dead (inf) and absent workers
        outcome = st.one_of(st.none(), st.just(INF), st.sampled_from([1.0, 2.0, 3.0]))
        drawn = data.draw(st.lists(outcome, min_size=n_workers, max_size=n_workers))
        finish = {w: f for w, f in enumerate(drawn) if f is not None}

        chosen, missing = groups.cover(finish)
        for g, members in enumerate(groups.groups()):
            finite = [w for w in members if finish.get(w, INF) < INF]
            if not finite:
                assert g in missing and g not in chosen
                continue
            earliest = min(finish[w] for w in finite)
            assert chosen[g] == min(w for w in finite if finish[w] == earliest)
        assert missing == sorted(set(range(groups.n_groups)) - set(chosen))

        backup_ctx = SimpleNamespace()
        if missing:
            with pytest.raises(StatisticsRecoveryError) as err:
                BackupSync(groups).resolve(backup_ctx, finish)
            assert err.value.missing_groups == tuple(missing)
        else:
            BackupSync(groups).resolve(backup_ctx, finish)
            assert backup_ctx.chosen == set(chosen.values())

        # a deadline past every finite time: all of them arrive
        timeout_ctx = SimpleNamespace(cluster=None, t=0, replay=False, stale_groups=set())
        per_worker = {w: finish.get(w, INF) for w in range(n_workers)}
        TimeoutSync(groups, alpha=10.0).resolve(timeout_ctx, per_worker)
        if all(f < INF for f in per_worker.values()):
            # nobody suspected: the plain barrier takes every worker
            assert timeout_ctx.chosen == set(range(n_workers))
        else:
            assert timeout_ctx.chosen == set(chosen.values())
            assert timeout_ctx.stale_groups == set(missing)

    @given(st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_every_partition_replicated_s_plus_1_times(self, groups_count, backup):
        n_workers = groups_count * (backup + 1)
        groups = BackupGroups(n_workers, backup)
        for p in range(n_workers):
            replicas = groups.replicas_of_partition(p)
            assert len(replicas) == backup + 1
            assert all(p in groups.partitions_of_worker(w) for w in replicas)
