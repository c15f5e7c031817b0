"""TimeoutSync: timeout suspicion, doubling retries, stale degradation."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import BackupGroups, ColumnSGDConfig, ColumnSGDDriver
from repro.engine import (
    ComputePhase,
    EngineTrace,
    MasterPhase,
    RoundEngine,
    RoundSpec,
    TimeoutSync,
)
from repro.engine.policy import SYNC_RETRIES
from repro.errors import ConfigurationError
from repro.models import LogisticRegression
from repro.net.message import MessageKind
from repro.optim import SGD
from repro.runtime.deadline import TimeoutPolicy
from repro.sim import CLUSTER1, SimulatedCluster
from tests.golden.record_time_axis import PermanentStraggler

INF = float("inf")


def make_ctx():
    return SimpleNamespace(
        cluster=SimpleNamespace(engine_trace=EngineTrace(system="test")),
        t=0,
        replay=False,
    )


class TestValidation:
    def test_rejects_alpha_below_one(self):
        with pytest.raises(ConfigurationError):
            TimeoutSync(BackupGroups(4, 0), alpha=0.5)

    @pytest.mark.parametrize("backend", ["sim", "local"])
    @pytest.mark.parametrize(
        "factors, message",
        [
            # the backoff is not a config knob: both backends double the
            # deadline per retry (repro.engine.policy.BACKOFF)
            (dict(alpha=0.5), "alpha must be >= 1"),
        ],
    )
    def test_both_backends_reject_the_same_factors_at_construction(
        self, backend, factors, message
    ):
        # local hands the sync_* knobs to TimeoutPolicy, sim to TimeoutSync
        with pytest.raises(ConfigurationError, match=message):
            ColumnSGDConfig(
                backend=backend,
                sync_policy="timeout",
                **{"sync_" + name: value for name, value in factors.items()},
            )
        with pytest.raises(ConfigurationError, match=message):
            TimeoutPolicy(**factors)

    def test_retry_sync_defaults(self):
        """``sync_policy='retry'`` is TimeoutSync with SYNC_RETRIES
        doubling retries; ``'timeout'`` gives up at the first deadline."""
        for policy, retries in (("retry", SYNC_RETRIES), ("timeout", 0)):
            driver = ColumnSGDDriver(
                LogisticRegression(), SGD(1.0),
                SimulatedCluster(CLUSTER1.with_workers(4)),
                config=ColumnSGDConfig(sync_policy=policy),
            )
            assert driver.round_spec().sync.max_retries == retries
        assert SYNC_RETRIES == 2


class TestResolve:
    def test_all_arrived_degenerates_to_barrier(self):
        policy = TimeoutSync(BackupGroups(4, 0), alpha=3.0)
        ctx = make_ctx()
        duration = policy.resolve(ctx, {0: 1.0, 1: 1.2, 2: 0.9, 3: 1.1})
        assert duration == pytest.approx(1.2)
        assert ctx.chosen == {0, 1, 2, 3}
        assert ctx.cluster.engine_trace.retries == []

    def test_covered_group_proceeds_at_deadline(self):
        """A straggler past the deadline is suspected, but its backup
        peer covers the group — proceed without it, and don't kill it."""
        policy = TimeoutSync(BackupGroups(4, 1), alpha=1.5)
        ctx = make_ctx()
        # groups {0,1} and {2,3}; worker 3 is a 10x straggler
        duration = policy.resolve(ctx, {0: 1.0, 1: 1.0, 2: 1.0, 3: 10.0})
        assert duration == pytest.approx(1.5)  # alpha * median
        assert 3 not in ctx.chosen
        assert ctx.killed == set()
        (event,) = ctx.cluster.engine_trace.retries
        assert event.suspects == (3,)
        assert event.resolved == "arrived"

    def test_uncovered_group_degrades_to_stale(self):
        policy = TimeoutSync(BackupGroups(4, 0), alpha=1.5)
        ctx = make_ctx()
        duration = policy.resolve(ctx, {0: 1.0, 1: 1.0, 2: 1.0, 3: INF})
        assert duration == pytest.approx(1.5)
        assert ctx.stale_groups == {3}
        assert ctx.chosen == {0, 1, 2}
        (event,) = ctx.cluster.engine_trace.retries
        assert event.resolved == "stale"

    def test_backoff_retries_until_straggler_arrives(self):
        """Deadline 1.5 -> 3.0 -> 6.0; the 5 s straggler arrives in the
        third window, so two 'retry' expiries precede success."""
        policy = TimeoutSync(BackupGroups(4, 0), alpha=1.5, max_retries=3)
        ctx = make_ctx()
        duration = policy.resolve(ctx, {0: 1.0, 1: 1.0, 2: 1.0, 3: 5.0})
        assert duration == pytest.approx(5.0)
        events = ctx.cluster.engine_trace.retries
        assert [e.resolved for e in events] == ["retry", "retry"]
        assert [e.attempt for e in events] == [0, 1]
        assert [e.deadline_s for e in events] == [pytest.approx(1.5), pytest.approx(3.0)]

    def test_dead_worker_exhausts_every_retry(self):
        policy = TimeoutSync(BackupGroups(4, 0), alpha=1.5, max_retries=SYNC_RETRIES)
        ctx = make_ctx()
        policy.resolve(ctx, {0: 1.0, 1: 1.0, 2: 1.0, 3: INF})
        events = ctx.cluster.engine_trace.retries
        assert [e.resolved for e in events] == ["retry", "retry", "stale"]


class _OffsetTrainer:
    """A warmup master phase pushes the synchronized compute phase to a
    nonzero round offset; the timeout deadline must not notice."""

    WARMUP_S = 4.0
    # groups {0,1} and {2,3}; worker 3 blows the 1.5 x median deadline
    # but its backup peer covers the group
    FINISH = {0: 1.0, 1: 1.0, 2: 1.0, 3: 10.0}

    def __init__(self, cluster, warmup: bool):
        self.cluster = cluster
        self.warmup = warmup

    def round_spec(self) -> RoundSpec:
        head = (
            (MasterPhase("warmup", run="_phase_warmup"),) if self.warmup else ()
        )
        return RoundSpec(
            system="stub",
            sync=TimeoutSync(BackupGroups(4, 1), alpha=1.5),
            phases=head
            + (ComputePhase("work", run="_phase_work", synchronized=True),),
        )

    def _phase_warmup(self, ctx) -> float:
        return self.WARMUP_S

    def _phase_work(self, ctx):
        return dict(self.FINISH)


class TestPhaseRelativeDeadline:
    """The TimeoutSync contract: finish times, deadline and the resolved
    duration are all offsets from the synchronized phase's *start*, not
    from the round's — the engine adds the phase's scheduled start when
    placing them on the round timeline."""

    def run_stub(self, warmup: bool):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        trainer = _OffsetTrainer(cluster, warmup=warmup)
        engine = RoundEngine(trainer, cluster)
        engine.run_round(0)
        return cluster.engine_trace

    def test_deadline_is_independent_of_phase_offset(self):
        at_zero = self.run_stub(warmup=False)
        at_offset = self.run_stub(warmup=True)
        (event_zero,) = at_zero.retries
        (event_offset,) = at_offset.retries
        # alpha x median(finish) = 1.5 x 1.0 in both runs: the warmup
        # offset never leaks into the policy's arithmetic
        assert event_zero.deadline_s == pytest.approx(1.5)
        assert event_offset.deadline_s == pytest.approx(1.5)
        assert event_zero.suspects == event_offset.suspects == (3,)

    def test_engine_maps_deadline_onto_the_round_timeline(self):
        trace = self.run_stub(warmup=True)
        events = {e.phase: e for e in trace.round_events(0)}
        (retry,) = trace.retries
        # the synchronized phase starts where warmup ends...
        assert events["work"].start == pytest.approx(_OffsetTrainer.WARMUP_S)
        # ...and ends deadline_s later: phase start + phase-relative
        # deadline, NOT the deadline read as a round offset
        assert events["work"].end == pytest.approx(
            _OffsetTrainer.WARMUP_S + retry.deadline_s
        )


class TestDriverIntegration:
    def make_driver(self, data, sync_policy, straggler=None, **overrides):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(
            batch_size=64, iterations=10, eval_every=5, seed=9, block_size=64,
            sync_policy=sync_policy, **overrides,
        )
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(1.0), cluster, config=config,
            straggler=straggler,
        )
        driver.load(data)
        return driver

    def test_timeout_suspects_permanent_straggler(self, tiny_binary):
        driver = self.make_driver(
            tiny_binary, "timeout", sync_alpha=1.2,
            straggler=PermanentStraggler(4, level=9.0, seed=3),
        )
        outcomes = []
        run_round = driver.run_round

        def recorded(t):
            outcomes.append(run_round(t))
            return outcomes[-1]

        driver.run_round = recorded  # the loop looks run_round up late
        result = driver.fit()
        trace = driver.cluster.engine_trace
        assert trace.retries  # the straggler blew the deadline
        assert len(outcomes) == 10
        assert not any(o.killed for o in outcomes)  # suspicion never kills
        assert result.final_loss() < result.losses()[0][2]

    def test_stale_survives_mid_run_kill(self, tiny_binary):
        """kill_worker() mid-run (footnote 6) leaves an uncovered group;
        with 'stale' the master substitutes the cached contribution
        instead of raising."""
        driver = self.make_driver(tiny_binary, "retry")
        for t in range(3):
            driver.run_round(t)
        driver.kill_worker(1)
        for t in range(3, 6):
            driver.run_round(t)
        trace = driver.cluster.engine_trace
        assert any(e.resolved == "stale" for e in trace.retries)

    def test_stale_round_checks_protocol(self, tiny_binary):
        """Stale rounds skip a group's statistics push; the per-round
        byte audit must still pass (suspected workers did send — their
        messages just arrived late)."""
        driver = self.make_driver(
            tiny_binary, "retry", check_protocol=True,
            straggler=PermanentStraggler(4, level=9.0, seed=3),
            sync_alpha=1.2,
        )
        driver.fit()  # ProtocolViolation would raise here

    def test_stale_group_with_nothing_cached_reduces_its_late_statistics(
        self, tiny_binary
    ):
        """Round 0 has no cached contribution to substitute.  The group
        is marked stale and the round ends at the deadline with three
        pushes accounted, yet the late worker's statistics are reduced:
        the other partitions step exactly as in a round without the
        straggler, and the stale one skips its update.  (Pinned as it
        is; ROADMAP asks which rule both backends should follow.)"""
        driver = self.make_driver(
            tiny_binary, "timeout", sync_alpha=1.2,
            straggler=PermanentStraggler(4, level=9.0, seed=3),
        )
        clean = self.make_driver(tiny_binary, "timeout", sync_alpha=1.2)
        start = [state.params.copy() for state in driver._partitions]
        outcome = driver.run_round(0)
        clean.run_round(0)

        (event,) = driver.cluster.engine_trace.retries
        assert (event.suspects, event.resolved) == ((3,), "stale")
        assert outcome.phase_seconds["compute_statistics"] == event.deadline_s
        assert outcome.worker_seconds["compute_statistics"][3] > event.deadline_s
        assert outcome.chosen == {0, 1, 2}
        assert outcome.expected[MessageKind.STATISTICS_PUSH][0] == 3
        for p in range(3):
            assert np.array_equal(driver._partitions[p].params, clean._partitions[p].params)
        assert np.array_equal(driver._partitions[3].params, start[3])
