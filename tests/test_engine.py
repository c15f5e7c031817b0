"""The round engine: RoundSpec execution, sync policies, trace
emission, and the engine-trace Gantt rendering."""

from __future__ import annotations

import pytest

from repro.core.backup import BackupGroups
from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.engine import (
    BackupSync,
    BarrierSync,
    CommPhase,
    ComputePhase,
    EngineTrace,
    MasterPhase,
    PhaseEvent,
    RoundContext,
    RoundEngine,
    RoundSpec,
    StaleSync,
    TrafficEnvelope,
)
from repro.experiments.gantt import render_engine_trace
from repro.models.linear import LogisticRegression
from repro.net.message import MessageKind
from repro.optim.sgd import SGD


# ----------------------------------------------------------------------
# RoundSpec validation
# ----------------------------------------------------------------------
class TestRoundSpec:
    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            RoundSpec(system="x", phases=())

    def test_duplicate_phase_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate phase name"):
            RoundSpec(
                system="x",
                phases=(
                    ComputePhase("a", run="_a"),
                    MasterPhase("a", run="_b"),
                ),
            )

    def test_unknown_comm_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown comm pattern"):
            CommPhase(
                "p", kind=MessageKind.CONTROL, pattern="gossip", sizes="_s"
            )


# ----------------------------------------------------------------------
# engine execution on a stub trainer: scheduling, expectations
# ----------------------------------------------------------------------
class _StubTrainer:
    """A synchronized compute, a gather, a plain compute, a master step."""

    def __init__(self, cluster):
        self.cluster = cluster

    def round_spec(self) -> RoundSpec:
        return RoundSpec(
            system="stub",
            sync=BarrierSync(),
            phases=(
                ComputePhase("work", run="_phase_work", synchronized=True),
                CommPhase(
                    "push",
                    kind=MessageKind.STATISTICS_PUSH,
                    pattern="gather",
                    sizes="_push_sizes",
                ),
                ComputePhase("apply", run="_phase_apply"),
                MasterPhase("join", run="_phase_join"),
            ),
        )

    def _phase_work(self, ctx):
        return {w: 2.0 - w * 0.5 for w in range(self.cluster.n_workers)}

    def _phase_apply(self, ctx):
        return {w: 0.5 for w in range(self.cluster.n_workers)}

    def _phase_join(self, ctx):
        return 0.25

    def _push_sizes(self, ctx):
        return [100] * self.cluster.n_workers


class TestEngineScheduling:
    def test_round_is_the_sum_of_its_back_to_back_phases(self, cluster4):
        engine = RoundEngine(_StubTrainer(cluster4), cluster4)
        outcome = engine.run_round(0)
        assert outcome.phase_seconds["work"] == 2.0
        assert outcome.phase_seconds["apply"] == 0.5
        assert outcome.duration == sum(outcome.phase_seconds.values())
        events = engine.trace.round_events(0)
        assert [e.phase for e in events] == ["work", "push", "apply", "join"]
        assert events[0].start == 0.0
        for previous, event in zip(events, events[1:]):
            assert event.start == previous.end
        assert events[-1].end == outcome.duration

    def test_expected_traffic_derived_from_comm_phase(self, cluster4):
        trainer = _StubTrainer(cluster4)
        outcome = RoundEngine(trainer, cluster4).run_round(0)
        count, total = outcome.expected[MessageKind.STATISTICS_PUSH]
        assert count == cluster4.n_workers
        assert total == 100 * cluster4.n_workers

    def test_emitted_messages_match_expectation(self, cluster4):
        trainer = _StubTrainer(cluster4)
        RoundEngine(trainer, cluster4).run_round(0)
        assert (
            cluster4.network.bytes_of_kind(MessageKind.STATISTICS_PUSH)
            == 100 * cluster4.n_workers
        )


# ----------------------------------------------------------------------
# sync policies
# ----------------------------------------------------------------------
class TestSyncPolicies:
    def test_barrier_waits_for_slowest(self):
        ctx = RoundContext(0, None, None)
        policy = BarrierSync()
        assert policy.resolve(ctx, {0: 1.0, 1: 3.0, 2: 2.0}) == 3.0
        assert ctx.chosen == {0, 1, 2}

    def test_barrier_skips_failed_workers(self):
        ctx = RoundContext(0, None, None)
        policy = BarrierSync()
        assert policy.resolve(ctx, {0: 1.0, 1: float("inf")}) == 1.0
        assert ctx.chosen == {0}

    def test_backup_ends_at_recovery_and_kills_stragglers(self):
        ctx = RoundContext(0, None, None)
        policy = BackupSync(BackupGroups(4, backup=1))
        # groups (0,1) and (2,3); fastest per group: 1 (1.0) and 2 (2.0)
        duration = policy.resolve(ctx, {0: 9.0, 1: 1.0, 2: 2.0, 3: 8.0})
        assert duration == 2.0
        assert ctx.chosen == {1, 2}
        assert ctx.killed == {0, 3}

    def test_stale_sync_gates_on_stale_commit(self):
        policy = StaleSync(staleness=0, n_workers=2)
        ctx0 = RoundContext(0, None, None)
        policy.before_round(ctx0)
        assert ctx0.start_times == [0.0, 0.0]
        assert policy.resolve(ctx0, {0: 1.0, 1: 2.0}) == 2.0
        assert policy.round_duration(ctx0, 2.0) == 2.0
        assert policy.commits == [2.0]

        # staleness 0: round 1 may only start once round 0 committed
        ctx1 = RoundContext(1, None, None)
        policy.before_round(ctx1)
        assert ctx1.start_times == [2.0, 2.0]

    def test_stale_sync_pipeline_can_run_ahead(self):
        policy = StaleSync(staleness=2, n_workers=2)
        ctx0 = RoundContext(0, None, None)
        policy.before_round(ctx0)
        policy.resolve(ctx0, {0: 1.0, 1: 4.0})
        policy.round_duration(ctx0, 4.0)
        # with slack, round 1 starts from per-worker free times, not the
        # commit barrier
        ctx1 = RoundContext(1, None, None)
        policy.before_round(ctx1)
        assert ctx1.start_times == [1.0, 4.0]

    def test_stale_sync_duration_clamped_at_zero(self):
        policy = StaleSync(staleness=1, n_workers=1)
        ctx = RoundContext(0, None, None)
        policy.commits = [5.0]
        ctx.t = 1
        assert policy.round_duration(ctx, -1.0) == 0.0
        assert policy.commits == [5.0, 4.0]


# ----------------------------------------------------------------------
# traffic envelopes (satellite: SSP stays protocol-checked)
# ----------------------------------------------------------------------
class TestTrafficEnvelope:
    def test_exact_is_degenerate_envelope(self):
        env = TrafficEnvelope.exact(4, 1024)
        assert env.check(MessageKind.MODEL_PULL, 4, 1024) == []

    def test_out_of_range_count_and_bytes(self):
        env = TrafficEnvelope(2, 4, 100, 200)
        problems = env.check(MessageKind.GRADIENT_PUSH, 5, 50)
        assert len(problems) == 2
        assert any("message" in p for p in problems)
        assert any("byte" in p for p in problems)

    def test_in_range_passes(self):
        env = TrafficEnvelope(2, 4, 100, 200)
        assert env.check(MessageKind.GRADIENT_PUSH, 3, 150) == []

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            TrafficEnvelope(4, 2, 0, 0)
        with pytest.raises(ValueError):
            TrafficEnvelope(0, 0, 200, 100)


# ----------------------------------------------------------------------
# EngineTrace on a real trainer + gantt rendering + cluster reset
# ----------------------------------------------------------------------
def make_driver(cluster, data, **config_kwargs):
    config = ColumnSGDConfig(
        batch_size=64, iterations=2, eval_every=0, **config_kwargs
    )
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, config=config)
    driver.load(data)
    return driver


class TestEngineTrace:
    def test_fit_leaves_trace_on_cluster(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        driver.fit()
        trace = cluster4.engine_trace
        assert trace is not None and trace.system == "ColumnSGD"
        assert trace.rounds() == [0, 1]
        comm = [e for e in trace.round_events(0) if e.category == "comm"]
        assert {e.kind for e in comm} == {
            "statistics_push", "statistics_bcast"
        }

    def test_rounds_keep_first_appearance_order(self):
        trace = EngineTrace()
        for t in (2, 0, 2, 1, 0):
            trace.add(PhaseEvent(t, "work", "compute", 0.0, 1.0, 0.0, 1.0))
        assert trace.rounds() == [2, 0, 1]

    def test_phase_totals_cover_every_phase(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        driver.fit()
        totals = {}
        for event in cluster4.engine_trace.events:
            totals[event.phase] = totals.get(event.phase, 0.0) + event.duration
        assert set(totals) == {
            "compute_statistics", "gather", "reduce", "broadcast",
            "update_model",
        }
        assert all(seconds >= 0.0 for seconds in totals.values())

    def test_sim_offsets_are_absolute(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        driver.run_round(0)
        for event in cluster4.engine_trace.round_events(0):
            assert event.sim_end - event.sim_start == pytest.approx(
                event.duration
            )

    def test_reset_clears_engine_trace(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        driver.fit()
        assert cluster4.engine_trace is not None
        cluster4.reset()
        assert cluster4.engine_trace is None

    def test_render_engine_trace(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        driver.fit()
        art = render_engine_trace(cluster4.engine_trace, round_index=0)
        assert "round 0 (ColumnSGD" in art
        for phase in (
            "compute_statistics", "gather", "reduce", "broadcast", "update_model"
        ):
            assert phase in art
        assert "(statistics_push)" in art

    def test_render_empty_trace(self):
        assert "no engine trace" in render_engine_trace(None)

    def test_render_missing_round(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        driver.run_round(0)
        assert "not in trace" in render_engine_trace(
            cluster4.engine_trace, round_index=7
        )
