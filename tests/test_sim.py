"""Unit tests for the cluster simulator: clock, cost, stragglers, failures,
cluster specs and memory ledger."""

import pytest

from repro.errors import ConfigurationError, OutOfMemoryError
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim import (
    CLUSTER1,
    CLUSTER2,
    ClusterSpec,
    ComputeCostModel,
    SimClock,
    StragglerModel,
)
from tests.golden.record_time_axis import PermanentStraggler


class TestClock:
    def test_advances(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_reset(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.reset()
        assert clock.now() == 0.0


class TestCostModel:
    def test_sparse_work_linear(self):
        cost = ComputeCostModel()
        assert cost.sparse_work(1000) == pytest.approx(4e-6)
        assert cost.sparse_work(1000, passes=3) == pytest.approx(12e-6)

    def test_dense_work(self):
        assert ComputeCostModel().dense_work(500) == pytest.approx(0.5e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ComputeCostModel().sparse_work(-5)
        with pytest.raises(ValueError):
            ComputeCostModel().dense_work(-1)


class TestStraggler:
    def test_none_mode(self):
        model = StragglerModel.none(4)
        assert model.victims(0) == frozenset()
        assert all(v == 1.0 for v in model.slowdowns(0).values())

    def test_random_mode_picks_one(self):
        model = StragglerModel(8, level=5.0, seed=1)
        for t in range(10):
            victims = model.victims(t)
            assert len(victims) == 1
            assert all(0 <= w < 8 for w in victims)

    def test_random_victims_vary(self):
        model = StragglerModel(8, level=1.0, seed=2)
        seen = {next(iter(model.victims(t))) for t in range(50)}
        assert len(seen) > 3

    def test_slowdown_factor(self):
        model = StragglerModel(4, level=5.0, seed=3)
        slow = model.slowdowns(0)
        victim = next(iter(model.victims(0)))  # fresh draw differs; check values
        assert sorted(slow.values()) == [1.0, 1.0, 1.0, 6.0]
        assert victim in range(4)

    def test_permanent_mode_fixed(self):
        """The footnote-6 straggler the time-axis golden and the backup
        tests run under: one victim, the same every round."""
        model = PermanentStraggler(6, level=2.0, seed=4)
        assert model.victims(0) == model.victims(99)
        assert len(model.victims(0)) == 1
        assert sorted(model.slowdowns(99).values()) == [1.0] * 5 + [3.0]

    def test_bad_mode(self):
        for mode in ("sometimes", "permanent"):
            with pytest.raises(ValueError):
                StragglerModel(4, mode=mode)

    def test_victims_memoized_per_iteration(self):
        """Regression: repeated victims(t) calls must agree — the random
        mode used to redraw on every call, so two consumers of the same
        iteration (slowdowns, the engine, a gantt) could disagree."""
        model = StragglerModel(8, level=5.0, seed=6)
        for t in range(20):
            assert model.victims(t) == model.victims(t)

    def test_slowdowns_consistent_with_victims(self):
        model = StragglerModel(8, level=5.0, seed=7)
        for t in range(10):
            victims = model.victims(t)
            slow = model.slowdowns(t)
            assert {w for w, s in slow.items() if s > 1.0} == set(victims)


class TestFailures:
    def test_none(self):
        schedule = FaultSchedule()
        assert schedule.events == ()
        assert schedule.events_at(0) == ()

    def test_task_failure_factory(self):
        schedule = FaultSchedule([FaultEvent(5, FaultKind.TASK, 2)])
        events = schedule.events_at(5)
        assert len(events) == 1
        assert events[0].kind == FaultKind.TASK
        assert events[0].worker == 2

    def test_worker_failure_factory(self):
        schedule = FaultSchedule([FaultEvent(3, FaultKind.WORKER, 0)])
        assert schedule.events_at(3)[0].kind == FaultKind.WORKER

    def test_multiple_events_same_iteration(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1, FaultKind.TASK, 0),
                FaultEvent(1, FaultKind.WORKER, 1),
            ]
        )
        assert len(schedule.events_at(1)) == 2

    def test_event_requires_worker_id(self):
        with pytest.raises(ValueError):
            FaultEvent(0, FaultKind.WORKER)
        FaultEvent(0, FaultKind.MASTER)  # fine without worker

    def test_event_rejects_negative_worker(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(0, FaultKind.WORKER, worker=-1)

    def test_default_constructor_is_empty(self):
        schedule = FaultSchedule()
        schedule.validate(4, "sim")
        assert all(schedule.events_at(t) == () for t in range(50))

    def test_schedule_is_defensively_copied(self):
        events = [FaultEvent(1, FaultKind.TASK, 0)]
        schedule = FaultSchedule(events)
        events.append(FaultEvent(2, FaultKind.TASK, 0))
        assert len(schedule.events) == 1
        assert isinstance(schedule.events, tuple)

    def test_rejects_non_event_entries(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([(1, "worker")])

    def test_validate_checks_worker_range(self):
        schedule = FaultSchedule([FaultEvent(3, FaultKind.WORKER, 7)])
        schedule.validate(8, "sim")  # in range
        with pytest.raises(ConfigurationError):
            schedule.validate(4, "sim")

    def test_master_failure_factory(self):
        event = FaultSchedule([FaultEvent(5, FaultKind.MASTER)]).events_at(5)[0]
        assert event.kind == FaultKind.MASTER
        assert event.worker is None


class TestChaosSchedule:
    """The seeded Poisson background of a FaultSchedule, on the sim."""

    def test_background_requires_validate(self):
        # a background cannot draw victims before validate() bound it
        chaos = FaultSchedule(mtbf_rounds=1.0, seed=1)
        with pytest.raises(ConfigurationError):
            chaos.events_at(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(mtbf_rounds=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule(mtbf_rounds=1.0, kinds=())
        with pytest.raises(ConfigurationError):
            FaultSchedule(mtbf_rounds=1.0, kinds=("worker",))

    def _drive(self, seed, mtbf_rounds=2.5):
        chaos = FaultSchedule(mtbf_rounds=mtbf_rounds, seed=seed)
        chaos.validate(4, "sim")
        return [
            (t, e.kind, e.worker) for t in range(20) for e in chaos.events_at(t)
        ]

    def test_deterministic_given_seed(self):
        assert self._drive(seed=3) == self._drive(seed=3)

    def test_seeds_differ(self):
        assert self._drive(seed=3) != self._drive(seed=4)

    def test_poisson_rate_roughly_matches_mtbf(self):
        # 20 rounds at MTBF 2.5 -> ~8 arrivals
        events = self._drive(seed=5)
        assert 2 <= len(events) <= 20
        assert {kind for _, kind, _ in events} <= {FaultKind.TASK, FaultKind.WORKER}

    def test_overlays_base_schedule(self):
        chaos = FaultSchedule(
            [FaultEvent(2, FaultKind.TASK, 1)], mtbf_rounds=100.0, seed=1
        )
        chaos.validate(4, "sim")
        assert any(e.kind == FaultKind.TASK for e in chaos.events_at(2))

    def test_pure_function_of_arguments(self):
        # any query order, any number of times, names the same strikes
        chaos = FaultSchedule(mtbf_rounds=1.0, seed=2)
        chaos.validate(4, "sim")
        forward = [chaos.events_at(t) for t in range(30)]
        assert any(forward)
        assert [chaos.events_at(t) for t in reversed(range(30))] == forward[::-1]
        fresh = FaultSchedule(mtbf_rounds=1.0, seed=2)
        fresh.validate(4, "sim")
        assert fresh.events_at(29) == forward[29]


class TestClusterSpec:
    def test_paper_clusters(self):
        assert CLUSTER1.n_workers == 8
        assert CLUSTER1.memory_bytes_per_node == 32e9
        assert CLUSTER2.n_workers == 40
        assert CLUSTER2.bandwidth_bytes_per_s == pytest.approx(10e9 / 8)

    def test_with_workers(self):
        spec = CLUSTER1.with_workers(3)
        assert spec.n_workers == 3
        assert spec.memory_bytes_per_node == CLUSTER1.memory_bytes_per_node

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec("x", 0, 1, 1e9, 1e9)


class TestSimulatedCluster:
    def test_memory_ledger(self, cluster4):
        cluster4.charge_memory(0, 1e9)
        cluster4.charge_memory(0, 2e9)
        assert cluster4.memory_in_use(0) == pytest.approx(3e9)

    def test_oom_raises(self, cluster4):
        with pytest.raises(OutOfMemoryError) as err:
            cluster4.charge_memory(1, 33e9, "model")
        assert "worker 1" in str(err.value)

    def test_master_ledger(self, cluster4):
        cluster4.charge_memory(cluster4.MASTER, 1e9)
        assert cluster4.memory_in_use(cluster4.MASTER) == pytest.approx(1e9)

    def test_unknown_node(self, cluster4):
        with pytest.raises(ValueError):
            cluster4.charge_memory(99, 1)

    def test_reset(self, cluster4):
        cluster4.clock.advance(5)
        cluster4.charge_memory(0, 100)
        cluster4.reset()
        assert cluster4.clock.now() == 0.0
        assert cluster4.memory_in_use(0) == 0.0
