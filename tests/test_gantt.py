"""Tests for the iteration Gantt renderer."""

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.experiments import render_iteration_gantt
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster, StragglerModel


def run_one_iteration(data, backup=0, straggler=None):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(0.5), cluster,
        config=ColumnSGDConfig(batch_size=64, iterations=1, eval_every=0,
                               block_size=64, backup=backup),
        straggler=straggler,
    )
    driver.load(data)
    return driver, driver.run_round(0)


class TestGantt:
    def test_one_lane_per_worker(self, tiny_binary):
        _, outcome = run_one_iteration(tiny_binary)
        chart = render_iteration_gantt(
            outcome.worker_seconds, outcome.phase_seconds
        )
        assert chart.count("worker") == 4
        assert "legend" in chart

    def test_straggler_lane_is_longest(self, tiny_binary):
        straggler = StragglerModel(4, level=5.0, seed=3)
        _, outcome = run_one_iteration(tiny_binary, straggler=straggler)
        chart = render_iteration_gantt(
            outcome.worker_seconds, outcome.phase_seconds, width=60
        )
        lanes = [l for l in chart.splitlines() if l.startswith("worker")]
        lengths = [l.count("#") for l in lanes]
        assert max(lengths) > 3 * sorted(lengths)[1]

    def test_killed_straggler_annotated(self, tiny_binary):
        straggler = StragglerModel(4, level=5.0, seed=3)
        _, outcome = run_one_iteration(tiny_binary, backup=1, straggler=straggler)
        chart = render_iteration_gantt(
            outcome.worker_seconds, outcome.phase_seconds,
            outcome.killed,
        )
        assert "killed after recovery" in chart

    def test_failed_worker_lane(self):
        chart = render_iteration_gantt(
            {"compute_statistics": {0: 0.01, 1: float("inf")},
             "update_model": {0: 0.01}},
            {"compute_statistics": 0.01, "gather": 0.001, "reduce": 0.0,
             "broadcast": 0.001, "update_model": 0.01},
        )
        assert "(failed)" in chart

    def test_no_live_workers(self):
        chart = render_iteration_gantt(
            {"compute_statistics": {0: float("inf")}, "update_model": {}}, {}
        )
        assert chart == "(no live workers)"

    def test_fits_width(self, tiny_binary):
        _, outcome = run_one_iteration(tiny_binary)
        chart = render_iteration_gantt(
            outcome.worker_seconds, outcome.phase_seconds, width=40
        )
        for line in chart.splitlines():
            if line.startswith("worker") and "killed" not in line:
                assert len(line) <= 40 + 15  # lane + prefix


class TestEngineTraceOverlap:
    """Phases run back to back, and replays produce an identical event
    order."""

    def test_sequential_spec_has_no_overlapping_bars(self, tiny_binary):
        driver, _ = run_one_iteration(tiny_binary)
        events = driver.cluster.engine_trace.round_events(0)
        for earlier, later in zip(events, events[1:]):
            assert later.start >= earlier.end

    def test_phase_event_order_is_identical_across_replays(self, tiny_binary):
        def replay():
            driver, _ = run_one_iteration(tiny_binary)
            return [
                (e.phase, e.start, e.end)
                for e in driver.cluster.engine_trace.round_events(0)
            ]

        first, second = replay(), replay()
        assert first == second
