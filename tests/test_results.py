"""Unit tests for IterationRecord / TrainingResult."""

import numpy as np
import pytest

from repro.core.results import IterationRecord, TrainingResult


def make_result(durations, losses):
    result = TrainingResult(system="X", model="lr", dataset="d",
                            batch_size=10, n_workers=2)
    t = 0.0
    for i, (duration, loss) in enumerate(zip(durations, losses)):
        t += duration
        result.add(IterationRecord(i, t, duration, loss, bytes_sent=7))
    return result


class TestTrainingResult:
    def test_add_tracks_total_time(self):
        result = make_result([0.1, 0.2], [0.5, 0.4])
        assert result.total_sim_time == pytest.approx(0.3)
        assert result.n_iterations == 2

    def test_losses_skips_unevaluated(self):
        result = make_result([0.1, 0.1, 0.1], [0.5, None, 0.3])
        assert [loss for _, _, loss in result.losses()] == [0.5, 0.3]

    def test_final_loss(self):
        assert make_result([0.1], [0.9]).final_loss() == 0.9
        assert make_result([0.1], [None]).final_loss() is None

    def test_avg_iteration_skips_warmup(self):
        result = make_result([10.0, 0.1, 0.1], [None, None, None])
        assert result.avg_iteration_seconds() == pytest.approx(0.1)

    def test_avg_iteration_falls_back_when_too_short(self):
        result = make_result([0.4], [None])
        assert result.avg_iteration_seconds() == pytest.approx(0.4)

    def test_avg_iteration_empty(self):
        result = TrainingResult(system="X", model="lr", dataset="d",
                                batch_size=1, n_workers=1)
        assert result.avg_iteration_seconds() == 0.0

    def test_time_to_loss(self):
        result = make_result([1.0, 1.0, 1.0], [0.9, 0.5, 0.2])
        assert result.time_to_loss(0.6) == pytest.approx(2.0)
        assert result.time_to_loss(0.95) == pytest.approx(1.0)
        assert result.time_to_loss(0.1) is None

    def test_total_bytes(self):
        assert make_result([0.1, 0.1], [None, None]).total_bytes() == 14

    def test_describe_handles_missing_loss(self):
        result = make_result([0.1], [None])
        assert "n/a" in result.describe()

    def test_final_params_roundtrip(self):
        result = make_result([0.1], [0.5])
        result.final_params = np.arange(3.0)
        assert result.final_params.tolist() == [0.0, 1.0, 2.0]
