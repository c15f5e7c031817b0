"""Tests for the driver's early-stopping plateau detection."""

import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster


def run(data, patience, iterations=200, lr=1.0):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = ColumnSGDConfig(
        batch_size=100, iterations=iterations, eval_every=5, seed=4,
        block_size=256, early_stop_patience=patience,
    )
    driver = ColumnSGDDriver(LogisticRegression(), SGD(lr), cluster, config)
    driver.load(data)
    return driver.fit()


class TestEarlyStopping:
    def test_plateaued_run_stops_early(self, small_binary):
        """A tiny learning rate plateaus immediately; the run must stop
        long before the iteration budget."""
        result = run(small_binary, patience=3, iterations=200, lr=1e-9)
        assert result.n_iterations < 100
        assert "early stop" in result.notes

    def test_progressing_run_does_not_stop(self, small_binary):
        result = run(small_binary, patience=3, iterations=60, lr=1.0)
        assert result.n_iterations >= 60
        assert result.notes == ""

    def test_disabled_by_default(self, small_binary):
        result = run(small_binary, patience=0, iterations=30, lr=1e-9)
        assert result.n_iterations >= 30

    def test_patience_delays_stopping(self, small_binary):
        impatient = run(small_binary, patience=2, iterations=200, lr=1e-9)
        patient = run(small_binary, patience=8, iterations=200, lr=1e-9)
        assert impatient.n_iterations < patient.n_iterations

    def test_requires_eval_every(self):
        with pytest.raises(ValueError, match="eval_every"):
            ColumnSGDConfig(early_stop_patience=3, eval_every=0)

    def test_stopped_result_is_complete(self, small_binary):
        result = run(small_binary, patience=3, iterations=200, lr=1e-9)
        assert result.final_params is not None
        assert result.final_loss() is not None
