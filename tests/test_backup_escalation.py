"""StatisticsRecoveryError escalation through the engine's BackupSync.

Satellite of the chaos PR: the paper's footnote 6 ("just kill this
worker") has a sharp edge — once a whole backup group is dead, the
missing statistics are unrecoverable and the engine must escalate
rather than silently proceed.
"""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import StatisticsRecoveryError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim import CLUSTER1, SimulatedCluster
from tests.golden.record_time_axis import PermanentStraggler


def make_driver(data, backup=0, failures=None, straggler=None, iterations=10):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = ColumnSGDConfig(
        batch_size=64, iterations=iterations, eval_every=0, seed=9,
        block_size=64, backup=backup,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(1.0), cluster, config=config,
        failures=failures, straggler=straggler,
    )
    driver.load(data)
    return driver


class TestAllDeadGroup:
    def test_singleton_group_dead_raises(self, tiny_binary):
        driver = make_driver(tiny_binary)
        driver.run_round(0)
        driver.kill_worker(2)
        with pytest.raises(StatisticsRecoveryError) as err:
            driver.run_round(1)
        assert err.value.missing_groups == (2,)

    def test_whole_backup_group_dead_raises(self, tiny_binary):
        """With S=1 one death per group is survivable — both is not."""
        driver = make_driver(tiny_binary, backup=1)
        driver.run_round(0)
        driver.kill_worker(0)
        driver.run_round(1)  # replica covers
        driver.kill_worker(1)
        with pytest.raises(StatisticsRecoveryError):
            driver.run_round(2)

    def test_error_names_every_dead_group(self, tiny_binary):
        driver = make_driver(tiny_binary)
        driver.kill_worker(1)
        driver.kill_worker(3)
        with pytest.raises(StatisticsRecoveryError) as err:
            driver.run_round(0)
        assert err.value.missing_groups == (1, 3)


class TestKilledStragglersMidRun:
    def test_permanent_stragglers_killed_then_escalate(self, tiny_binary):
        """Backup recovery kills the permanent straggler every round
        (footnote 6 is per-round: the worker stays alive); permanently
        killing the whole group mid-run escalates."""
        straggler = PermanentStraggler(4, level=9.0, seed=3)
        (victim,) = straggler.victims(0)
        driver = make_driver(tiny_binary, backup=1, straggler=straggler)
        assert victim in driver.run_round(0).killed
        # replica keeps the group covered each round
        assert victim in driver.run_round(1).killed
        for w in driver.groups.groups()[driver.groups.group_of(victim)]:
            driver.kill_worker(w)
        with pytest.raises(StatisticsRecoveryError):
            driver.run_round(2)


class TestRecoveryAfterCrash:
    def test_injected_crash_recovers_next_iteration(self, tiny_binary):
        """A scheduled WORKER crash is recovered at the start of its
        iteration (zero-init), so no round ever raises."""
        driver = make_driver(
            tiny_binary, failures=FaultSchedule([FaultEvent(4, FaultKind.WORKER, 2)])
        )
        result = driver.fit()
        assert result.n_iterations >= 10
        assert np.isfinite(driver.evaluate_loss())
        events = driver.cluster.engine_trace.recoveries
        assert [e.worker for e in events] == [2]
        assert events[0].mode == "zero-init"

    def test_crash_with_backup_is_numerically_free(self, tiny_binary):
        clean = make_driver(tiny_binary, backup=1).fit()
        crashed = make_driver(
            tiny_binary, backup=1,
            failures=FaultSchedule([FaultEvent(4, FaultKind.WORKER, 2)]),
        ).fit()
        assert np.allclose(clean.final_params, crashed.final_params, atol=1e-9)
