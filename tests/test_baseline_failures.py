"""Fault-tolerance semantics of the RowSGD baselines (vs ColumnSGD's)."""

import numpy as np
import pytest

from repro.baselines import MLlibTrainer, RowSGDConfig
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import MasterFailedError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim import CLUSTER1, SimulatedCluster


def fault(iteration, kind, worker=None):
    return FaultSchedule([FaultEvent(iteration, kind, worker)])


def fit_mllib(data, failures=None, iterations=20):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    trainer = MLlibTrainer(
        LogisticRegression(), SGD(1.0), cluster,
        config=RowSGDConfig(batch_size=100, iterations=iterations, eval_every=5,
                            seed=12),
        failures=failures,
    )
    trainer.load(data)
    return trainer.fit()


class TestRowSGDFailures:
    def test_worker_failure_has_no_numeric_effect(self, small_binary):
        """The model lives at the master: a worker crash only costs a
        shard reload — the trajectory is bit-identical."""
        clean = fit_mllib(small_binary)
        failed = fit_mllib(small_binary, fault(8, FaultKind.WORKER, 2))
        assert np.array_equal(clean.final_params, failed.final_params)
        assert failed.total_sim_time > clean.total_sim_time

    def test_task_failure_costs_one_launch(self, small_binary):
        from repro.sim.cost import SPARK_TASK_OVERHEAD

        clean = fit_mllib(small_binary)
        failed = fit_mllib(small_binary, fault(8, FaultKind.TASK, 2))
        extra = failed.total_sim_time - clean.total_sim_time
        assert extra == pytest.approx(SPARK_TASK_OVERHEAD, abs=1e-9)

    def test_task_failure_lands_on_the_trace(self, small_binary):
        """A relaunched task is a recovery episode like ColumnSGD's:
        one ``restart`` RecoveryEvent charged one task launch."""
        from repro.engine import RecoveryEvent
        from repro.sim.cost import SPARK_TASK_OVERHEAD

        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        trainer = MLlibTrainer(
            LogisticRegression(), SGD(1.0), cluster,
            config=RowSGDConfig(batch_size=100, iterations=4, eval_every=0,
                                seed=12),
            failures=fault(2, FaultKind.TASK, 1),
        )
        trainer.fit(small_binary)
        assert cluster.engine_trace.recoveries == [
            RecoveryEvent(round=2, kind="task", mode="restart", worker=None,
                          reload_s=SPARK_TASK_OVERHEAD)
        ]

    def test_master_failure_loses_the_model(self, small_binary):
        injector = fault(5, FaultKind.MASTER)
        with pytest.raises(MasterFailedError, match="model is lost"):
            fit_mllib(small_binary, injector)

    def test_ft_asymmetry_vs_columnsgd(self, small_binary):
        """The structural difference: a worker crash perturbs ColumnSGD's
        trajectory (its model partition dies with the worker) but not
        MLlib's (centralised model)."""
        mllib_clean = fit_mllib(small_binary)
        mllib_failed = fit_mllib(small_binary, fault(8, FaultKind.WORKER, 2))
        assert np.array_equal(mllib_clean.final_params, mllib_failed.final_params)

        def fit_column(failures=None):
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            driver = ColumnSGDDriver(
                LogisticRegression(), SGD(1.0), cluster,
                config=ColumnSGDConfig(batch_size=100, iterations=20,
                                       eval_every=5, seed=12, block_size=256),
                failures=failures,
            )
            driver.load(small_binary)
            return driver.fit()

        column_clean = fit_column()
        column_failed = fit_column(fault(8, FaultKind.WORKER, 2))
        assert not np.array_equal(
            column_clean.final_params, column_failed.final_params
        )
