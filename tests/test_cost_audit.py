"""Runtime cost audit (check_cost): drift detection, the ten-trainer
static-vs-dynamic agreement soak, and bit-identity of counted runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.engine import CostAuditor, CostReport
from repro.errors import CostDriftError
from repro.linalg import OP_COUNTERS, SparseVector
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim.cost import WORK_LEDGER
from tests.conftest import TRAINER_NAMES, trainer_builders


@pytest.fixture(autouse=True)
def _quiesce_counters():
    yield
    OP_COUNTERS.reset()
    OP_COUNTERS.disable()
    WORK_LEDGER.reset()
    WORK_LEDGER.disable()


# ----------------------------------------------------------------------
# unit behavior
# ----------------------------------------------------------------------
def test_uncharged_kernel_work_raises():
    auditor = CostAuditor(factor=1.0, slack=0.0)
    auditor.begin_round()
    v = SparseVector(np.arange(10), np.ones(10), dim=100)
    v.dot(np.ones(100))  # measured work, nothing charged
    with pytest.raises(CostDriftError) as excinfo:
        auditor.finish_round(3)
    assert "iteration 3" in str(excinfo.value)
    assert "exceeds" in str(excinfo.value)


def test_charged_work_within_budget_passes():
    auditor = CostAuditor(factor=16.0, slack=0.0)
    auditor.begin_round()
    v = SparseVector(np.arange(10), np.ones(10), dim=100)
    v.dot(np.ones(100))
    WORK_LEDGER.record_sparse(v.nnz)
    auditor.finish_round(0)
    (report,) = auditor.reports
    assert report.measured > 0
    assert report.charged == 10
    assert report.measured <= 16.0 * report.charged


def test_report_properties():
    report = CostReport(
        round=1, flops=100, alloc_elements=20, densify_events=0,
        peak_alloc_elements=20, sparse_units=50.0, dense_units=25.0,
    )
    assert report.measured == 120.0
    assert report.charged == 75.0


def test_finish_round_disables_counting():
    auditor = CostAuditor(factor=1e9, slack=1e9)
    auditor.begin_round()
    auditor.finish_round(0)
    before = OP_COUNTERS.snapshot()["flops"]
    SparseVector(np.array([1]), np.array([1.0]), dim=4).norm_sq()
    assert OP_COUNTERS.snapshot()["flops"] == before


# ----------------------------------------------------------------------
# static-vs-dynamic agreement: every trainer runs under the audit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_all_trainers_pass_cost_audit(name, cluster4, tiny_binary):
    """The default FACTOR/SLACK budget holds for every trainer — the
    dynamic counterpart of the tree being R015/R016-clean."""
    trainer = trainer_builders(cluster4, tiny_binary)[name]()
    trainer.check_cost = True  # read when the trainer makes its engine
    for t in range(3):
        trainer.run_round(t)  # raises CostDriftError on drift
    audit = trainer._engine.cost_audit
    assert len(audit.reports) == 3
    for report in audit.reports:
        # R015-clean statically == no densification dynamically
        assert report.densify_events == 0
        assert report.measured <= audit.factor * report.charged + audit.slack


def test_driver_fit_with_check_cost(tiny_binary, cluster4):
    config = ColumnSGDConfig(batch_size=64, iterations=3, check_cost=True)
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster4, config=config)
    driver.load(tiny_binary)
    result = driver.fit()
    assert result.final_params is not None


# ----------------------------------------------------------------------
# counting must not perturb the numerics
# ----------------------------------------------------------------------
def test_trajectory_bit_identical_with_audit_on(tiny_binary):
    from repro.sim import CLUSTER1, SimulatedCluster

    def run(check_cost):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(
            batch_size=64, iterations=4, check_cost=check_cost
        )
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(0.1), cluster, config=config
        )
        driver.load(tiny_binary)
        return driver.fit().final_params

    baseline = run(False)
    audited = run(True)
    assert np.array_equal(baseline, audited)
