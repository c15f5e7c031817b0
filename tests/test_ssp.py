"""Tests for the bounded-staleness (SSP) parameter server."""

import numpy as np
import pytest

from repro.baselines import (
    ParameterServerTrainer,
    RowSGDConfig,
    StaleSyncPSTrainer,
    make_trainer,
)
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster, StragglerModel


def build(trainer_cls, data=None, iterations=20, config=None, **kwargs):
    config = config or RowSGDConfig(
        batch_size=64, iterations=iterations, eval_every=10, seed=3
    )
    trainer = trainer_cls(
        LogisticRegression(), SGD(0.5),
        SimulatedCluster(CLUSTER1.with_workers(4)), config=config, **kwargs,
    )
    if data is not None:
        trainer.load(data)
    return trainer


def fit(trainer_cls, data, **kwargs):
    return build(trainer_cls, data, **kwargs).fit()


class TestSSP:
    def test_zero_staleness_equals_bsp_exactly(self, small_binary):
        bsp = fit(ParameterServerTrainer, small_binary)
        ssp = fit(StaleSyncPSTrainer, small_binary, staleness=0)
        assert np.allclose(bsp.final_params, ssp.final_params, atol=1e-12)

    def test_zero_staleness_equal_time(self, small_binary):
        bsp = fit(ParameterServerTrainer, small_binary)
        ssp = fit(StaleSyncPSTrainer, small_binary, staleness=0)
        assert ssp.total_sim_time == pytest.approx(bsp.total_sim_time, rel=0.05)

    def test_staleness_absorbs_transient_stragglers(self, small_binary):
        def straggler():
            return StragglerModel(4, level=5.0, seed=7)

        bsp = fit(ParameterServerTrainer, small_binary, straggler=straggler(),
                  iterations=30)
        ssp = fit(StaleSyncPSTrainer, small_binary, straggler=straggler(),
                  staleness=3, iterations=30)
        assert ssp.avg_iteration_seconds() < 0.7 * bsp.avg_iteration_seconds()

    def test_stale_run_still_converges(self, small_binary):
        ssp = fit(
            StaleSyncPSTrainer, small_binary,
            straggler=StragglerModel(4, level=5.0, seed=7),
            staleness=3, iterations=50,
        )
        losses = [l for _, _, l in ssp.losses()]
        assert losses[-1] < 0.9 * losses[0]

    def test_stale_trajectory_differs_under_stragglers(self, small_binary):
        def straggler():
            return StragglerModel(4, level=5.0, seed=7)

        bsp = fit(ParameterServerTrainer, small_binary, straggler=straggler())
        ssp = fit(StaleSyncPSTrainer, small_binary, straggler=straggler(),
                  staleness=3)
        # gradients computed on stale versions -> different (but close) model
        assert not np.array_equal(bsp.final_params, ssp.final_params)
        assert np.allclose(bsp.final_params, ssp.final_params, atol=0.1)

    def test_pipeline_staleness_without_stragglers(self, small_binary):
        """With s >= 1 and uniform workers, the pipeline settles into a
        steady one-version lag: the trajectory deviates slightly from
        BSP but stays close and converges — classic SSP behaviour."""
        bsp = fit(ParameterServerTrainer, small_binary, iterations=40)
        ssp = fit(StaleSyncPSTrainer, small_binary, staleness=5, iterations=40)
        assert not np.array_equal(bsp.final_params, ssp.final_params)
        assert np.allclose(bsp.final_params, ssp.final_params, atol=0.05)
        losses = [l for _, _, l in ssp.losses()]
        assert losses[-1] < 0.9 * losses[0]

    def test_system_name(self, small_binary):
        ssp = fit(StaleSyncPSTrainer, small_binary, staleness=2, iterations=2)
        assert ssp.system == "Petuum-SSP2"

    def test_registry(self, small_binary):
        """The registry builds SSP at its default staleness; a staleness
        is a constructor argument, and the registry refuses it loudly."""
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        trainer = make_trainer(
            "petuum-ssp", LogisticRegression(), SGD(0.5), cluster,
            batch_size=32, iterations=3, eval_every=0,
        )
        trainer.load(small_binary)
        result = trainer.fit()
        assert result.n_iterations >= 3
        assert result.system == "Petuum-SSP0"
        with pytest.raises(ConfigurationError, match="staleness"):
            make_trainer("petuum-ssp", LogisticRegression(), SGD(0.5),
                         cluster, staleness=2)

    def test_validation(self, small_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ValueError):
            StaleSyncPSTrainer(LogisticRegression(), SGD(0.5), cluster,
                               staleness=-1)


class TestNoPrivateLoop:
    """SSP used to carry its own ``fit``; each case is a way that copy
    had drifted from ``ParameterServerTrainer``'s."""

    def test_local_backend_is_the_same_error_as_petuum(self, small_binary):
        config = RowSGDConfig(batch_size=64, iterations=2, backend="local")
        messages = []
        for cls, extra in (
            (ParameterServerTrainer, {}), (StaleSyncPSTrainer, {"staleness": 1}),
        ):
            trainer = build(cls, small_binary, config=config, **extra)
            with pytest.raises(ConfigurationError, match="simulator-only") as err:
                trainer.fit()  # used to train on the simulator, silently
            messages.append(str(err.value).replace(cls.__name__, "<cls>"))
            assert trainer.cluster.engine_trace is None  # no round ran
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda: FaultSchedule([FaultEvent(1, FaultKind.MASTER)]),
            lambda: FaultSchedule([FaultEvent(1, FaultKind.WORKER, 2)]),
            lambda: FaultSchedule(mtbf_rounds=3.0, seed=1),
        ],
        ids=["master", "worker", "background"],
    )
    def test_fault_schedule_is_rejected_at_construction(self, schedule):
        """It was validated and then never consulted: a MASTER fault
        that aborts Petuum left SSP's run and clock untouched."""
        with pytest.raises(ConfigurationError, match="fault schedule"):
            build(StaleSyncPSTrainer, failures=schedule(), staleness=1)
        build(StaleSyncPSTrainer, failures=FaultSchedule(), staleness=1)

    def test_zero_iterations_rejected(self, small_binary):
        with pytest.raises(ValueError, match="iterations"):
            build(StaleSyncPSTrainer, small_binary, staleness=1).fit(iterations=0)

    def test_run_round_works_after_load(self, small_binary):
        """The version history is seeded with the engine, not by fit()."""
        direct = build(StaleSyncPSTrainer, small_binary, iterations=4, staleness=2)
        durations = [direct.run_round(t).duration for t in range(4)]
        fitted = build(StaleSyncPSTrainer, small_binary, iterations=4, staleness=2)
        result = fitted.fit()
        assert durations == [r.duration for r in result.records if r.iteration >= 0]
        assert np.array_equal(direct.current_params(), result.final_params)
