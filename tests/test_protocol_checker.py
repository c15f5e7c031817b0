"""Runtime BSP protocol checking: ProtocolChecker + Message validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mllib import MLlibTrainer
from repro.baselines.mllib_star import MLlibStarTrainer
from repro.baselines.parameter_server import ParameterServerTrainer
from repro.baselines.sparse_ps import SparsePSTrainer
from repro.baselines.ssp import StaleSyncPSTrainer
from repro.baselines.base import RowSGDConfig
from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.core.localexec import ColumnMasterProgram
from repro.datasets import make_classification
from repro.errors import ProtocolViolationError
from repro.models.linear import LogisticRegression
from repro.net.message import Message, MessageKind
from repro.net.protocol import ProtocolChecker
from repro.optim.sgd import SGD
from repro.sim.cluster import CLUSTER1, SimulatedCluster


def make_driver(cluster, data, **config_kwargs):
    config = ColumnSGDConfig(
        batch_size=64, iterations=6, eval_every=3, check_protocol=True,
        **config_kwargs,
    )
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, config=config)
    driver.load(data)
    return driver


# ----------------------------------------------------------------------
# Message validation (guards the checker's byte accounting)
# ----------------------------------------------------------------------
class TestMessageValidation:
    def test_self_send_rejected(self):
        with pytest.raises(ValueError, match="self-send"):
            Message(MessageKind.CONTROL, 2, 2, 10)

    def test_master_self_send_rejected(self):
        with pytest.raises(ValueError, match="self-send"):
            Message(MessageKind.CONTROL, Message.MASTER, Message.MASTER, 10)

    def test_float_size_rejected(self):
        with pytest.raises(TypeError, match="integer byte count"):
            Message(MessageKind.CONTROL, 0, 1, 10.5)

    def test_bool_size_rejected(self):
        with pytest.raises(TypeError, match="integer byte count"):
            Message(MessageKind.CONTROL, 0, 1, True)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Message(MessageKind.CONTROL, 0, 1, -5)

    def test_numpy_integer_size_accepted(self):
        message = Message(MessageKind.CONTROL, 0, 1, np.int64(128))
        assert message.size_bytes == 128


# ----------------------------------------------------------------------
# checked end-to-end runs: driver + baselines under check_protocol=True
# ----------------------------------------------------------------------
class TestCheckedRuns:
    def test_driver_run_passes_checks(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary)
        result = driver.fit()
        assert len(result.records) > 0
        assert cluster4.network.bytes_of_kind(MessageKind.STATISTICS_PUSH) > 0

    def test_driver_with_backup_passes_checks(self, cluster4, tiny_binary):
        driver = make_driver(cluster4, tiny_binary, backup=1)
        result = driver.fit()
        assert len(result.records) > 0

    def test_driver_checked_trajectory_unchanged(self, cluster4, tiny_binary):
        checked = make_driver(cluster4, tiny_binary).fit()
        plain_cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(batch_size=64, iterations=6, eval_every=3)
        plain = ColumnSGDDriver(
            LogisticRegression(), SGD(0.1), plain_cluster, config=config
        )
        plain.load(tiny_binary)
        result = plain.fit()
        np.testing.assert_allclose(checked.final_params, result.final_params)

    @pytest.mark.parametrize(
        "trainer_cls",
        [ParameterServerTrainer, MLlibStarTrainer, MLlibTrainer, SparsePSTrainer],
    )
    def test_baseline_run_passes_checks(self, cluster4, tiny_binary, trainer_cls):
        config = RowSGDConfig(
            batch_size=64, iterations=6, eval_every=3, check_protocol=True
        )
        trainer = trainer_cls(LogisticRegression(), SGD(0.1), cluster4, config=config)
        trainer.load(tiny_binary)
        result = trainer.fit()
        assert len(result.records) > 0

    @pytest.mark.parametrize("workers, features", [(3, 11), (5, 13), (7, 10)])
    def test_mllib_star_uneven_ring_split_passes_checks(self, workers, features):
        """K does not divide the model's byte size (64 + 8m): the ring
        accounts the exact split, and so must the expectation."""
        cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
        config = RowSGDConfig(
            batch_size=32, iterations=2, eval_every=2, check_protocol=True
        )
        trainer = MLlibStarTrainer(LogisticRegression(), SGD(0.1), cluster, config=config)
        trainer.load(make_classification(120, features, nnz_per_row=3, seed=1))
        assert len(trainer.fit().records) > 0

    def test_ssp_checked_run_passes(self, cluster4, tiny_binary):
        """SSP's sparse pushes vary per round, so it declares bounded
        TrafficEnvelopes instead of exact counts — and stays checked."""
        config = RowSGDConfig(
            batch_size=64, iterations=6, eval_every=3, check_protocol=True
        )
        trainer = StaleSyncPSTrainer(
            LogisticRegression(), SGD(0.1), cluster4, config=config, staleness=2
        )
        trainer.load(tiny_binary)
        result = trainer.fit()
        assert len(result.records) > 0
        assert cluster4.network.bytes_of_kind(MessageKind.GRADIENT_PUSH) > 0

    def test_ssp_checked_trajectory_unchanged(self, cluster4, tiny_binary):
        config = RowSGDConfig(
            batch_size=64, iterations=6, eval_every=3, check_protocol=True
        )
        checked = StaleSyncPSTrainer(
            LogisticRegression(), SGD(0.1), cluster4, config=config, staleness=2
        )
        checked.load(tiny_binary)
        checked_result = checked.fit()

        plain_cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        plain_config = RowSGDConfig(batch_size=64, iterations=6, eval_every=3)
        plain = StaleSyncPSTrainer(
            LogisticRegression(), SGD(0.1), plain_cluster,
            config=plain_config, staleness=2,
        )
        plain.load(tiny_binary)
        plain_result = plain.fit()
        np.testing.assert_allclose(
            checked_result.final_params, plain_result.final_params
        )


# ----------------------------------------------------------------------
# violations: the checker must actually catch broken protocols
# ----------------------------------------------------------------------
class TestViolations:
    def test_message_outside_round_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        cluster4.network.send(Message(MessageKind.CONTROL, 0, 1, 8))
        with pytest.raises(ProtocolViolationError, match="crossed the barrier"):
            checker.begin_round(0)

    def test_double_begin_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        with pytest.raises(ProtocolViolationError, match="still open"):
            checker.begin_round(1)

    def test_end_without_begin_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        with pytest.raises(ProtocolViolationError, match="without a matching"):
            checker.end_round(0)

    def test_unanswered_push_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        cluster4.network.send(
            Message(MessageKind.STATISTICS_PUSH, 0, Message.MASTER, 100)
        )
        with pytest.raises(ProtocolViolationError, match="never answered"):
            checker.end_round(0)

    def test_paired_push_bcast_passes(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        cluster4.network.send(
            Message(MessageKind.STATISTICS_PUSH, 0, Message.MASTER, 100)
        )
        cluster4.network.send(
            Message(MessageKind.STATISTICS_BCAST, Message.MASTER, 0, 100)
        )
        checker.end_round(0)
        assert checker.rounds_checked == 1

    def test_undeclared_kind_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        cluster4.network.send(Message(MessageKind.MODEL_PULL, Message.MASTER, 0, 64))
        with pytest.raises(ProtocolViolationError, match="unexpected model_pull"):
            checker.end_round(0, expected={})

    def test_control_traffic_is_unchecked(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        cluster4.network.send(Message(MessageKind.CONTROL, Message.MASTER, 0, 8))
        checker.end_round(0, expected={})

    def test_count_mismatch_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        cluster4.network.send(Message(MessageKind.MODEL_PULL, Message.MASTER, 0, 64))
        with pytest.raises(ProtocolViolationError, match="predicts 2 message"):
            checker.end_round(0, expected={MessageKind.MODEL_PULL: (2, 128)})

    def test_byte_mismatch_flagged(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(0)
        cluster4.network.send(Message(MessageKind.MODEL_PULL, Message.MASTER, 0, 64))
        with pytest.raises(ProtocolViolationError, match="predicts 100 byte"):
            checker.end_round(0, expected={MessageKind.MODEL_PULL: (1, 100)})

    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_rogue_emission_raises_in_driver(self, cluster4, tiny_binary, backend):
        """End-to-end: the engine derives its expectation from the
        RoundSpec, so the only way to drift is a rogue emission from an
        executor body — which the checker must catch on either backend,
        since both run the one reduce body."""
        driver = make_driver(
            cluster4, tiny_binary, backend=backend,
            local_processes=2 if backend == "local" else 0,
        )
        original = ColumnMasterProgram._phase_reduce

        def rogue_reduce(self, ctx):
            seconds = original(self, ctx)
            self.runtime.network.send(
                Message(MessageKind.STATISTICS_PUSH, 0, Message.MASTER, 1)
            )
            return seconds

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ColumnMasterProgram, "_phase_reduce", rogue_reduce)
            with pytest.raises(ProtocolViolationError, match="statistics_push"):
                driver.fit()

    def test_violation_error_carries_details(self, cluster4):
        checker = ProtocolChecker(cluster4)
        checker.begin_round(3)
        cluster4.network.send(
            Message(MessageKind.STATISTICS_PUSH, 1, Message.MASTER, 10)
        )
        with pytest.raises(ProtocolViolationError) as excinfo:
            checker.end_round(3)
        assert excinfo.value.iteration == 3
        assert excinfo.value.problems
        assert "iteration 3" in str(excinfo.value)
