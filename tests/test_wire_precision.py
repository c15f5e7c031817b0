"""Tests for the fp32 statistics wire format."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.models import LogisticRegression
from repro.net import MessageKind
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster


def run(data, precision, iterations=15):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = ColumnSGDConfig(
        batch_size=64, iterations=iterations, eval_every=5, seed=3,
        block_size=64, wire_precision=precision,
    )
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config)
    driver.load(data)
    result = driver.fit()
    return cluster, result


class TestWirePrecision:
    def test_fp32_halves_statistics_traffic(self, tiny_binary):
        c64, _ = run(tiny_binary, "fp64", iterations=3)
        c32, _ = run(tiny_binary, "fp32", iterations=3)
        push64 = c64.network.bytes_of_kind(MessageKind.STATISTICS_PUSH)
        push32 = c32.network.bytes_of_kind(MessageKind.STATISTICS_PUSH)
        # headers aside, payload halves
        assert push32 < 0.6 * push64

    def test_fp32_still_converges(self, small_binary):
        _, result = run(small_binary, "fp32", iterations=40)
        losses = [l for _, _, l in result.losses()]
        assert losses[-1] < 0.9 * losses[0]

    def test_fp32_close_but_not_identical_to_fp64(self, tiny_gaussian):
        _, r64 = run(tiny_gaussian, "fp64")
        _, r32 = run(tiny_gaussian, "fp32")
        assert not np.array_equal(r64.final_params, r32.final_params)
        assert np.allclose(r64.final_params, r32.final_params, atol=1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ColumnSGDConfig(wire_precision="fp16")
