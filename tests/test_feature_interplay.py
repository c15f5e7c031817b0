"""Interplay of orthogonal driver features (they must compose)."""

import json

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import DataError
from repro.io import load_model
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster, StragglerModel


def driver_for(data, **config_kwargs):
    defaults = dict(batch_size=32, iterations=10, eval_every=5, seed=21,
                    block_size=64)
    defaults.update(config_kwargs)
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(0.5), cluster,
        config=ColumnSGDConfig(**defaults),
    )
    driver.load(data)
    return driver


class TestFeatureInterplay:
    def test_backup_plus_fp32_still_matches_fp32_pure(self, tiny_gaussian):
        """Backup replication must not change the fp32-rounded stream."""
        pure = driver_for(tiny_gaussian, wire_precision="fp32").fit()
        backed = driver_for(tiny_gaussian, wire_precision="fp32", backup=1).fit()
        assert np.allclose(pure.final_params, backed.final_params, atol=1e-9)

    def test_backup_plus_straggler_plus_eval_dataset(self, tiny_gaussian):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(0.5), cluster,
            config=ColumnSGDConfig(batch_size=32, iterations=10, eval_every=5,
                                   seed=21, block_size=64, backup=1),
            straggler=StragglerModel(4, level=5.0, seed=2),
        )
        driver.load(tiny_gaussian)
        result = driver.fit(eval_dataset=tiny_gaussian)
        assert len(result.eval_losses()) == len(result.losses())


class TestCheckpointEdges:
    def test_future_format_version_rejected(self, tmp_path):
        record = {"format_version": 99, "model_name": "lr", "shape": [2]}
        np.savez(
            str(tmp_path / "future.npz"),
            params=np.zeros(2),
            metadata=np.frombuffer(json.dumps(record).encode(), dtype=np.uint8),
        )
        with pytest.raises(DataError, match="version"):
            load_model(tmp_path / "future.npz")

    def test_shape_mismatch_rejected(self, tmp_path):
        record = {"format_version": 1, "model_name": "lr", "shape": [3]}
        np.savez(
            str(tmp_path / "bad.npz"),
            params=np.zeros(2),
            metadata=np.frombuffer(json.dumps(record).encode(), dtype=np.uint8),
        )
        with pytest.raises(DataError, match="shape"):
            load_model(tmp_path / "bad.npz")
