"""Tests for the four RowSGD baselines: numerics, traffic shape, memory."""

import numpy as np
import pytest

from repro.baselines import (
    MLlibStarTrainer,
    MLlibTrainer,
    ParameterServerTrainer,
    RowSGDConfig,
    SparsePSTrainer,
    make_trainer,
    TRAINER_REGISTRY,
)
from repro.core import ColumnSGDDriver
from repro.errors import ConfigurationError, OutOfMemoryError, TrainingError
from repro.models import FactorizationMachine, LogisticRegression
from repro.net import MessageKind
from repro.optim import SGD
from repro.sim import CLUSTER1, ClusterSpec, SimulatedCluster


def fit(trainer_cls, data, workers=4, iterations=10, batch=64, **kwargs):
    cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
    config = RowSGDConfig(batch_size=batch, iterations=iterations, eval_every=5, seed=2)
    trainer = trainer_cls(LogisticRegression(), SGD(1.0), cluster, config=config, **kwargs)
    trainer.load(data)
    return trainer, trainer.fit(), cluster


ALL_BASELINES = [MLlibTrainer, MLlibStarTrainer, ParameterServerTrainer, SparsePSTrainer]


class TestNumerics:
    @pytest.mark.parametrize("trainer_cls", ALL_BASELINES,
                             ids=lambda c: c.__name__)
    def test_loss_decreases(self, trainer_cls, small_binary):
        _, result, _ = fit(trainer_cls, small_binary, iterations=40, batch=200)
        losses = [loss for _, _, loss in result.losses()]
        assert losses[-1] < losses[0]

    def test_centralized_systems_share_trajectory(self, small_binary):
        """MLlib, Petuum and MXNet run the same math — only time/memory
        models differ, so their final models are identical."""
        finals = []
        for cls in (MLlibTrainer, ParameterServerTrainer, SparsePSTrainer):
            _, result, _ = fit(cls, small_binary, iterations=15)
            finals.append(result.final_params)
        assert np.allclose(finals[0], finals[1], atol=1e-12)
        assert np.allclose(finals[0], finals[2], atol=1e-12)

    def test_mllib_star_differs_from_mllib(self, small_binary):
        """Model averaging with local steps is a different algorithm."""
        _, mllib, _ = fit(MLlibTrainer, small_binary, iterations=15)
        _, star, _ = fit(MLlibStarTrainer, small_binary, iterations=15)
        assert not np.allclose(mllib.final_params, star.final_params)

    def test_mllib_star_single_local_step_matches_mllib(self, small_binary):
        """With 1 local step and plain SGD, model averaging IS mini-batch
        SGD — a consistency check on the averaging math."""
        _, mllib, _ = fit(MLlibTrainer, small_binary, iterations=15)
        _, star, _ = fit(MLlibStarTrainer, small_binary, iterations=15, local_steps=1)
        assert np.allclose(mllib.final_params, star.final_params, atol=1e-10)

    def test_fit_without_load_raises(self, small_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        trainer = MLlibTrainer(LogisticRegression(), SGD(1.0), cluster)
        with pytest.raises(TrainingError):
            trainer.fit()

    def test_local_steps_validated(self, small_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ValueError):
            MLlibStarTrainer(LogisticRegression(), SGD(1.0), cluster, local_steps=0)


class TestTrafficShape:
    def test_mllib_traffic_scales_with_model_size(self):
        from repro.datasets import make_classification

        per_m = {}
        for m in (2000, 20_000):
            data = make_classification(500, m, nnz_per_row=8, seed=3)
            _, result, _ = fit(MLlibTrainer, data, iterations=4)
            per_m[m] = result.records[-1].bytes_sent
        assert per_m[20_000] > 5 * per_m[2000]

    def test_mxnet_traffic_flat_in_model_size(self):
        from repro.datasets import make_classification

        per_m = {}
        for m in (2000, 20_000):
            data = make_classification(500, m, nnz_per_row=8, seed=3)
            _, result, _ = fit(SparsePSTrainer, data, iterations=4)
            per_m[m] = result.records[-1].bytes_sent
        assert per_m[20_000] < 1.5 * per_m[2000]

    def test_petuum_same_bytes_as_mllib_but_faster(self, small_binary):
        """The paper: PS spreads the same bytes over S NICs."""
        _, mllib, mllib_cluster = fit(MLlibTrainer, small_binary, iterations=6)
        _, petuum, petuum_cluster = fit(ParameterServerTrainer, small_binary, iterations=6)
        mllib_pull = mllib_cluster.network.bytes_of_kind(MessageKind.MODEL_PULL)
        petuum_pull = petuum_cluster.network.bytes_of_kind(MessageKind.MODEL_PULL)
        assert mllib_pull == petuum_pull
        assert petuum.avg_iteration_seconds() < mllib.avg_iteration_seconds()

    def test_table4_ordering_large_model(self):
        """Table IV shape at a large (scaled) model: MLlib > Petuum >
        MXNet and ColumnSGD flat."""
        from repro.datasets import make_classification

        data = make_classification(1000, 400_000, nnz_per_row=10, seed=4)
        times = {}
        for name in ("mllib", "petuum", "mxnet", "columnsgd"):
            cluster = SimulatedCluster(CLUSTER1)
            trainer = make_trainer(
                name, LogisticRegression(), SGD(1.0), cluster,
                batch_size=100, iterations=6, eval_every=0,
            )
            trainer.load(data)
            times[name] = trainer.fit().avg_iteration_seconds()
        assert times["mllib"] > times["petuum"] > times["mxnet"]
        assert times["mllib"] > 5 * times["columnsgd"]


class TestMemory:
    def test_mllib_master_holds_model(self, small_binary):
        _, _, cluster = fit(MLlibTrainer, small_binary, iterations=2)
        assert cluster.memory_in_use(cluster.MASTER) >= 2 * small_binary.n_features * 8

    def test_ps_oom_on_huge_fm(self):
        """Table V: MXNet cannot initialise a 2.8B-parameter FM on a
        32 GB driver."""
        from repro.datasets import make_classification

        # tiny data, but force the *model* dimension huge via a tiny-memory
        # cluster so the dense-init charge overflows
        data = make_classification(200, 50_000, nnz_per_row=5, seed=5)
        spec = ClusterSpec(
            name="tiny-mem",
            n_workers=4,
            cores_per_worker=2,
            memory_bytes_per_node=50_000 * 51 * 8,  # < 2x model bytes
            bandwidth_bytes_per_s=1e9,
        )
        cluster = SimulatedCluster(spec)
        trainer = SparsePSTrainer(
            FactorizationMachine(n_factors=50), SGD(0.01), cluster,
            config=RowSGDConfig(batch_size=32, iterations=2),
        )
        with pytest.raises(OutOfMemoryError):
            trainer.load(data)

    def test_columnsgd_survives_same_budget(self):
        """ColumnSGD spreads the same model over workers and survives."""
        from repro.core import ColumnSGDConfig
        from repro.datasets import make_classification

        data = make_classification(200, 50_000, nnz_per_row=5, seed=5)
        spec = ClusterSpec(
            name="tiny-mem",
            n_workers=4,
            cores_per_worker=2,
            memory_bytes_per_node=50_000 * 51 * 8,
            bandwidth_bytes_per_s=1e9,
        )
        cluster = SimulatedCluster(spec)
        driver = ColumnSGDDriver(
            FactorizationMachine(n_factors=50), SGD(0.01), cluster,
            config=ColumnSGDConfig(batch_size=32, iterations=2, eval_every=0),
        )
        driver.load(data)  # must not raise
        driver.fit()


class TestRegistry:
    def test_all_systems_constructible(self, tiny_binary):
        for name in TRAINER_REGISTRY:
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            trainer = make_trainer(
                name, LogisticRegression(), SGD(0.5), cluster,
                batch_size=16, iterations=2, eval_every=0,
            )
            trainer.load(tiny_binary)
            result = trainer.fit()
            assert result.n_iterations >= 2

    def test_unknown_system(self):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(KeyError):
            make_trainer("horovod", LogisticRegression(), SGD(0.5), cluster)

    @pytest.mark.parametrize("system, extra", [
        ("mllib*", {"local_steps": 8}),
        ("petuum", {"n_servers": 2}),
        ("mllib", {"backup": 1}),
    ])
    def test_unknown_extra_is_refused(self, system, extra):
        """A baseline does not silently drop an extra it does not take."""
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ConfigurationError, match=next(iter(extra))):
            make_trainer(system, LogisticRegression(), SGD(0.5), cluster, **extra)
