"""ColumnSGD driver tests: exactness, convergence, timing, configuration."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver, train_columnsgd
from repro.datasets import make_classification
from repro.errors import TrainingError
from repro.models import (
    FactorizationMachine,
    LinearSVM,
    LogisticRegression,
    MultinomialLogisticRegression,
)
from repro.optim import SGD, AdaGrad, Adam
from repro.sim import CLUSTER1, SimulatedCluster
from tests.conftest import dense_gradient


def sequential_reference(driver, data, model, optimizer, iterations, batch_size):
    """Single-machine mini-batch SGD on the driver's own draw sequence."""
    params = model.init_params(data.n_features, seed=driver.config.seed)
    opt = optimizer.spawn()
    index = driver._index
    for t in range(iterations):
        rows = index.to_global_rows(index.sample(t, batch_size))
        batch = data.take(rows)
        gradient = model.gradient(batch.features, batch.labels, params)
        opt.step(params, gradient)
    return params


MODEL_OPTIMIZER_CASES = [
    ("lr", lambda: LogisticRegression(), lambda: SGD(0.5)),
    ("lr-dense", lambda: dense_gradient(LogisticRegression()), lambda: SGD(0.5)),
    ("svm", lambda: LinearSVM(), lambda: SGD(0.2)),
    ("lr-adagrad", lambda: LogisticRegression(), lambda: AdaGrad(0.5)),
    ("lr-adam", lambda: LogisticRegression(), lambda: Adam(0.1)),
    ("fm", lambda: FactorizationMachine(n_factors=3), lambda: SGD(0.1)),
]


class TestExactness:
    """The headline invariant: distributed == sequential trajectory."""

    @pytest.mark.parametrize("name,model_fn,opt_fn", MODEL_OPTIMIZER_CASES,
                             ids=[c[0] for c in MODEL_OPTIMIZER_CASES])
    def test_matches_sequential(self, name, model_fn, opt_fn, tiny_gaussian):
        model, optimizer = model_fn(), opt_fn()
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(batch_size=32, iterations=15, eval_every=0,
                                 seed=3, block_size=64)
        driver = ColumnSGDDriver(model, optimizer, cluster, config=config)
        driver.load(tiny_gaussian)
        result = driver.fit()
        reference = sequential_reference(
            driver, tiny_gaussian, model_fn(), opt_fn(), 15, 32
        )
        assert np.allclose(result.final_params, reference, atol=1e-9)

    def test_mlr_matches_sequential(self, tiny_multiclass):
        model = MultinomialLogisticRegression(n_classes=4)
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(batch_size=32, iterations=10, eval_every=0,
                                 seed=1, block_size=64)
        driver = ColumnSGDDriver(model, SGD(0.5), cluster, config=config)
        driver.load(tiny_multiclass)
        result = driver.fit()
        reference = sequential_reference(
            driver, tiny_multiclass, MultinomialLogisticRegression(n_classes=4),
            SGD(0.5), 10, 32
        )
        assert np.allclose(result.final_params, reference, atol=1e-9)

    @pytest.mark.parametrize("scheme", ["round_robin", "range", "hash"])
    def test_exactness_independent_of_scheme(self, scheme, tiny_binary):
        results = []
        for s in (scheme, "round_robin"):
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            config = ColumnSGDConfig(batch_size=32, iterations=10, eval_every=0,
                                     seed=2, block_size=64, scheme=s)
            driver = ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config)
            driver.load(tiny_binary)
            results.append(driver.fit().final_params)
        assert np.allclose(results[0], results[1], atol=1e-9)

    def test_exactness_independent_of_worker_count(self, tiny_binary):
        finals = []
        for k in (1, 2, 4, 8):
            cluster = SimulatedCluster(CLUSTER1.with_workers(k))
            config = ColumnSGDConfig(batch_size=32, iterations=10, eval_every=0,
                                     seed=4, block_size=64)
            driver = ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config)
            driver.load(tiny_binary)
            finals.append(driver.fit().final_params)
        for params in finals[1:]:
            assert np.allclose(finals[0], params, atol=1e-9)


class TestConvergence:
    def test_loss_decreases(self, small_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        result = train_columnsgd(
            small_binary, LogisticRegression(), SGD(1.0), cluster,
            batch_size=200, iterations=60, eval_every=10, seed=0,
        )
        losses = [loss for _, _, loss in result.losses()]
        assert losses[0] == pytest.approx(np.log(2), abs=1e-6)
        assert losses[-1] < 0.75 * losses[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected(self, tiny_regression):
        from repro.models import LeastSquares

        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        with pytest.raises(TrainingError, match="diverged"):
            train_columnsgd(
                tiny_regression, LeastSquares(), SGD(1e6), cluster,
                batch_size=50, iterations=200, eval_every=5, block_size=64,
            )


class TestTimingModel:
    def test_iteration_time_flat_in_model_size(self):
        """Fig 10's shape: per-iteration time independent of m."""
        times = []
        for m in (1000, 10_000, 50_000):
            data = make_classification(2000, m, nnz_per_row=10, seed=1)
            cluster = SimulatedCluster(CLUSTER1)
            result = train_columnsgd(
                data, LogisticRegression(), SGD(1.0), cluster,
                batch_size=100, iterations=10, eval_every=0,
            )
            times.append(result.avg_iteration_seconds())
        assert max(times) / min(times) < 1.2

    def test_iteration_time_grows_with_batch(self, small_binary):
        """Fig 4(b): beyond the latency floor, time scales with B."""
        times = {}
        for batch in (50, 1000):
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            result = train_columnsgd(
                small_binary, LogisticRegression(), SGD(1.0), cluster,
                batch_size=batch, iterations=10, eval_every=0,
            )
            times[batch] = result.avg_iteration_seconds()
        assert times[1000] >= times[50]

    def test_two_task_overheads_per_iteration(self, small_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        result = train_columnsgd(
            small_binary, LogisticRegression(), SGD(1.0), cluster,
            batch_size=100, iterations=5, eval_every=0,
        )
        assert result.avg_iteration_seconds() >= 2 * cluster.cost.task_overhead

    def test_statistics_bytes_independent_of_model_size(self):
        """Table I: ColumnSGD communication depends only on B (and K)."""
        bytes_per_iter = []
        for m in (2000, 20_000):
            data = make_classification(1000, m, nnz_per_row=8, seed=2)
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            result = train_columnsgd(
                data, LogisticRegression(), SGD(1.0), cluster,
                batch_size=100, iterations=5, eval_every=0,
            )
            bytes_per_iter.append(result.records[-1].bytes_sent)
        assert bytes_per_iter[0] == bytes_per_iter[1]

    def test_fm_statistics_bytes_scale_with_factors(self, tiny_binary):
        """FM ships (F+1) * B statistics (Section III-C)."""
        per_factor = {}
        for factors in (2, 5):
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            result = train_columnsgd(
                tiny_binary, FactorizationMachine(n_factors=factors), SGD(0.01),
                cluster, batch_size=50, iterations=3, eval_every=0, block_size=64,
            )
            per_factor[factors] = result.records[-1].bytes_sent
        ratio = per_factor[5] / per_factor[2]
        assert ratio == pytest.approx(6 / 3, rel=0.1)


class TestDriverApi:
    def test_fit_without_load_raises(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster)
        with pytest.raises(TrainingError):
            driver.fit()

    def test_fit_accepts_dataset_directly(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        config = ColumnSGDConfig(batch_size=16, iterations=3, block_size=64)
        driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, config)
        result = driver.fit(tiny_binary)
        assert result.n_iterations >= 3

    def test_current_params_shape(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        config = ColumnSGDConfig(batch_size=16, iterations=2, block_size=64)
        driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, config)
        driver.load(tiny_binary)
        assert driver.current_params().shape == (tiny_binary.n_features,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ColumnSGDConfig(batch_size=0)
        with pytest.raises(ValueError):
            ColumnSGDConfig(iterations=-1)

    def test_memory_charged(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        config = ColumnSGDConfig(batch_size=16, iterations=2, block_size=64)
        driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, config)
        driver.load(tiny_binary)
        assert cluster.memory_in_use(cluster.MASTER) > 0
        assert cluster.memory_in_use(0) > 0
        # master footprint is batch-sized, not model-sized
        assert cluster.memory_in_use(cluster.MASTER) < cluster.memory_in_use(0)

    def test_load_report_exposed(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        config = ColumnSGDConfig(batch_size=16, iterations=2, block_size=64)
        driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, config)
        report = driver.load(tiny_binary)
        assert driver.load_report is report
        assert report.seconds > 0

    def test_result_metadata(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        result = train_columnsgd(
            tiny_binary, LogisticRegression(), SGD(0.1), cluster,
            batch_size=16, iterations=4, eval_every=2, block_size=64,
        )
        assert result.system == "ColumnSGD"
        assert result.model == "lr"
        assert result.batch_size == 16
        assert result.n_workers == 2
        assert "ColumnSGD" in result.describe()
