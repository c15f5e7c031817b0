"""Tests for the column-partitioned MLP extension (Section III-C), at one
and at two hidden layers: a statistics model the ColumnSGD driver runs,
on ``sim``, on ``local`` and from the on-disk store."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver, RecoveryPolicy
from repro.datasets import Dataset, make_classification
from repro.errors import ConfigurationError, TrainingError
from repro.extensions import ColumnMLP, SequentialMLP
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.linalg import CSRMatrix
from repro.models import LogisticRegression
from repro.models.check import check_decomposition, check_gradients
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from tests.conftest import hard_bound

DEPTHS = pytest.mark.parametrize(
    "sizes", [[4], [4, 3]], ids=lambda sizes: "x".join(map(str, sizes))
)


def xor_like_dataset(n_rows=600, seed=0):
    """A dataset a linear model cannot fit: XOR over two dense features
    embedded in a sparse space."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(n_rows, 2))
    labels = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    noise = rng.normal(0, 0.1, size=(n_rows, 6))
    dense = np.column_stack([x, noise])
    return Dataset(CSRMatrix.from_dense(dense), labels, name="xor")


def trainer_for(sizes, cluster, lr=0.1, failures=None, recovery=None, **kw):
    return ColumnSGDDriver(
        ColumnMLP(sizes), SGD(lr), cluster, config=ColumnSGDConfig(**kw),
        failures=failures, recovery=recovery,
    )


def last_round_bytes(sizes, data):
    trainer = trainer_for(
        sizes, SimulatedCluster(CLUSTER1.with_workers(4)), batch_size=32,
        iterations=3, eval_every=0, seed=1,
    )
    trainer.load(data)
    return trainer.fit().records[-1].bytes_sent


class TestColumnMLPMath:
    @DEPTHS
    def test_statistics_additive_over_column_shards(self, sizes, tiny_gaussian):
        model = ColumnMLP(sizes)
        w1 = model.init_params(tiny_gaussian.n_features, seed=1)
        full = model.compute_statistics(tiny_gaussian.features, w1)
        cols_a = np.arange(0, tiny_gaussian.n_features, 2)
        cols_b = np.arange(1, tiny_gaussian.n_features, 2)
        part = model.compute_statistics(
            tiny_gaussian.features.select_columns(cols_a), w1[cols_a]
        ) + model.compute_statistics(
            tiny_gaussian.features.select_columns(cols_b), w1[cols_b]
        )
        assert np.allclose(full, part, atol=1e-10)

    @DEPTHS
    def test_gradients_match_finite_differences(self, sizes):
        data = xor_like_dataset(50, seed=2)
        model = ColumnMLP(sizes)
        w1 = model.init_params(data.n_features, seed=3)
        tail = model.init_tail(seed=3)

        def loss_at(w1_, tail_):
            z = model.compute_statistics(data.features, w1_)
            return model.loss_from_statistics(z, data.labels, tail_)

        z = model.compute_statistics(data.features, w1)
        tail_grads, delta1 = model.backward(z, data.labels, tail)
        grad_w1 = model.gradient_from_statistics(
            data.features, data.labels, delta1, w1
        ).to_dense()
        assert set(tail_grads) == set(tail)

        eps = 1e-6
        for idx in [(0, 0), (1, 2), (5, 1)]:
            up = w1.copy(); up[idx] += eps
            down = w1.copy(); down[idx] -= eps
            numeric = (loss_at(up, tail) - loss_at(down, tail)) / (2 * eps)
            assert grad_w1[idx] == pytest.approx(numeric, abs=1e-6)
        for key, grad in tail_grads.items():
            for i in range(min(grad.size, 4)):
                up = {k: v.copy() for k, v in tail.items()}
                down = {k: v.copy() for k, v in tail.items()}
                up[key].reshape(-1)[i] += eps
                down[key].reshape(-1)[i] -= eps
                numeric = (loss_at(w1, up) - loss_at(w1, down)) / (2 * eps)
                assert grad.reshape(-1)[i] == pytest.approx(numeric, abs=1e-6), key

    def test_out_std_is_the_output_weights_std(self):
        scaled = ColumnMLP([8]).init_tail(seed=1)
        assert set(scaled) == {"b1", "w_out", "b_out"}
        same = ColumnMLP([8], out_std=0.5 / np.sqrt(8)).init_tail(seed=1)
        assert np.array_equal(scaled["w_out"], same["w_out"])
        deep = ColumnMLP([8, 4], out_std=2.0).init_tail(seed=1)
        assert np.array_equal(deep["W2"], ColumnMLP([8, 4]).init_tail(seed=1)["W2"])

    @DEPTHS
    def test_model_checker_accepts_the_mlp(self, sizes):
        """Both checks hand the workers' gradient what the master's step
        broadcasts, delta1, and leave the tail where it was."""
        data = xor_like_dataset(50, seed=2)
        model = ColumnMLP(sizes)
        check_gradients(model, data, seed=1)
        check_decomposition(model, data, n_workers=3, seed=1)
        # the tail the checks' init_params(seed=1) set, never stepped
        initial = model.init_tail(seed=1)
        assert all(np.array_equal(model.tail[k], initial[k]) for k in initial)

    def test_validation(self):
        for sizes, kw in [([0], {}), ([4], {"out_std": -1.0})]:
            with pytest.raises(ValueError):
                ColumnMLP(sizes, **kw)

    def test_hidden_sizes_validation(self):
        for sizes in ([], [4, 0]):
            with pytest.raises(ValueError):
                ColumnMLP(sizes)


@pytest.fixture(scope="module")
def multi_block_gaussian():
    """tiny_gaussian's shape with more rows than two dispatch blocks, so
    batches draw from several blocks, one of them short."""
    return make_classification(
        4500, 120, nnz_per_row=8, binary_features=False, seed=17
    )


class TestDistributedMLP:
    @DEPTHS
    def test_matches_sequential_reference(self, sizes, multi_block_gaussian):
        data = multi_block_gaussian
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        trainer = trainer_for(
            sizes, cluster, batch_size=32, iterations=10, eval_every=0, seed=7,
        )
        trainer.load(data)
        assert trainer._index.n_blocks > 2
        result = trainer.fit()

        reference = SequentialMLP(
            ColumnMLP(sizes), SGD(0.1), data.n_features, seed=7
        )
        index = trainer._index
        for t in range(10):
            rows = index.to_global_rows(index.sample(t, 32))
            batch = data.take(rows)
            reference.step(batch.features, batch.labels)

        assert np.allclose(result.final_params, reference.w1, atol=1e-9)
        for key in reference.tail:
            assert np.allclose(trainer.model.tail[key], reference.tail[key], atol=1e-9)

    @DEPTHS
    def test_solves_xor_where_lr_cannot(self, sizes):
        data = xor_like_dataset(4500, seed=4)
        trainer = trainer_for(
            sizes, SimulatedCluster(CLUSTER1.with_workers(2)), lr=0.5,
            batch_size=128, iterations=400, eval_every=50, seed=4,
        )
        trainer.load(data)
        assert trainer._index.n_blocks > 2
        assert trainer.fit().final_loss() < 0.3  # LR stalls at ~log(2)=0.69

        from repro.core import train_columnsgd
        from repro.models import LogisticRegression

        lr_result = train_columnsgd(
            data, LogisticRegression(), SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(2)),
            batch_size=128, iterations=400, eval_every=50, seed=4,
        )
        assert lr_result.final_loss() > 0.6

    def test_statistics_traffic_is_batch_times_hidden(self, tiny_gaussian):
        """``B x H1`` values a round."""
        narrow = last_round_bytes([2], tiny_gaussian)
        assert last_round_bytes([8], tiny_gaussian) > 3 * narrow

    def test_tail_layers_add_no_traffic(self, tiny_gaussian):
        wide = last_round_bytes([8], tiny_gaussian)
        assert last_round_bytes([8, 8, 8], tiny_gaussian) == wide

    @DEPTHS
    def test_fit_without_load_raises(self, sizes):
        trainer = trainer_for(sizes, SimulatedCluster(CLUSTER1.with_workers(2)))
        with pytest.raises(TrainingError):
            trainer.fit()

    def test_evaluating_before_load_raises(self):
        trainer = trainer_for([2], SimulatedCluster(CLUSTER1.with_workers(2)))
        for call in (trainer.evaluate_loss, trainer.current_params):
            with pytest.raises(TrainingError, match="call load\\(\\) first"):
                call()


def run(sizes, data, backend="sim", local_processes=2, **kw):
    """``(W1, tail)`` after six rounds of the driver on four workers."""
    driver = trainer_for(
        sizes, SimulatedCluster(CLUSTER1.with_workers(4)), batch_size=32,
        iterations=6, eval_every=3, seed=5, backend=backend,
        local_processes=local_processes if backend == "local" else 0, **kw,
    )
    driver.load(data)
    return driver.fit().final_params, driver.model.tail


def max_diff(got, want):
    """Largest absolute difference over W1 and every tail tensor."""
    (w1, tail), (w1_want, tail_want) = got, want
    assert sorted(tail) == sorted(tail_want)
    return max(
        float(np.max(np.abs(a - b)))
        for a, b in [(w1, w1_want)] + [(tail[k], tail_want[k]) for k in tail]
    )


class TestMLPOnEverySubstrate:
    @DEPTHS
    def test_local_matches_sim(self, sizes, tiny_gaussian):
        with hard_bound(60):
            local = run(sizes, tiny_gaussian, backend="local")
        assert max_diff(local, run(sizes, tiny_gaussian)) == 0.0

    @DEPTHS
    def test_store_matches_sim(self, sizes, tiny_gaussian, tmp_path):
        stored = run(sizes, tiny_gaussian, store_dir=str(tmp_path / "store"))
        assert max_diff(stored, run(sizes, tiny_gaussian)) == 0.0

    def test_worker_kill_on_local_restores_w1_and_keeps_the_tail(self, tiny_gaussian):
        """A SIGKILLed worker's W1 partition rolls back to its checkpoint
        as on the simulator, bit for bit; the tail, at the master, is
        stepped on through it."""
        kill = dict(
            failures=FaultSchedule([FaultEvent(3, FaultKind.WORKER, 1)]),
            recovery=RecoveryPolicy(checkpoint_every=2),
        )
        simulated = run([4, 3], tiny_gaussian, **kill)
        with hard_bound(60):
            # one process per worker, so the kill takes no co-tenant down
            local = run(
                [4, 3], tiny_gaussian, backend="local", local_processes=4,
                sync_policy="retry", local_timeout_s=1.0, **kill,
            )
        assert max_diff(local, simulated) == 0.0
        assert max_diff(local, run([4, 3], tiny_gaussian)) > 0.0  # the rollback moved W1

    def test_master_restart_is_refused_with_its_reason(self):
        """The partitions' checkpoint does not hold the tail, so a
        replay from it would step the tail twice."""
        restart = RecoveryPolicy(checkpoint_every=2, master_restart=True)
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ConfigurationError, match="ColumnMLP keeps at the master"):
            ColumnSGDDriver(ColumnMLP([4]), SGD(0.1), cluster, recovery=restart)
        ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster, recovery=restart)
