"""What every hosted worker derives alike is computed once per host.

The two-phase index gives every worker of a round the same draws, so
the K column shards of a batch share one set of rows and labels, and
the broadcast statistics give every worker the same loss coefficients.
On ``sim`` one process hosts all K workers; on ``local`` each process
hosts its share.  These tests count the steps per host and round, pin
the model to the run where every worker computes them itself, and check
that a shared value cannot be written through or served stale.
"""

import os

import numpy as np
import pytest

import repro.models.linear as linear_module
import repro.partition.indexing as indexing
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.models import FactorizationMachine, LogisticRegression
from repro.models.losses import LogisticLoss
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.utils.memo import LastCall
from tests.conftest import hard_bound

WORKERS = 4
ROUNDS = 6
BATCH = 40


@pytest.fixture(scope="module")
def data():
    return make_classification(600, 120, nnz_per_row=8, seed=11)


def fit(data, model=None, **config):
    driver = ColumnSGDDriver(
        model if model is not None else LogisticRegression(), SGD(0.5),
        SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=ColumnSGDConfig(
            batch_size=BATCH, iterations=ROUNDS, eval_every=0, seed=2, **config
        ),
    )
    driver.load(data)
    driver.fit()
    return driver.current_params()


@pytest.fixture
def counted(monkeypatch, tmp_path):
    """Count ``rows_of_draws`` and ``LogisticLoss.derivative`` calls per
    process: each call appends its pid to a file, so calls made in
    forked worker processes are read back too."""
    log = tmp_path / "calls.log"
    rows_of_draws, derivative = indexing.rows_of_draws, LogisticLoss.derivative

    def spy(name, fn):
        def called(*args, **kwargs):
            with open(log, "a") as out:
                out.write("{} {}\n".format(name, os.getpid()))
            return fn(*args, **kwargs)
        return called

    monkeypatch.setattr(indexing, "rows_of_draws", spy("rows", rows_of_draws))
    monkeypatch.setattr(LogisticLoss, "derivative", spy("coefficients", derivative))

    def per_process():
        counts = {}
        for line in log.read_text().splitlines() if log.exists() else ():
            name, pid = line.split()
            counts.setdefault(name, {}).setdefault(int(pid), 0)
            counts[name][int(pid)] += 1
        return counts

    return per_process


class TestOncePerHost:
    @pytest.mark.parametrize("model", [LogisticRegression, lambda: FactorizationMachine(3)],
                             ids=["lr", "fm"])
    def test_sim_finds_rows_and_coefficients_once_a_round(self, data, counted, model):
        params = fit(data, model())
        assert counted() == {
            "rows": {os.getpid(): ROUNDS}, "coefficients": {os.getpid(): ROUNDS},
        }
        assert params.any()

    def test_a_store_backed_load_finds_them_once_a_round(self, data, counted, tmp_path):
        fit(data, store_dir=str(tmp_path / "store"))
        assert counted() == {
            "rows": {os.getpid(): ROUNDS}, "coefficients": {os.getpid(): ROUNDS},
        }

    def test_local_finds_them_once_per_process_a_round(self, data, counted):
        with hard_bound(120):
            fit(data, backend="local", local_processes=2)
        counts = counted()
        assert set(counts) == {"rows", "coefficients"}
        for per_pid in counts.values():
            assert len(per_pid) == 2 and os.getpid() not in per_pid
            assert set(per_pid.values()) == {ROUNDS}

    @pytest.mark.parametrize("model", [LogisticRegression, lambda: FactorizationMachine(3)],
                             ids=["lr", "fm"])
    def test_the_model_is_the_unshared_runs_bit_for_bit(self, data, model, monkeypatch):
        shared = fit(data, model())
        with monkeypatch.context() as patch:  # every worker does every step itself
            patch.setattr(LastCall, "__call__", lambda self, key, compute: compute())
            alone = fit(data, model())
        np.testing.assert_array_equal(shared, alone)


class TestSharedValuesAreSafe:
    @pytest.fixture
    def loaded(self, data):
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
            config=ColumnSGDConfig(batch_size=BATCH, iterations=1, eval_every=0, seed=2),
        )
        driver.load(data)
        return driver

    def test_shared_rows_labels_and_coefficients_are_read_only(self, loaded, monkeypatch):
        handed = []

        def accumulate_rows(features, coefficients):
            handed.append(coefficients)
            return accumulate(features, coefficients)

        accumulate = linear_module.accumulate_rows
        monkeypatch.setattr(linear_module, "accumulate_rows", accumulate_rows)
        loaded.fit()
        draws = loaded._index.sample(0, BATCH)
        batches = [w._cached_batches[w.worker_id] for w in loaded._workers]
        layout = loaded._partitions[0].store._seal().layout[:3]
        rows = indexing.layout_rows(draws, *layout)
        shared = {
            "rows": [rows, indexing.layout_rows(draws, *layout)],
            "labels": [labels for _, labels in batches],
            "coefficients": handed,
        }
        for name, arrays in shared.items():
            assert len(arrays) > 1 and all(a is arrays[0] for a in arrays), name
            assert not arrays[0].flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 0
        # the features are each worker's own
        assert len({id(features) for features, _ in batches}) == WORKERS

    def test_a_writable_input_is_never_served_stale(self):
        memo, x = LastCall(), np.arange(4.0)
        assert memo((x,), lambda: x.sum()) == 6.0
        x[0] = 10.0
        assert memo((x,), lambda: x.sum()) == 16.0
        x.setflags(write=False)
        kept = memo((x,), lambda: x * 2)
        assert kept is memo((x,), lambda: x * 3) and not kept.flags.writeable
        x.setflags(write=True)  # it owns its memory, so it can be thawed
        x[0] = 0.0
        np.testing.assert_array_equal(memo((x,), lambda: x * 2), [0.0, 2.0, 4.0, 6.0])

    def test_writable_draws_are_looked_up_afresh(self, loaded):
        store = loaded._partitions[1].store
        draws = np.array(loaded._index.sample(0, BATCH))
        _, labels = store.assemble_batch(draws)
        assert labels.flags.writeable  # not shared: the caller's own
        draws[:] = draws[::-1]
        _, again = store.assemble_batch(draws)
        np.testing.assert_array_equal(again, labels[::-1])

    def test_writable_statistics_give_a_fresh_gradient(self, loaded):
        partition = loaded._partitions[0]
        features, labels = partition.store.assemble_batch(loaded._index.sample(0, BATCH))
        model, params = loaded.model, partition.params
        stats = np.linspace(-1.0, 1.0, BATCH).reshape(-1, 1)
        first = model.gradient_from_statistics(features, labels, stats, params).to_dense()
        stats *= -1.0
        second = model.gradient_from_statistics(features, labels, stats, params).to_dense()
        fresh = model.gradient_from_statistics(features, labels, stats.copy(), params)
        np.testing.assert_array_equal(second, fresh.to_dense())
        assert not np.array_equal(first, second)
