"""What every hosted worker derives alike is computed once per host.

The two-phase index gives every worker of a round the same draws, so
the K column shards of a batch share one set of rows and labels, and
the broadcast statistics give every worker the same loss coefficients.
A :class:`~repro.core.localexec.ColumnHostProgram` runs those steps once
per request frame and hands them to each hosted worker's steps.  On
``sim`` one program hosts all K workers; on ``local`` each process
hosts its share.  These tests count the steps per host and round, on
both substrates and under a replayed request, and pin how the host step
fails.
"""

import os

import numpy as np
import pytest

import repro.core.localexec as localexec
import repro.partition.indexing as indexing
import repro.partition.workset as workset
import repro.store.reader as reader
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.localexec import make_local_runtime
from repro.datasets import make_classification
from repro.errors import PartitionError, SimulationError
from repro.faults import FaultEvent, FaultKind
from repro.linalg import CSRMatrix
from repro.models import FactorizationMachine, LogisticRegression
from repro.models.losses import LogisticLoss
from repro.net.message import MessageKind
from repro.optim import SGD
from repro.partition.workset import Workset, WorksetStore
from repro.runtime import LocalRuntime
from repro.sim import CLUSTER1, SimulatedCluster
from repro.storage.serialization import DenseVectorPayload, encode_payload
from tests.conftest import hard_bound

WORKERS = 4
ROUNDS = 6
BATCH = 40


@pytest.fixture(scope="module")
def data():
    return make_classification(600, 120, nnz_per_row=8, seed=11)


def loaded(data, model=None, **config):
    driver = ColumnSGDDriver(
        model if model is not None else LogisticRegression(), SGD(0.5),
        SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=ColumnSGDConfig(
            batch_size=BATCH, iterations=ROUNDS, eval_every=0, seed=2, **config
        ),
    )
    driver.load(data)
    return driver


def fit(data, model=None, **config):
    driver = loaded(data, model, **config)
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

    for module in (indexing, workset, localexec):  # every binding of the name
        monkeypatch.setattr(module, "rows_of_draws", spy("rows", rows_of_draws))
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

    def test_a_replayed_request_runs_no_host_step(self, data, counted):
        """A dropped reply is resent and answered from the process's
        dedup cache: the host step is not run again, so the counts stay
        one per process a round, and the model is the clean run's."""
        clean = fit(data)
        driver = loaded(data, backend="local", local_processes=2, sync_policy="retry")
        runtime, host_program = make_local_runtime(driver)
        with hard_bound(120), runtime:
            runtime.start(host_program)
            driver.local_runtime = runtime
            for t in range(ROUNDS):
                if t in (2, 4):  # lose worker 1's, then worker 2's, compute reply
                    runtime.inject_faults([FaultEvent(t, FaultKind.DROP, t // 2)])
                driver.run_round(t)
            params = driver.current_params()
        assert runtime.network.bytes_of_kind(MessageKind.RETRY) > 0
        counts = counted()
        assert set(counts) == {"rows", "coefficients"}
        for per_pid in counts.values():
            forked = {pid: n for pid, n in per_pid.items() if pid != os.getpid()}
            assert len(forked) == 2 and set(forked.values()) == {ROUNDS}
        np.testing.assert_array_equal(params, clean)

    def test_the_label_sidecar_is_checked_once_a_host(self, data, monkeypatch, tmp_path):
        """Four worker stores on one host read a round's labels through one
        of them: one sidecar CRC32 per block, not one per block and store."""
        driver = loaded(data, store_dir=str(tmp_path / "store"), block_size=150)
        n_blocks = driver._index.n_blocks
        assert n_blocks == 4
        crc32, sidecar = reader.zlib.crc32, []

        def counted_crc32(record):
            if bytes(record[5:6]) == b"\x01":  # a dense payload: a sidecar record
                sidecar.append(len(record))
            return crc32(record)

        monkeypatch.setattr(reader.zlib, "crc32", counted_crc32)
        driver.run_round(0)
        draws = driver._index.sample(0, BATCH)
        assert len(sidecar) == np.unique(draws[:, 0]).size == n_blocks


class TestHostStep:
    def test_every_worker_gets_the_hosts_rows_labels_and_coefficients(self, data, monkeypatch):
        driver = loaded(data)
        handed, rows = [], []
        update_model, assemble_batch = localexec.ColumnWorker.update_model, WorksetStore.assemble_batch

        def recording(worker, coefficients, only_partitions=None):
            handed.append(coefficients)
            return update_model(worker, coefficients, only_partitions)

        def gathering(store, draws, rows_=None, labels=None):
            rows.append(rows_)
            return assemble_batch(store, draws, rows_, labels)

        monkeypatch.setattr(localexec.ColumnWorker, "update_model", recording)
        monkeypatch.setattr(WorksetStore, "assemble_batch", gathering)
        driver.run_round(0)
        labels = [w._cached_batches[w.worker_id][1] for w in driver._workers]
        assert len(handed) == len(labels) == len(rows) == WORKERS
        for shared in (handed, labels, rows):
            assert all(value is shared[0] for value in shared)
        draws = driver._index.sample(0, BATCH)
        np.testing.assert_array_equal(
            labels[0], data.labels[driver._index.to_global_rows(draws)]
        )

    def test_a_store_of_another_layout_is_refused_when_it_joins(self, data):
        driver = loaded(data)
        odd = WorksetStore(1, driver._partitions[1].store.local_dim)
        odd.put(Workset(0, CSRMatrix.empty(3, odd.local_dim), np.zeros(3)))
        driver._partitions[1].store = odd
        with pytest.raises(PartitionError, match="worker 1's store"):
            localexec.host_program(driver, range(WORKERS))

    def test_a_host_step_error_is_every_fresh_requests_error(self):
        class Failing:
            def host_step(self, op, args, payload):
                raise RuntimeError("host step broke")

            def handle(self, worker, op, args, payload, shared):
                return {}, None

        with hard_bound(60), LocalRuntime(3, processes=2) as runtime:
            runtime.start(lambda workers: Failing())
            with pytest.raises(SimulationError) as err:
                runtime.run_all("anything")
            for w in range(3):
                assert "worker {}: RuntimeError: host step broke".format(w) in str(err.value)

    def test_an_update_without_its_compute_fails_the_updaters(self, data):
        """What a respawned process sees when round t's ``update`` reaches
        it without round t's ``compute``: no batch, so each updater fails
        as a worker does that lost its batch, and no other round's labels
        are used."""
        driver = loaded(data, backend="local", local_processes=2)
        with hard_bound(60):
            runtime, host_program = make_local_runtime(driver)
            with runtime:
                runtime.start(host_program)
                payload = encode_payload(DenseVectorPayload(np.zeros(BATCH)))
                with pytest.raises(SimulationError, match="WorkerFailedError") as err:
                    runtime.run_all("update", payload=payload, args={
                        "shape": [BATCH, 1], "updater_of": {w: w for w in range(WORKERS)},
                    })
                assert str(err.value).count("WorkerFailedError") == WORKERS
