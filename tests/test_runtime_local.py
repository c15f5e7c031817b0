"""Local (multiprocess) backend tests.

The acceptance property from the paper reproduction's point of view:
one job seed must draw the same batches and produce the same model on
every backend.  The simulator establishes the reference trajectory;
these tests run the *same* job on real worker processes — statistics
crossing real pipes through the codec — and require ColumnSGD's final
model to agree within 1e-9 (with the fp64 codec it agrees exactly) and
MLlib's parameters and loss series to agree bit for bit.
"""

import numpy as np
import pytest

from repro.baselines.registry import make_trainer
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.localexec import make_local_runtime
from repro.datasets import make_classification
from repro.errors import ConfigurationError, SimulationError
from repro.models import LogisticRegression
from repro.net.message import MessageKind
from repro.optim import SGD
from repro.runtime import LocalRuntime
from repro.sim import CLUSTER1, SimulatedCluster
from tests.conftest import hosting

WORKERS = 4
ITERATIONS = 8
BATCH = 32


@pytest.fixture(scope="module")
def data():
    return make_classification(200, 80, nnz_per_row=10, seed=5)


def make_driver(data, backend, processes=0, wire_precision="fp64", **extra):
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    config = ColumnSGDConfig(
        batch_size=BATCH,
        iterations=ITERATIONS,
        eval_every=4,
        seed=3,
        backend=backend,
        local_processes=processes,
        wire_precision=wire_precision,
        check_protocol=True,
        **extra,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(0.5), cluster, config=config
    )
    driver.load(data)
    return driver


def make_mllib(data, backend, **extra):
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    trainer = make_trainer(
        "mllib",
        LogisticRegression(),
        SGD(0.5),
        cluster,
        batch_size=BATCH,
        iterations=ITERATIONS,
        eval_every=4,
        seed=3,
        backend=backend,
        check_protocol=True,
        **extra,
    )
    trainer.load(data)
    return trainer


def start_mllib_runtime(trainer):
    """What a fit() hosts, started, for tests that drive ``run_round``
    themselves."""
    runtime, programs = trainer._make_local_runtime()
    runtime.start(programs)
    return runtime


#: one sequencer, two backends: name -> (backend, **config) -> loaded trainer
TRAINERS = {
    "columnsgd": make_driver,
    "mllib": make_mllib,
}


# ----------------------------------------------------------------------
# cross-backend determinism (the acceptance criterion)
# ----------------------------------------------------------------------
class TestCrossBackendDeterminism:
    def test_columnsgd_final_model_matches_sim(self, data):
        sim_result = make_driver(data, "sim").fit()
        local_result = make_driver(data, "local", processes=WORKERS).fit()
        np.testing.assert_allclose(
            local_result.final_params, sim_result.final_params, atol=1e-9
        )
        # ... and the real encoded bytes equal the simulator's byte model.
        assert local_result.total_bytes() == sim_result.total_bytes()
        assert local_result.final_loss() == pytest.approx(
            sim_result.final_loss(), abs=1e-9
        )

    def test_process_packing_does_not_change_the_numbers(self, data):
        """K logical workers on 2 processes == K processes, bit for bit
        (each logical worker keeps its own program state)."""
        spread = make_driver(data, "local", processes=WORKERS).fit()
        packed = make_driver(data, "local", processes=2).fit()
        np.testing.assert_array_equal(
            packed.final_params, spread.final_params
        )

    def test_fp32_wire_matches_sim_exactly(self, data):
        """Both backends round fp32 statistics in the same codec call, so
        the models agree to the last bit."""
        sim_result = make_driver(data, "sim", wire_precision="fp32").fit()
        local_result = make_driver(data, "local", wire_precision="fp32").fit()
        np.testing.assert_array_equal(
            local_result.final_params, sim_result.final_params
        )
        assert local_result.total_bytes() == sim_result.total_bytes()

    def test_mllib_local_matches_sim(self, data):
        results = {}
        for backend in ("sim", "local"):
            cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
            trainer = make_trainer(
                "mllib",
                LogisticRegression(),
                SGD(0.5),
                cluster,
                batch_size=BATCH,
                iterations=ITERATIONS,
                eval_every=4,
                seed=3,
                backend=backend,
            )
            trainer.load(data)
            results[backend] = trainer.fit()
        np.testing.assert_array_equal(
            results["local"].final_params, results["sim"].final_params
        )
        assert [loss for _, _, loss in results["local"].losses()] == [
            loss for _, _, loss in results["sim"].losses()
        ]
        assert results["local"].total_bytes() == results["sim"].total_bytes()


# ----------------------------------------------------------------------
# measured time and tracing
# ----------------------------------------------------------------------
class TestMeasuredRounds:
    def test_local_rounds_report_wall_clock_time(self, data):
        driver = make_driver(data, "local")
        result = driver.fit()
        assert result.avg_iteration_seconds() > 0.0
        # simulated time would be identical across runs; wall-clock
        # timestamps must be monotone within the run
        times = [t for _, t, _ in result.losses()]
        assert times == sorted(times)

    def test_local_run_fills_the_engine_trace(self, data):
        driver = make_driver(data, "local")
        driver.fit()
        trace = driver.cluster.engine_trace
        assert trace is not None
        phases = {e.phase for e in trace.events}
        assert phases == {
            "compute_statistics", "gather", "reduce", "broadcast",
            "update_model",
        }
        assert {e.round for e in trace.events} == set(range(ITERATIONS))
        assert all(e.end >= e.start for e in trace.events)


# ----------------------------------------------------------------------
# one round loop: the engine sequences both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", sorted(TRAINERS))
class TestOneSequencer:
    @pytest.fixture
    def runs(self, data, system):
        """Fixed-seed fault-free fit() per backend, with every round's
        RoundOutcome captured on the way."""
        runs = {}
        for backend in ("sim", "local"):
            trainer = TRAINERS[system](data, backend)
            outcomes = []
            run_round = trainer.run_round
            trainer.run_round = lambda t, run=run_round, out=outcomes: (
                out.append(run(t)) or out[-1]
            )
            runs[backend] = (trainer, trainer.fit(), outcomes)
        return runs

    def test_trace_parity(self, runs, system):
        """Same ordered (phase, category, kind) tuples per round."""
        shapes = {}
        for backend, (trainer, _, _) in runs.items():
            trace = trainer.cluster.engine_trace
            assert trace.rounds() == list(range(ITERATIONS))
            shapes[backend] = [
                [(e.phase, e.category, e.kind) for e in trace.round_events(t)]
                for t in range(ITERATIONS)
            ]
        assert shapes["local"] == shapes["sim"]
        assert len(shapes["sim"][0]) == {"columnsgd": 5, "mllib": 4}[system]

    def test_expected_traffic_is_engine_derived(self, runs, system):
        """The real encoded lengths the local comm phases declare equal
        the (count, bytes) the engine derives from the byte formulas."""
        sim, local = runs["sim"][2], runs["local"][2]
        assert len(local) == ITERATIONS
        assert [o.expected for o in local] == [o.expected for o in sim]
        assert all(o.chosen == set(range(WORKERS)) for o in local)
        assert all(
            set(o.phase_seconds) == set(sim[0].phase_seconds) for o in local
        )

    def test_record_durations_are_the_clock_advance(self, runs, system):
        _, result, outcomes = runs["local"]
        first, last = result.records[0], result.records[-1]
        assert first.iteration == -1  # stamped before any round ran
        durations = [r.duration for r in result.records if r.iteration >= 0]
        assert durations == [o.duration for o in outcomes]
        assert sum(durations) == pytest.approx(
            last.sim_time - first.sim_time, rel=1e-12
        )
        assert all(d > 0.0 for d in durations)


def test_default_columnsgd_round_spec_is_the_same_on_both_backends():
    def phases(backend):
        driver = ColumnSGDDriver(
            LogisticRegression(),
            SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
            config=ColumnSGDConfig(backend=backend),
        )
        return [
            (p.name, type(p), getattr(p, "kind", None))
            for p in driver.round_spec().phases
        ]

    assert phases("sim") == phases("local")
    assert len(phases("sim")) == 5


class TestRunRoundOnLocal:
    """``run_round(t)`` is public (benches drive it directly); on
    ``backend='local'`` it used to run a *simulated* round on the
    parent's stale partition copies."""

    def test_columnsgd_round_runs_on_the_worker_processes(self, data):
        reference = make_driver(data, "sim")
        for t in range(2):
            reference.run_round(t)
        driver = make_driver(data, "local")
        runtime, programs = make_local_runtime(driver)
        runtime.start(programs)
        try:
            driver.local_runtime = runtime
            for t in range(2):
                outcome = driver.run_round(t)
                assert outcome.chosen == set(range(WORKERS))
            live = runtime.run_all("params").replies
            for w in range(WORKERS):
                for pid, params in live[w].result["params"].items():
                    np.testing.assert_array_equal(
                        params, reference._partitions[pid].params
                    )
            # both rounds' traffic went through the real pipes
            round_bytes = sum(b for _, b in outcome.expected.values())
            assert runtime.network.total_bytes() == 2 * round_bytes
            np.testing.assert_array_equal(
                driver.current_params(), reference.current_params()
            )
        finally:
            runtime.close()

    def test_comm_phase_seconds_are_the_carrying_exchange_remainder(self, data):
        """A measured comm phase's seconds replace the topology's modelled
        ones: ``gather`` is the compute exchange's transport remainder
        and ``broadcast`` the update exchange's, exactly."""
        driver = make_driver(data, "local")
        runtime, programs = make_local_runtime(driver)
        runtime.start(programs)
        carried = {}
        exchange = runtime.exchange

        def recording_exchange(op, **kwargs):
            result = exchange(op, **kwargs)
            carried[op] = result.comm_seconds()
            return result

        runtime.exchange = recording_exchange
        try:
            driver.local_runtime = runtime
            outcome = driver.run_round(0)
        finally:
            runtime.close()
        events = {e.phase: e for e in driver.cluster.engine_trace.round_events(0)}
        for phase, op in (("gather", "compute"), ("broadcast", "update")):
            assert outcome.phase_seconds[phase] == carried[op]
            assert events[phase].end == events[phase].start + carried[op]

    def test_mllib_round_runs_on_the_worker_processes(self, data):
        reference = make_mllib(data, "sim")
        reference.run_round(0)
        trainer = make_mllib(data, "local")
        runtime = start_mllib_runtime(trainer)
        try:
            trainer.local_runtime = runtime
            outcome = trainer.run_round(0)
            assert runtime.network.total_bytes() == sum(
                b for _, b in outcome.expected.values()
            )
            assert outcome.worker_seconds["compute_gradients"].keys() == set(
                range(WORKERS)
            )
            np.testing.assert_array_equal(
                trainer.current_params(), reference.current_params()
            )
        finally:
            runtime.close()

    @pytest.mark.parametrize("system", sorted(TRAINERS))
    def test_no_attached_runtime_is_an_error_not_a_sim_round(self, data, system):
        trainer = TRAINERS[system](data, "local")
        params = trainer.current_params()
        loaded_bytes = trainer.cluster.network.total_bytes()
        with pytest.raises(ConfigurationError, match="attached"):
            trainer.run_round(0)
        np.testing.assert_array_equal(trainer.current_params(), params)
        assert trainer.cluster.network.total_bytes() == loaded_bytes


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ColumnSGDConfig(backend="bogus")

    def test_negative_local_processes_rejected(self):
        with pytest.raises(ValueError):
            ColumnSGDConfig(local_processes=-1)

    def test_local_rejects_backup_computation(self):
        with pytest.raises(ValueError, match="backup"):
            ColumnSGDConfig(backend="local", backup=1)

    @pytest.mark.parametrize("system", ["columnsgd", "mllib"])
    def test_local_rejects_straggler_models(self, system):
        """Straggler slowdowns are a simulator cost-model input; on real
        processes they used to be silently ignored."""
        from repro.baselines.base import RowSGDConfig
        from repro.baselines.mllib import MLlibTrainer
        from repro.sim import StragglerModel

        cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
        straggler = StragglerModel(WORKERS, level=10.0)
        with pytest.raises(ConfigurationError, match="straggler"):
            if system == "columnsgd":
                ColumnSGDDriver(
                    LogisticRegression(), SGD(0.5), cluster,
                    config=ColumnSGDConfig(backend="local"), straggler=straggler,
                )
            else:
                MLlibTrainer(
                    LogisticRegression(), SGD(0.5), cluster,
                    config=RowSGDConfig(backend="local"), straggler=straggler,
                )
        # the no-straggler model is no request for slowdowns
        ColumnSGDDriver(
            LogisticRegression(), SGD(0.5), cluster,
            config=ColumnSGDConfig(backend="local"),
            straggler=StragglerModel.none(WORKERS),
        )

    def test_local_accepts_timeout_sync_policies(self):
        """Deadline-bounded transport made the relaxed-barrier policies
        real on the local backend (they used to be rejected)."""
        for policy in ("retry", "timeout"):
            config = ColumnSGDConfig(backend="local", sync_policy=policy)
            assert config.sync_policy == policy

    def test_local_accepts_checkpointing(self, data):
        """A RecoveryPolicy with a checkpoint cadence is honoured on the
        local backend (real spills; see tests/test_local_faults.py)."""
        from repro.core.recovery import RecoveryPolicy

        cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
        driver = ColumnSGDDriver(
            LogisticRegression(),
            SGD(0.5),
            cluster,
            config=ColumnSGDConfig(
                batch_size=BATCH, iterations=4, seed=3, backend="local"
            ),
            recovery=RecoveryPolicy(checkpoint_every=2),
        )
        driver.load(data)
        driver.fit()
        store = driver.recovery_manager.checkpoints
        assert store.directory is not None  # real spills, not the memory store
        assert store.writes > 0
        assert store.bytes_written > 0

    def test_local_rejects_failure_injection(self, data):
        from repro.faults import FaultEvent, FaultKind, FaultSchedule

        # A TASK failure is a Spark notion with no real-process meaning:
        # refused when the driver is built, naming the kind, the backend
        # and where it does run (the full matrix is tests/test_faults.py).
        with pytest.raises(ConfigurationError, match="TASK.*'local'.*'sim'"):
            ColumnSGDDriver(
                LogisticRegression(),
                SGD(0.5),
                SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
                config=ColumnSGDConfig(
                    batch_size=BATCH, iterations=ITERATIONS, seed=3,
                    backend="local",
                ),
                failures=FaultSchedule([FaultEvent(2, FaultKind.TASK, 1)]),
            )

    def test_only_mllib_baseline_supports_local(self, data):
        cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
        trainer = make_trainer(
            "petuum",
            LogisticRegression(),
            SGD(0.5),
            cluster,
            batch_size=BATCH,
            iterations=ITERATIONS,
            seed=3,
            backend="local",
        )
        trainer.load(data)
        with pytest.raises(ConfigurationError, match="simulator-only"):
            trainer.fit()


# ----------------------------------------------------------------------
# LocalRuntime mechanics
# ----------------------------------------------------------------------
class EchoProgram:
    """Test program: echoes args/payload; 'boom' raises remotely."""

    def handle(self, op, args, payload):
        if op == "boom":
            raise RuntimeError("kaboom")
        return {"echo": args.get("x")}, payload


def started_runtime(workers=3, processes=2):
    runtime = LocalRuntime(workers, processes=processes)
    runtime.start(hosting({w: EchoProgram() for w in range(workers)}))
    return runtime


class TestLocalRuntimeMechanics:
    def test_run_all_reaches_every_logical_worker(self):
        runtime = started_runtime()
        try:
            assert runtime.n_processes == 2
            exchange = runtime.run_all("echo", args={"x": 7}, payload=b"abc")
            assert sorted(exchange.replies) == [0, 1, 2]
            assert all(r.result["echo"] == 7 for r in exchange.replies.values())
            assert all(r.payload == b"abc" for r in exchange.replies.values())
            assert exchange.seconds >= 0.0
            assert exchange.comm_seconds() >= 0.0
        finally:
            runtime.close()

    def test_remote_exception_surfaces_as_simulation_error(self):
        runtime = started_runtime()
        try:
            with pytest.raises(SimulationError, match="kaboom"):
                runtime.run_all("boom")
        finally:
            runtime.close()

    def test_error_exchange_drains_inflight_replies(self):
        """Regression: a remote error must not abandon the other
        workers' replies in their pipes — the next exchange would read
        them as its own answers.  The raise happens only after the
        exchange fully drains."""
        runtime = started_runtime()
        try:
            with pytest.raises(SimulationError, match="kaboom"):
                runtime.run_all("boom", payload=b"stale")
            exchange = runtime.run_all("echo", args={"x": 11}, payload=b"fresh")
            assert sorted(exchange.replies) == [0, 1, 2]
            assert all(
                r.result["echo"] == 11 for r in exchange.replies.values()
            )
            assert all(r.payload == b"fresh" for r in exchange.replies.values())
        finally:
            runtime.close()

    def test_error_message_names_every_failing_worker(self):
        runtime = started_runtime()
        try:
            with pytest.raises(SimulationError) as err:
                runtime.run_all("boom")
            for worker in range(3):
                assert "worker {}".format(worker) in str(err.value)
        finally:
            runtime.close()

    def test_allreduce_accounts_exact_byte_total(self):
        """The ring split must cover every byte: uneven sizes hand the
        remainder to the last shard (2(n-1)·(size//n) + size%n total)."""
        for workers, size in ((3, 1000), (4, 1001), (5, 7), (2, 0)):
            runtime = LocalRuntime(workers)
            runtime.topology.allreduce(MessageKind.MODEL_AVG, size)
            expected = 2 * (workers - 1) * (size // workers) + size % workers
            assert runtime.network.total_bytes() == expected, (workers, size)

    def test_allreduce_single_worker_sends_nothing(self):
        runtime = LocalRuntime(1)
        assert runtime.topology.allreduce(MessageKind.MODEL_AVG, 512) == 0.0
        assert runtime.network.total_bytes() == 0

    def test_transport_methods_account_without_advancing_time(self):
        runtime = LocalRuntime(3)
        runtime.topology.gather(MessageKind.STATISTICS_PUSH, [10, 20, 30])
        runtime.topology.broadcast(MessageKind.STATISTICS_BCAST, 50)
        assert runtime.network.total_bytes() == 60 + 3 * 50
        assert runtime.clock.now() == 0.0

    def test_run_all_requires_start(self):
        with pytest.raises(SimulationError, match="not started"):
            LocalRuntime(2).run_all("echo")

    def test_start_twice_rejected(self):
        runtime = started_runtime()
        try:
            with pytest.raises(SimulationError, match="already started"):
                runtime.start(hosting({w: EchoProgram() for w in range(3)}))
        finally:
            runtime.close()

    def test_close_is_idempotent(self):
        runtime = started_runtime()
        runtime.close()
        runtime.close()

    def test_measure_returns_result_and_seconds(self):
        result, seconds = LocalRuntime(1).measure(lambda: 41 + 1)
        assert result == 42
        assert seconds >= 0.0
