"""Real-fault tests for the local multiprocess backend.

These tests SIGKILL actual worker processes, stall handlers past their
deadlines, and drop reply frames on the master side — then require the
training job to finish every iteration anyway, recovering through
respawn + on-disk checkpoint restore, with the whole fault pipeline
visible on the engine trace (RecoveryEvent / RetryEvent).

The central invariants:

* **bounded waits** — no transport call blocks past its deadline; dead
  and hung workers surface as structured failures, never as hangs.
* **at-most-once** — retried frames reuse their sequence number and the
  worker replays its cached reply, so a retried ``update`` is never
  applied twice.
* **fault transparency** — stalls, drops, and garbles never change the
  numbers (diff vs the simulator stays exactly 0.0); only a kill that
  escalates to zero-init is allowed to move the trajectory.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.recovery import CheckpointStore, RecoveryPolicy, snapshot_partition
from repro.core.worker import PartitionState
from repro.datasets import make_classification
from repro.errors import (
    ConfigurationError,
    StatisticsRecoveryError,
    WorkerUnresponsiveError,
)
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LogisticRegression
from repro.net.message import MessageKind
from repro.optim import SGD
from repro.runtime import LocalRuntime, TimeoutPolicy
from repro.sim import CLUSTER1, SimulatedCluster
from tests.conftest import hard_bound, hosting

WORKERS = 4
ITERATIONS = 10
BATCH = 32


def scripted(kills=None, stalls=None, drops=(), garbles=()):
    """Exact scenario: ``kills={iteration: worker}``,
    ``stalls={(iteration, worker): seconds}``, ``drops``/``garbles`` as
    ``(iteration, worker)`` pairs."""
    events = [FaultEvent(t, FaultKind.WORKER, w) for t, w in (kills or {}).items()]
    events += [
        FaultEvent(t, FaultKind.STALL, w, stall_s=s)
        for (t, w), s in (stalls or {}).items()
    ]
    events += [FaultEvent(t, FaultKind.DROP, w) for t, w in drops]
    events += [FaultEvent(t, FaultKind.GARBLE, w) for t, w in garbles]
    return FaultSchedule(events)


@pytest.fixture(scope="module")
def data():
    return make_classification(200, 80, nnz_per_row=10, seed=5)


def make_driver(data, *, iterations=ITERATIONS, backend="local",
                recovery=None, failures=None, **extra):
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    config = ColumnSGDConfig(
        batch_size=BATCH,
        iterations=iterations,
        eval_every=5,
        seed=3,
        backend=backend,
        # one OS process per logical worker, so SIGKILLing a worker
        # does not take innocent co-tenants down with it
        local_processes=WORKERS if backend == "local" else 0,
        check_protocol=True,
        **extra,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(0.5), cluster, config=config,
        recovery=recovery, failures=failures,
    )
    driver.load(data)
    return driver


class CrashyProgram:
    """Echo program whose 'die' op SIGKILLs its own host process and
    whose 'inc' op counts invocations (for at-most-once checks)."""

    def __init__(self):
        self.count = 0

    def handle(self, op, args, payload):
        if op == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        if op == "inc":
            self.count += 1
        return {"count": self.count, "pid": os.getpid()}, payload


def started_runtime(timeout, workers=3):
    runtime = LocalRuntime(workers, processes=workers, timeout=timeout)
    runtime.start(hosting({w: CrashyProgram() for w in range(workers)}))
    return runtime


FAST = dict(floor_s=0.4, alpha=3.0)


# ----------------------------------------------------------------------
# deadline-bounded transport (satellite: worker-death paths)
# ----------------------------------------------------------------------
class TestDeadlineTransport:
    def test_sigkill_mid_exchange_surfaces_worker_died(self):
        runtime = started_runtime(TimeoutPolicy(max_retries=1, **FAST))
        try:
            exchange = runtime.run_all("die", workers=[0], raise_on_fault=False)
            assert exchange.dead_workers() == [0]
            assert exchange.failures
            assert 0 in runtime.dead_workers()
            # survivors keep answering
            alive = runtime.run_all("echo", workers=[1, 2])
            assert sorted(alive.replies) == [1, 2]
        finally:
            runtime.close()

    def test_hung_handler_hits_the_deadline(self):
        runtime = started_runtime(TimeoutPolicy(max_retries=1, **FAST))
        try:
            exchange = runtime.run_all(
                "echo",
                stalls={0: 5.0},
                raise_on_fault=False,
            )
            # the process is alive but silent past every deadline
            assert exchange.silent_workers() == [0]
            assert exchange.dead_workers() == []
            assert sorted(exchange.replies) == [1, 2]
            assert exchange.retries >= 1
            assert runtime.dead_workers() == []
        finally:
            runtime.close()

    def test_stale_reply_from_previous_exchange_is_skipped(self):
        """After a timeout the worker eventually finishes its nap and
        writes the old reply; the next exchange must not mistake it for
        its own answer (sequence numbers disambiguate)."""
        runtime = started_runtime(TimeoutPolicy(max_retries=0, **FAST))
        try:
            first = runtime.run_all(
                "echo",
                stalls={0: 1.2},
                raise_on_fault=False,
            )
            assert first.silent_workers() == [0]
            time.sleep(1.4)  # let the stale reply land in the pipe
            second = runtime.run_all("inc", workers=[0])
            assert second.replies[0].result["count"] == 1
        finally:
            runtime.close()

    def test_run_all_raises_structured_error_on_dead_worker(self):
        runtime = started_runtime(TimeoutPolicy(max_retries=0, **FAST))
        try:
            runtime.kill_worker(1)
            with pytest.raises(WorkerUnresponsiveError) as err:
                runtime.run_all("echo")
            assert err.value.dead == (1,)
        finally:
            runtime.close()

    def test_close_returns_with_a_dead_process(self):
        runtime = started_runtime(TimeoutPolicy(max_retries=0, **FAST))
        runtime.kill_worker(2)
        runtime.close()  # must be bounded: no infinite join on the corpse
        runtime.close()  # and idempotent

    def test_respawn_revives_dead_workers(self):
        runtime = started_runtime(TimeoutPolicy(max_retries=0, **FAST))
        try:
            runtime.kill_worker(0)
            assert runtime.dead_workers() == [0]
            seconds = runtime.respawn()
            assert seconds >= 0.0
            assert runtime.dead_workers() == []
            exchange = runtime.run_all("echo")
            assert sorted(exchange.replies) == [0, 1, 2]
        finally:
            runtime.close()


# ----------------------------------------------------------------------
# at-most-once delivery under drop/garble faults
# ----------------------------------------------------------------------
class TestAtMostOnce:
    def test_dropped_reply_is_resent_without_reexecution(self):
        """DROP discards the reply at the master; the deadline expires,
        the frame is resent with the same seq, and the worker replays
        its cached reply — 'inc' runs exactly once."""
        runtime = started_runtime(TimeoutPolicy(max_retries=2, **FAST))
        try:
            runtime.inject_faults(
                [FaultEvent(iteration=0, kind=FaultKind.DROP, worker=0)]
            )
            exchange = runtime.run_all("inc", workers=[0], iteration=0)
            assert exchange.replies[0].result["count"] == 1
            assert exchange.retries >= 1
            again = runtime.run_all("inc", workers=[0])
            assert again.replies[0].result["count"] == 2
        finally:
            runtime.close()

    def test_garbled_reply_accounts_wasted_retry_bytes(self):
        runtime = started_runtime(TimeoutPolicy(max_retries=2, **FAST))
        try:
            runtime.inject_faults(
                [FaultEvent(iteration=0, kind=FaultKind.GARBLE, worker=1)]
            )
            exchange = runtime.run_all(
                "inc", payload=b"x" * 64, workers=[1], iteration=0
            )
            assert exchange.replies[1].result["count"] == 1
            assert exchange.retries >= 1
            assert runtime.network.bytes_of_kind(MessageKind.RETRY) > 0
        finally:
            runtime.close()

    def test_retry_event_lands_on_the_engine_trace(self):
        from repro.engine import EngineTrace

        runtime = started_runtime(TimeoutPolicy(max_retries=2, **FAST))
        runtime.engine_trace = EngineTrace(system="test")
        try:
            runtime.inject_faults(
                [FaultEvent(iteration=7, kind=FaultKind.DROP, worker=0)]
            )
            runtime.run_all("inc", workers=[0], iteration=7)
            events = runtime.engine_trace.round_retries(7)
            assert events
            assert events[0].suspects == (0,)
            assert events[0].resolved == "arrived"
        finally:
            runtime.close()


# ----------------------------------------------------------------------
# the fault schedule, as the local backend binds it
# ----------------------------------------------------------------------
class TestLocalChaos:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            chaos = FaultSchedule(mtbf_rounds=3.0, seed=seed)
            chaos.validate(4, "local")
            return [
                (e.iteration, e.kind, e.worker)
                for t in range(30)
                for e in chaos.events_at(t)
            ]

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_mtbf_produces_poisson_arrivals(self):
        chaos = FaultSchedule(mtbf_rounds=2.0, seed=0)
        chaos.validate(4, "local")
        events = [e for t in range(40) for e in chaos.events_at(t)]
        # 40 rounds at MTBF 2 → ~20 expected; allow wide slack
        assert 5 <= len(events) <= 40
        assert all(0 <= e.worker < 4 for e in events)
        assert {e.kind for e in events} <= {
            FaultKind.WORKER, FaultKind.STALL, FaultKind.DROP, FaultKind.GARBLE
        }
        assert all(
            e.stall_s == (0.05 if e.kind is FaultKind.STALL else 0.0)
            for e in events
        )

    def test_existing_chaos_seeds_strike_where_they_always_did(self):
        """The draw order is frozen — one ``exponential`` up front, per
        arrival ``integers(len(kinds))``, ``integers(n_workers)``,
        ``exponential`` — so committed chaos seeds keep their meaning."""
        chaos = FaultSchedule(
            mtbf_rounds=4.0, seed=11, kinds=(FaultKind.WORKER, FaultKind.STALL)
        )
        chaos.validate(4, "local")
        rng = np.random.default_rng(11)
        arrival, expected = rng.exponential(4.0), []
        while arrival <= 29:
            kind = (FaultKind.WORKER, FaultKind.STALL)[int(rng.integers(2))]
            worker = int(rng.integers(4))
            expected.append((int(np.ceil(arrival)), kind, worker))
            arrival += rng.exponential(4.0)
        assert expected
        assert [
            (e.iteration, e.kind, e.worker)
            for t in range(30)
            for e in chaos.events_at(t)
        ] == expected

    def test_scripted_plan_is_exact(self):
        chaos = scripted(
            kills={3: 1},
            stalls={(4, 0): 0.25},
            drops=[(5, 2)],
            garbles=[(6, 3)],
        )
        chaos.validate(4, "local")
        assert [(e.kind, e.worker) for e in chaos.events_at(3)] == [
            (FaultKind.WORKER, 1)
        ]
        stall = chaos.events_at(4)[0]
        assert (stall.kind, stall.worker, stall.stall_s) == (
            FaultKind.STALL, 0, 0.25,
        )
        assert chaos.events_at(7) == ()

    def test_validate_rejects_out_of_range_victims(self):
        chaos = scripted(kills={0: 9})
        with pytest.raises(ConfigurationError):
            chaos.validate(4, "local")

    @staticmethod
    def construct(failures, processes):
        return ColumnSGDDriver(
            LogisticRegression(), SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
            config=ColumnSGDConfig(backend="local", local_processes=processes),
            failures=failures,
        )

    @pytest.mark.parametrize("failures", [
        scripted(kills={3: 1}),
        FaultSchedule(mtbf_rounds=5.0, seed=1),  # the background's kinds hold WORKER
        FaultSchedule(mtbf_rounds=5.0, seed=1, kinds=[FaultKind.WORKER]),
    ], ids=["scripted", "background", "background-worker"])
    def test_a_kill_with_co_tenants_is_refused_with_its_reason(self, failures):
        with pytest.raises(ConfigurationError, match="co-tenants.*differ from backend='sim'"):
            self.construct(failures, processes=2)

    @pytest.mark.parametrize("processes", [0, WORKERS])
    def test_a_kill_with_one_worker_per_process_constructs(self, processes):
        self.construct(scripted(kills={3: 1}), processes)

    @pytest.mark.parametrize("failures", [
        scripted(stalls={(3, 1): 0.1}),
        scripted(drops=[(3, 1)]),
        scripted(garbles=[(3, 1)]),
        FaultSchedule(mtbf_rounds=5.0, seed=1, kinds=[FaultKind.STALL, FaultKind.DROP]),
    ], ids=["stall", "drop", "garble", "background"])
    def test_faults_that_kill_nothing_share_processes(self, failures):
        self.construct(failures, processes=2)


# ----------------------------------------------------------------------
# the checkpoint store, spilling to disk as the local backend uses it
# ----------------------------------------------------------------------
def record_of(value):
    state = PartitionState(
        partition_id=0, store=None, columns=None,
        params=np.full(3, float(value)), optimizer=SGD(0.5),
    )
    return snapshot_partition(state)


class TestLocalCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(4, 7, record_of(1))
        assert store.has_snapshot(7)
        assert store.last_iteration == 4
        assert store.read(7) == record_of(1)
        assert os.listdir(tmp_path) == ["p00007.ckpt"]

    def test_overwrite_keeps_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(2, 0, record_of(1))
        store.write(4, 0, record_of(2))
        assert store.last_iteration == 4
        assert store.read(0) == record_of(2)
        assert store.writes == 2
        assert store.bytes_written == 2 * len(record_of(1))

    def test_missing_partition_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointStore(str(tmp_path)).read(3)


# ----------------------------------------------------------------------
# end-to-end recovery (the acceptance criterion)
# ----------------------------------------------------------------------
class TestColumnSGDFaultRecovery:
    def test_sigkilled_workers_recover_from_checkpoints(self, data):
        """Two workers SIGKILLed mid-run; training completes all
        iterations, restoring each from its on-disk snapshot."""
        driver = make_driver(
            data,
            sync_policy="retry",
            local_timeout_s=1.0,
            recovery=RecoveryPolicy(checkpoint_every=2),
            failures=scripted(kills={3: 1, 6: 2}),
        )
        result = driver.fit()
        trace = driver.cluster.engine_trace
        recoveries = [(e.round, e.worker, e.mode) for e in trace.recoveries]
        assert recoveries == [(3, 1, "checkpoint"), (6, 2, "checkpoint")]
        assert all(e.kind == "worker" for e in trace.recoveries)
        assert trace.rounds() == list(range(ITERATIONS))
        assert np.isfinite(result.final_loss())
        # the one store both backends use really spilled, and its
        # directory went away with the run
        store = driver.recovery_manager.checkpoints
        assert store.writes > 0
        assert store.directory is not None and not os.path.exists(store.directory)

    def test_kill_without_checkpoint_escalates_to_zero_init(self, data):
        driver = make_driver(
            data,
            sync_policy="retry",
            local_timeout_s=1.0,
            failures=scripted(kills={2: 0}),
        )
        result = driver.fit()
        trace = driver.cluster.engine_trace
        assert [(e.round, e.worker, e.mode) for e in trace.recoveries] == [
            (2, 0, "zero-init")
        ]
        assert trace.rounds() == list(range(ITERATIONS))
        assert np.isfinite(result.final_loss())

    def test_nonlethal_faults_do_not_change_the_numbers(self, data):
        """Stalls, drops, and garbles cost retries and wall-clock time
        but never move the trajectory: the final model matches the
        fault-free simulator bit for bit."""
        reference = make_driver(data, backend="sim").fit()
        driver = make_driver(
            data,
            sync_policy="retry",
            local_timeout_s=1.0,
            recovery=RecoveryPolicy(checkpoint_every=3),
            failures=scripted(
                stalls={(2, 0): 0.05},
                drops=[(4, 3)],
                garbles=[(7, 1)],
            ),
        )
        faulted = driver.fit()
        diff = float(
            np.max(np.abs(faulted.final_params - reference.final_params))
        )
        assert diff == 0.0
        assert driver.cluster.engine_trace.retries  # faults really fired

    def test_chaos_off_is_bit_identical_to_sim(self, data):
        """The full fault machinery (deadlines, retry policy, real
        checkpoint spills) must be numerically invisible when no fault
        fires."""
        reference = make_driver(data, backend="sim").fit()
        local = make_driver(
            data,
            sync_policy="retry",
            recovery=RecoveryPolicy(checkpoint_every=2),
        ).fit()
        diff = float(
            np.max(np.abs(local.final_params - reference.final_params))
        )
        assert diff == 0.0

    def test_mllib_recovers_by_reload(self, data):
        from repro.baselines.registry import make_trainer

        def fit(failures=None):
            cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
            trainer = make_trainer(
                "mllib",
                LogisticRegression(),
                SGD(0.5),
                cluster,
                batch_size=BATCH,
                iterations=ITERATIONS,
                eval_every=5,
                seed=3,
                backend="local" if failures is not None else "sim",
                local_processes=WORKERS if failures is not None else 0,
                local_timeout_s=1.0,
                check_protocol=True,
                failures=failures,
            )
            trainer.load(data)
            return trainer, trainer.fit()

        _, reference = fit()
        trainer, faulted = fit(scripted(kills={2: 1, 5: 3}))
        trace = trainer.cluster.engine_trace
        assert [(e.round, e.worker, e.mode) for e in trace.recoveries] == [
            (2, 1, "reload"), (5, 3, "reload")
        ]
        # the model lives at the master: reload recovery loses nothing
        diff = float(
            np.max(np.abs(faulted.final_params - reference.final_params))
        )
        assert diff == 0.0


def test_a_silent_group_has_no_cache_to_substitute_at_round_0(data):
    """A worker silent past every deadline leaves its group stale.  From
    round 2 on, the master substitutes the group's cached contribution;
    at round 0 there is none yet, and the run raises — where the
    simulator reduces the late statistics instead
    (``tests/test_sync_policies.py``; ROADMAP asks which rule both
    backends should follow)."""

    # The round-2 STALL must end well inside the run.  With no retries,
    # every exchange waits one 0.3 s deadline floor for the silent worker:
    # from round 2 on that is compute and update of rounds 2 and 3, then
    # ``params``, 5 x 0.3 = 1.5 s.  A 1.5 s stall put its ``params`` reply a
    # few ms from the last deadline; 1.0 s wakes the worker 0.5 s (more
    # than one floor) before it.  At round 0 any stall past one floor raises.
    def run(stall_round):
        driver = make_driver(
            data, iterations=4, sync_policy="timeout", local_timeout_s=0.3,
            failures=scripted(stalls={(stall_round, 1): 1.0}),
        )
        return driver, driver.fit()

    with hard_bound(10.0), pytest.raises(
        StatisticsRecoveryError, match=r"group\(s\) \[1\]"
    ):
        run(0)
    with hard_bound(10.0):
        driver, result = run(2)
    trace = driver.cluster.engine_trace
    assert trace.rounds() == [0, 1, 2, 3]
    assert any(e.round == 2 and e.suspects == (1,) for e in trace.retries)
    assert np.isfinite(result.final_loss())


# ----------------------------------------------------------------------
# recovery through the one path: the engine's round, the runtime's exchange
# ----------------------------------------------------------------------
FAULT_ROUND = 4
#: a recovered ColumnSGD partition rolls back to its last snapshot (at
#: most ``checkpoint_every`` rounds stale), so the trajectory tracks the
#: clean one within the chaos soak's margin (tests/test_chaos_soak.py)
LOSS_TOLERANCE = 0.15


def make_mllib(data, failures=None):
    from repro.baselines.registry import make_trainer

    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    trainer = make_trainer(
        "mllib",
        LogisticRegression(),
        SGD(0.5),
        cluster,
        batch_size=BATCH,
        iterations=ITERATIONS,
        eval_every=5,
        seed=3,
        backend="local" if failures is not None else "sim",
        local_processes=WORKERS if failures is not None else 0,
        local_timeout_s=1.0,
        check_protocol=True,
        failures=failures,
    )
    trainer.load(data)
    return trainer


def make_columnsgd(data, failures=None):
    if failures is None:
        return make_driver(data, backend="sim")
    return make_driver(
        data,
        sync_policy="retry",
        local_timeout_s=1.0,
        recovery=RecoveryPolicy(checkpoint_every=2),
        failures=failures,
    )


@pytest.mark.parametrize(
    "make_trainer_for, mode",
    [(make_columnsgd, "checkpoint"), (make_mllib, "reload")],
    ids=["columnsgd", "mllib"],
)
def test_kill_and_stall_in_one_round_recover_through_the_engine(
    data, make_trainer_for, mode
):
    """One worker SIGKILLed and another stalled past the deadline in the
    same round: the engine's round absorbs both through the runtime's
    one death-surviving exchange, under the protocol checker."""
    reference = make_trainer_for(data).fit()
    trainer = make_trainer_for(
        data,
        scripted(kills={FAULT_ROUND: 1}, stalls={(FAULT_ROUND, 2): 1.5}),
    )
    traces = []
    run_round = trainer.run_round

    def spying_run_round(t):
        traces.append(trainer._engine.trace)
        return run_round(t)

    trainer.run_round = spying_run_round
    result = trainer.fit()

    # every episode is on the engine's own trace object, which is the
    # one the cluster exposes — there is no second trace
    trace = trainer.cluster.engine_trace
    assert len(traces) == ITERATIONS
    assert all(seen is trace for seen in traces)
    assert trace.rounds() == list(range(ITERATIONS))
    assert [(e.round, e.worker, e.mode) for e in trace.recoveries] == [
        (FAULT_ROUND, 1, mode)
    ]
    assert trace.retries
    assert all(
        e.round == FAULT_ROUND and e.suspects == (2,) and e.resolved == "arrived"
        for e in trace.retries
    )

    # the faulted round paid for detection, respawn and restore
    durations = {r.iteration: r.duration for r in result.records}
    recovery_s = sum(e.total_s for e in trace.round_recoveries(FAULT_ROUND))
    assert recovery_s > 0.0
    assert durations[FAULT_ROUND] >= recovery_s
    assert durations[FAULT_ROUND] > max(
        d for t, d in durations.items() if t not in (-1, FAULT_ROUND)
    )

    if mode == "reload":
        # the model lives at the master: nothing to lose
        assert float(
            np.max(np.abs(result.final_params - reference.final_params))
        ) == 0.0
    else:
        assert np.isfinite(result.final_loss())
        assert result.final_loss() <= reference.final_loss() + LOSS_TOLERANCE
