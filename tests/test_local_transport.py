"""The local transport cannot hang: size x co-hosting x fault matrix.

``LocalRuntime`` writes a request frame to a worker process only while
that process owes no reply, so the master is never stuck writing to a
process that is itself stuck writing.  These tests drive the shapes
that used to wedge it — large requests *and* large replies, several
logical workers behind one pipe, resends in flight — and every case is
hard-bounded by an interval timer, so a regression fails the case
instead of hanging the suite.
"""

import os
import signal

import numpy as np
import pytest

from repro.baselines.registry import make_trainer
from repro.datasets import make_classification
from repro.engine.trace import EngineTrace
from repro.errors import SimulationError, WorkerUnresponsiveError
from repro.faults import FaultEvent, FaultKind
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.runtime import LocalRuntime, TimeoutPolicy
from repro.runtime.local import MAX_RECOVERY_ROUNDS
from repro.sim import CLUSTER1, SimulatedCluster
from tests.conftest import hard_bound, hosting

BOUND_S = 10.0
PROCESSES = 2
SIZES = {"1kB": 1 << 10, "256kB": 1 << 18, "4MB": 1 << 22}
FLOOR_S, STALL_S = 0.2, 0.3
FAULTS = {
    "none": None,
    "drop": FaultKind.DROP,
    "garble": FaultKind.GARBLE,
    "stall": FaultKind.STALL,
}


class EchoProgram:
    """Reports the request's length, replies with the asked size, and
    remembers the ops it handled, in order."""

    def __init__(self):
        self.handled = []

    def handle(self, op, args, payload):
        self.handled.append(op)
        result = {"request": len(payload or b""), "handled": list(self.handled)}
        return result, bytes(args.get("reply", 0))


def test_mllib_cohosted_wide_model_finishes_and_matches_sim():
    """RowSGD's O(m) frames both ways, two workers behind each pipe: the
    shape that never returned (ROADMAP direction 3's acceptance line)."""
    data = make_classification(400, 100_000, nnz_per_row=10, seed=5)
    final = {}
    for backend in ("sim", "local"):
        trainer = make_trainer(
            "mllib",
            LogisticRegression(),
            SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(4)),
            batch_size=64,
            iterations=3,
            eval_every=0,
            seed=3,
            backend=backend,
            local_processes=PROCESSES,
            local_timeout_s=2.0,
        )
        trainer.load(data)
        with hard_bound(BOUND_S):
            final[backend] = trainer.fit().final_params
    assert float(np.max(np.abs(final["local"] - final["sim"]))) == 0.0


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("per_process", [1, 2, 4])
@pytest.mark.parametrize("reply", sorted(SIZES, key=SIZES.get))
@pytest.mark.parametrize("request_size", sorted(SIZES, key=SIZES.get))
def test_exchange_and_close_stay_inside_the_bound(
    request_size, reply, per_process, fault
):
    workers = PROCESSES * per_process
    runtime = LocalRuntime(
        workers,
        processes=PROCESSES,
        timeout=TimeoutPolicy(floor_s=FLOOR_S, max_retries=2),
    )
    with hard_bound(BOUND_S):
        runtime.start(hosting({w: EchoProgram() for w in range(workers)}))
        if FAULTS[fault] is not None:
            runtime.inject_faults(
                [FaultEvent(0, FAULTS[fault], worker=0, stall_s=STALL_S)]
            )
        exchange = runtime.exchange(
            "echo",
            iteration=0,
            args={"reply": SIZES[reply]},
            payload=bytes(SIZES[request_size]),
            tolerate_silent=True,
        )
        runtime.close()
    assert sorted(exchange.replies) == list(range(workers))
    for answer in exchange.replies.values():
        assert answer.result["request"] == SIZES[request_size]
        assert answer.result["handled"] == ["echo"]
        assert len(answer.payload) == SIZES[reply]
    if FAULTS[fault] is not None:
        assert exchange.retries >= 1


def test_a_silent_workers_next_frame_waits_for_its_late_reply():
    """The outbox is the tail of the pipe.  A worker left silent by a
    tolerated exchange still owes its reply, so its queued resend and
    the next op are written only after that reply is read — and it
    handles the ops in order, the duplicate not at all."""
    runtime = LocalRuntime(
        2, processes=2, timeout=TimeoutPolicy(floor_s=0.15, max_retries=1)
    )
    with hard_bound(BOUND_S):
        runtime.start(hosting({w: EchoProgram() for w in range(2)}))
        runtime.inject_faults([FaultEvent(0, FaultKind.STALL, worker=0, stall_s=0.9)])
        first = runtime.exchange("a", iteration=0, tolerate_silent=True)
        assert first.silent_workers() == [0] and sorted(first.replies) == [1]
        assert first.retries == 1
        sleeper = runtime._hosts[0]
        assert sleeper.owed == 1 and len(sleeper.outbox) == 1  # the resend
        # a deadline the nap cannot reach: "b" must simply wait its turn
        runtime.timeout = TimeoutPolicy(floor_s=BOUND_S)
        second = runtime.exchange("b", iteration=1)
        assert second.retries == 0
        assert second.replies[0].result["handled"] == ["a", "b"]
        assert second.replies[1].result["handled"] == ["a", "b"]
        assert sleeper.owed == 0 and not sleeper.outbox
        runtime.close()


class KeepsItsArgs:
    """Keeps the args object each request handed it (so none is freed and
    its id reused) and replies with that id and its process; raises on
    ``boom`` when ``fails``."""

    def __init__(self, fails=False):
        self.fails, self.kept = fails, []

    def handle(self, op, args, payload):
        self.kept.append(args)
        if op == "boom" and self.fails:
            raise RuntimeError("boom on purpose")
        return {"args": id(args), "pid": os.getpid(), "ops": len(self.kept)}, None


def test_a_processs_workers_share_one_args_object_per_frame():
    """A frame carries the op's args once: every worker a process hosts
    is handed the same object, unpickled once there."""
    runtime = LocalRuntime(4, processes=PROCESSES)
    with hard_bound(BOUND_S):
        runtime.start(hosting({w: KeepsItsArgs() for w in range(4)}))
        exchange = runtime.run_all("look", args={"t": 3, "shape": [4, 2]})
        runtime.close()
    args_of = {}
    for reply in exchange.replies.values():
        args_of.setdefault(reply.result["pid"], set()).add(reply.result["args"])
    assert len(args_of) == PROCESSES
    assert all(len(ids) == 1 for ids in args_of.values())


def test_a_stall_sleeps_before_its_handler_once():
    """``stalls=`` delays the named worker's handler, outside its timed
    seconds, in that exchange only."""
    runtime = LocalRuntime(4, processes=PROCESSES, timeout=TimeoutPolicy(floor_s=BOUND_S))
    with hard_bound(BOUND_S):
        runtime.start(hosting({w: EchoProgram() for w in range(4)}))
        stalled = runtime.run_all("a", stalls={2: STALL_S})
        after = runtime.run_all("b")
        runtime.close()
    assert sorted(stalled.replies) == sorted(after.replies) == list(range(4))
    assert stalled.seconds >= STALL_S > after.seconds
    assert all(reply.seconds < STALL_S for reply in stalled.replies.values())
    assert stalled.retries == after.retries == 0


def test_handler_errors_name_every_failing_worker_after_the_drain():
    """Handler exceptions on workers of both processes are one
    SimulationError naming each of them, raised once every other reply
    of the exchange has been read: no process owes the master a reply,
    and the next exchange reads only its own."""
    runtime = LocalRuntime(4, processes=PROCESSES)
    with hard_bound(BOUND_S):
        runtime.start(hosting({w: KeepsItsArgs(fails=w in (1, 2)) for w in range(4)}))
        with pytest.raises(SimulationError) as err:
            runtime.run_all("boom")
        owed = [host.owed for host in runtime._hosts]
        after = runtime.run_all("look")
        runtime.close()
    message = str(err.value)
    assert "worker 1: RuntimeError: boom on purpose" in message
    assert "worker 2: RuntimeError: boom on purpose" in message
    assert "worker 0" not in message and "worker 3" not in message
    assert owed == [0] * PROCESSES
    assert [after.replies[w].result["ops"] for w in range(4)] == [2] * 4


class DiesOnItsFirstAttempts:
    """SIGKILLs its own process on its first ``deaths`` ops.

    The attempts are counted in a marker file: a respawned process
    starts from a fresh copy of the parent's program, so the program's
    own state would forget every earlier death."""

    def __init__(self, marker, deaths):
        self.marker, self.deaths = marker, deaths

    def handle(self, op, args, payload):
        attempts = self.marker.stat().st_size if self.marker.exists() else 0
        if attempts < self.deaths:
            with open(self.marker, "ab") as marker:
                marker.write(b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        return {"op": op}, None


@pytest.mark.parametrize("deaths", [1, 2, MAX_RECOVERY_ROUNDS])
def test_a_second_kill_inside_the_recovery_rounds(deaths, tmp_path):
    """A worker killed again while it is being recovered is recovered
    again, up to ``MAX_RECOVERY_ROUNDS`` attempts; one death more than
    the rounds allow is a ``WorkerUnresponsiveError`` naming it dead."""
    runtime = LocalRuntime(
        2, processes=2, timeout=TimeoutPolicy(floor_s=FLOOR_S, max_retries=2)
    )
    runtime.engine_trace = EngineTrace()
    with hard_bound(BOUND_S):
        runtime.start(hosting(
            {0: DiesOnItsFirstAttempts(tmp_path / "attempts", deaths), 1: EchoProgram()}
        ))
        try:
            if deaths < MAX_RECOVERY_ROUNDS:
                exchange = runtime.exchange("echo", iteration=0)
            else:
                with pytest.raises(WorkerUnresponsiveError) as raised:
                    runtime.exchange("echo", iteration=0)
        finally:
            runtime.close()
    assert (tmp_path / "attempts").stat().st_size == deaths
    if deaths < MAX_RECOVERY_ROUNDS:
        assert sorted(exchange.replies) == [0, 1]
        assert exchange.replies[0].result == {"op": "echo"}
        assert exchange.replies[1].result["handled"] == ["echo"]
        recoveries = runtime.engine_trace.recoveries
        assert [(e.kind, e.worker) for e in recoveries] == [("worker", 0)] * deaths
    else:
        assert raised.value.dead == (0,)
