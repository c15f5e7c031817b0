"""The local backend: real worker processes, real bytes, wall-clock time.

:class:`LocalRuntime` hosts K *logical* workers on P OS processes
(``multiprocessing``), each process owning its workers' state — for
ColumnSGD, the column partitions themselves.  Exchanges move payloads
produced by the codec in :mod:`repro.storage.serialization`, so the
bytes accounted per :class:`~repro.net.message.Message` are exactly
``len(encode_payload(...))`` — which equals the simulator's byte model
by construction.  Time is *measured*: every exchange is bracketed by a
monotonic counter and the round loop advances the runtime's
:class:`~repro.sim.clock.SimClock` with the measured seconds.

Fault tolerance (the real-process port of ``docs/faults.md``):

* every wait is **deadline-bounded** through the helpers in
  :mod:`repro.runtime.deadline`; the deadline follows the simulator's
  TimeoutSync alpha x median rule over *measured* exchange durations;
* the master **writes to a process only while it owes no reply**
  (:meth:`LocalRuntime._pump`, the one place a pipe is touched), so a
  write never waits on a process that is itself blocked writing;
* requests carry **sequence numbers** and workers replay their
  cached reply on a duplicate, so deadline-expiry resends are
  at-most-once — a retried ``update`` op cannot double-apply a gradient;
* resends are accounted as :data:`~repro.net.message.MessageKind.RETRY`
  traffic exactly like the sim's scheduled lost replies, and each expired
  deadline records a :class:`~repro.engine.trace.RetryEvent`;
* a silent worker becomes a :class:`WorkerTimeout` and a SIGKILLed /
  crashed process a :class:`WorkerDied` in ``Exchange.failures``, or a
  :class:`~repro.errors.WorkerUnresponsiveError` for callers that asked
  ``run_all`` to raise;
* :meth:`LocalRuntime.exchange` is the one death-surviving exchange:
  respawn the dead processes, restore their logical workers, re-issue
  the op to whoever is still missing, bounded attempts, one
  :class:`~repro.engine.trace.RecoveryEvent` per worker.

The engine sequences a local round exactly as on ``sim``; this runtime
owns processes, pipes, measurement (it is the only module allowed to
touch ``time``, lint rule R001), fault injection and recovery
mechanics; the master programs in ``repro.core.localexec`` /
``repro.baselines.localexec`` supply the phase bodies and the restore
step.  Like the simulated cluster it is a substrate (``n_workers``,
``clock``, ``network``, a :class:`~repro.net.topology.StarTopology`);
a comm phase's seconds are the transport remainder of the exchange
that carried its frames (:meth:`Exchange.comm_seconds`), reported on
``ctx.comm_seconds`` in place of the modelled ones.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.trace import RecoveryEvent, RetryEvent
from repro.errors import (
    ConfigurationError,
    SimulationError,
    WorkerUnresponsiveError,
)
from repro.faults import FaultEvent, FaultKind
from repro.net.exchange import Exchange, WorkerDied, WorkerReply, WorkerTimeout
from repro.net.message import Message, MessageKind
from repro.net.network import NetworkModel
from repro.net.topology import StarTopology
from repro.runtime.deadline import (
    TimeoutPolicy,
    join_within,
    recv_command,
    recv_ready,
    wait_ready,
)
from repro.sim.clock import SimClock
from repro.storage.serialization import OBJECT_OVERHEAD_BYTES
from repro.utils.validation import check_non_negative, check_positive

T = TypeVar("T")

_STOP = "__stop__"
#: op a respawned worker's program receives with its restore blob
_RESTORE = "restore"
#: bounded death-recovery attempts per exchange before escalating
MAX_RECOVERY_ROUNDS = 3
#: How worker processes are created.  ``fork`` is the only method any
#: test proves; the ROADMAP's ``spawn`` direction brings back a choice
#: together with its ``spawn`` test, or not at all.
_PROCESS_START = "fork"


@dataclass
class _Host:
    """One worker process as the master sees it."""

    proc: multiprocessing.process.BaseProcess
    conn: object
    #: the logical workers it hosts
    workers: List[int]
    dead: bool = False
    #: replies it has been asked for that the master has not read yet
    owed: int = 0
    #: request frames not yet written, oldest first: the tail of the pipe
    outbox: deque = field(default_factory=deque)

    def bury(self) -> None:
        """The process is gone: nothing is owed, nothing will be written."""
        self.dead, self.owed = True, 0
        self.outbox.clear()


def _process_main(conn, program) -> None:
    """Worker-process loop: one host program's ops for its logical workers.

    A request frame is ``(op, args, payload, [(seq, worker, stall_s),
    ...])`` — one per op for all the hosted workers it targets, the op's
    args and payload once — answered by one ``(seq, worker, result,
    payload, seconds, error)`` reply per request, in order: ``stall_s``
    is slept first (an injected STALL), ``error`` is the text of the
    handler's exception or ``None``.  Each worker's last reply
    is cached by sequence number, and a duplicate request (a master
    resend after a lost or late reply) replays the cache instead of
    re-executing — the at-most-once half of the ARQ, so a retried
    ``update`` cannot double-apply its gradient.  The program's host
    step runs with the frame's first fresh request: its result is every
    handler's ``shared`` argument and its seconds count in that reply; a
    host step that raises is that request's error, and is run again for
    the next.
    """
    last: Dict[int, Tuple[int, tuple]] = {}
    try:
        while True:
            ok, frame = recv_command(conn)
            if not ok:
                break  # master gone (EOF): exit rather than linger
            op, args, payload, requests = frame
            if op == _STOP:
                break
            shared = unrun = object()
            for seq, worker_id, stall_s in requests:
                cached = last.get(worker_id)
                if cached is not None and cached[0] == seq:
                    conn.send(cached[1])
                    continue
                if stall_s > 0.0:
                    time.sleep(stall_s)  # injected straggler (FaultKind.STALL)
                start = time.perf_counter()
                result = reply_payload = error = None
                try:
                    if shared is unrun:
                        shared = program.host_step(op, args, payload)
                    result, reply_payload = program.handle(
                        worker_id, op, args, payload, shared
                    )
                # Not swallowed: the error text travels to the master
                # in the reply frame and run_all raises it there.
                except Exception as exc:  # lint: noqa[R005]
                    error = "{}: {}".format(type(exc).__name__, exc)
                seconds = time.perf_counter() - start
                reply = (seq, worker_id, result, reply_payload, seconds, error)
                last[worker_id] = (seq, reply)
                conn.send(reply)
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class LocalRuntime:
    """Execution substrate backed by real OS processes.

    ``processes=0`` (the default) gives every logical worker its own
    process; smaller values pack contiguous worker ranges into shared
    processes (useful on small machines — the numerics are identical
    either way because each logical worker keeps its own state, and a
    host shares only what its workers would each derive alike).
    ``timeout`` bounds every wait for a reply (see
    :class:`~repro.runtime.deadline.TimeoutPolicy`), and a request is
    written only to a process that owes no reply — one that is reading —
    so no exchange waits on a peer that is itself blocked writing.

    It has the simulated cluster's substrate attributes: ``clock``
    accumulates measured seconds, and ``topology`` accounts the engine's
    comm phases on ``network`` (its modelled seconds are replaced by the
    measured ones the master programs report).
    """

    #: the trace of the :class:`~repro.engine.RoundEngine` driving this
    #: runtime, where it records its retry/recovery episodes
    engine_trace = None

    def __init__(
        self,
        n_workers: int,
        processes: int = 0,
        timeout: Optional[TimeoutPolicy] = None,
    ):
        check_positive(n_workers, "n_workers")
        check_non_negative(processes, "processes")
        self.n_workers = int(n_workers)
        self.n_processes = min(int(processes) or self.n_workers, self.n_workers)
        self.timeout = timeout if timeout is not None else TimeoutPolicy()
        self.clock = SimClock()
        self.network = NetworkModel()
        self.topology = StarTopology(self.network, self.n_workers)
        self._hosts: List[_Host] = []
        #: logical worker -> the process record hosting it
        self._host_of: Dict[int, _Host] = {}
        #: the host program factory given to :meth:`start`, kept for :meth:`respawn`
        self._host_program: Optional[Callable[[List[int]], object]] = None
        #: pending one-shot reply mangling per worker: 'drop' | 'garble'
        self._mangle: Dict[int, str] = {}
        #: pending one-shot handler delay per worker, in seconds
        self._stalls: Dict[int, float] = {}
        self._seq = 0
        self._started = False

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def start(self, host_program: Callable[[List[int]], object]) -> "LocalRuntime":
        """Launch the worker processes, each running the program
        ``host_program(workers)`` returns for the logical workers it hosts.

        A program has ``host_step(op, args, payload) -> shared`` and
        ``handle(worker, op, args, payload, shared) -> (result,
        payload)``; the forked processes inherit it copy-on-write.
        """
        if self._started:
            raise SimulationError("LocalRuntime already started")
        context = multiprocessing.get_context(_PROCESS_START)
        bounds = [
            self.n_workers * i // self.n_processes
            for i in range(self.n_processes + 1)
        ]
        shares = [list(range(bounds[i], bounds[i + 1])) for i in range(self.n_processes)]
        programs = [host_program(hosted) for hosted in shares]  # all built before any fork
        for hosted, program in zip(shares, programs):
            host = _Host(*self._launch(context, program), hosted)
            self._hosts.append(host)
            self._host_of.update((w, host) for w in hosted)
        self._host_program = host_program
        self._started = True
        return self

    def _launch(self, context, program):
        parent_conn, child_conn = context.Pipe(duplex=True)
        proc = context.Process(
            target=_process_main,
            args=(child_conn, program),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def close(self) -> None:
        """Stop and join every worker process (idempotent, bounded)."""
        if not self._started:
            return
        self._refresh_liveness()
        for host in self._hosts:
            host.outbox.clear()
            if host.dead:
                continue
            try:
                # Never waits: every earlier frame was written while the
                # process owed nothing and has since been read whole, so
                # the pipe towards it is empty and this fits.
                host.conn.send((_STOP, None, None, ()))
            except (BrokenPipeError, OSError):
                pass
        # Keep reading while they wind down, so a process still writing
        # a late reply reaches the stop frame; EOF marks each exit.
        give_up = time.perf_counter() + 10.0
        while not all(host.dead for host in self._hosts):
            remaining = give_up - time.perf_counter()
            if remaining <= 0:
                break
            self._pump(remaining)
        for host in self._hosts:
            if not join_within(host.proc, 1.0):
                host.proc.terminate()
                if not join_within(host.proc, 5.0):
                    host.proc.kill()
                    join_within(host.proc, 5.0)
            try:
                host.conn.close()
            except OSError:
                pass
        self._hosts, self._host_of = [], {}
        self._mangle, self._stalls = {}, {}
        self._started = False

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # fault injection and recovery surface
    # ------------------------------------------------------------------
    def _refresh_liveness(self) -> None:
        for host in self._hosts:
            if not host.dead and not host.proc.is_alive():
                host.bury()

    def dead_workers(self) -> List[int]:
        """Logical workers whose host process is currently dead."""
        if not self._started:
            return []
        self._refresh_liveness()
        return sorted(w for host in self._hosts if host.dead for w in host.workers)

    def kill_worker(self, worker: int) -> None:
        """SIGKILL the process hosting ``worker`` (a real crash).

        Every logical worker sharing that process dies with it, exactly
        like a machine loss taking down its hosted partitions.
        """
        if not self._started:
            raise SimulationError("LocalRuntime not started; call start()")
        host = self._host_of.get(worker)
        if host is None:
            raise ConfigurationError("no process hosts worker {}".format(worker))
        if host.proc.is_alive():
            os.kill(host.proc.pid, signal.SIGKILL)
            join_within(host.proc, 5.0)
        host.bury()

    def inject_faults(self, events: Iterable[FaultEvent]) -> None:
        """Apply a fault schedule's events for the coming round.

        WORKER strikes immediately (SIGKILL); DROP/GARBLE arm a one-shot
        mangle of the victim's next reply frame; STALL arms a one-shot
        delay that the next :meth:`exchange` ships in the victim's
        request, so its handler sleeps before working.  The other kinds
        have no real-process meaning (``FaultSchedule.validate`` rejects
        them when the trainer is built).
        """
        for event in events:
            if event.kind is FaultKind.WORKER:
                self.kill_worker(event.worker)
            elif event.kind is FaultKind.STALL:
                self._stalls[event.worker] = float(event.stall_s)
            elif event.kind is FaultKind.DROP:
                self._mangle[event.worker] = "drop"
            elif event.kind is FaultKind.GARBLE:
                self._mangle[event.worker] = "garble"
            else:
                raise ConfigurationError(
                    "a {} fault cannot be injected into real "
                    "processes".format(event.kind.name)
                )

    def respawn(self) -> float:
        """Relaunch every dead process; returns measured seconds.

        The relaunched processes host what the factory given to
        :meth:`start` returns now — programs over the parent's copies,
        whose state is whatever the master last pulled back; a stateful
        trainer then restores them through :meth:`exchange`'s restore
        step.  Live processes are untouched.
        """
        if not self._started:
            raise SimulationError("LocalRuntime not started; call start()")
        start = time.perf_counter()
        self._refresh_liveness()
        context = multiprocessing.get_context(_PROCESS_START)
        for host in self._hosts:
            if not host.dead:
                continue
            try:
                host.conn.close()
            except OSError:
                pass
            host.proc, host.conn = self._launch(context, self._host_program(host.workers))
            host.dead = False
            for w in host.workers:
                self._mangle.pop(w, None)
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # real transport
    # ------------------------------------------------------------------
    def _pump(self, timeout_s: float) -> List[tuple]:
        """Write what may be written, then one bounded read per pipe.

        The only master-side code that touches a worker pipe.  The head
        of a process's outbox is written only while that process owes
        no reply: it has answered everything it was sent, so it is
        reading and the write cannot wait on a peer that is itself
        blocked writing.  Then one bounded wait over every live pipe —
        the master is reading whenever a process writes — and one frame
        read from each ready one.  A pipe error or EOF buries the
        process.  Returns the reply frames read.
        """
        live = [host for host in self._hosts if not host.dead]
        for host in live:
            if host.outbox and not host.owed:
                frame = host.outbox.popleft()
                try:
                    host.conn.send(frame)
                    host.owed = len(frame[3])
                except (BrokenPipeError, OSError):
                    host.bury()
        ready = wait_ready([host.conn for host in live if not host.dead], timeout_s)
        frames = []
        for host in live:
            if host.conn in ready:
                ok, frame = recv_ready(host.conn)
                if ok:
                    host.owed -= 1
                    frames.append(frame)
                else:
                    host.bury()
        return frames

    def run_all(
        self,
        op: str,
        args: Optional[dict] = None,
        payload: Optional[bytes] = None,
        stalls: Optional[Dict[int, float]] = None,
        workers: Optional[Sequence[int]] = None,
        iteration: Optional[int] = None,
        raise_on_fault: bool = True,
    ) -> Exchange:
        """Issue ``op`` to the targeted workers and collect the replies.

        ``payload`` (one blob for everyone — a broadcast) and ``args``
        are shared, written once per process; ``stalls`` maps a targeted
        worker to seconds its handler sleeps first (an injected STALL);
        ``workers`` restricts the exchange to a subset (default: all).
        The exchange is measured wall-clock at the master and every
        wait is deadline-bounded: when the timeout policy's deadline
        expires the request is resent with exponential backoff
        (accounted as RETRY traffic and recorded as a
        :class:`~repro.engine.trace.RetryEvent` under ``iteration``),
        and a worker still silent after ``max_retries`` resends — or
        whose process died — lands in ``Exchange.failures``.  A resend
        is one more frame queued behind whatever its process has not
        been sent yet: nothing queued is dropped or reordered, so a
        worker left silent still handles it before its next op.

        With ``raise_on_fault=True`` (the default) such failures raise
        :class:`~repro.errors.WorkerUnresponsiveError`; :meth:`exchange`,
        which runs the recovery pipeline, passes ``False`` and consumes
        the structured outcomes.  Worker-side exceptions always raise
        :class:`~repro.errors.SimulationError` — after every other
        targeted worker has answered or failed.
        """
        if not self._started:
            raise SimulationError("LocalRuntime not started; call start()")
        start = time.perf_counter()
        self._refresh_liveness()
        targets = (
            list(range(self.n_workers)) if workers is None else sorted(workers)
        )
        unknown = [w for w in targets if not 0 <= w < self.n_workers]
        if unknown:
            raise ConfigurationError("unknown worker(s) {}".format(unknown))
        resend_bytes = OBJECT_OVERHEAD_BYTES + len(payload or b"")
        args, stalls = args or {}, stalls or {}

        requests: Dict[int, tuple] = {}  # worker -> (seq, worker, stall_s)
        pending: Dict[int, int] = {}  # worker -> awaited seq
        failures: Dict[int, object] = {}
        errors: Dict[int, str] = {}
        replies: Dict[int, WorkerReply] = {}
        retries = 0
        retry_log: List[Tuple[int, Tuple[int, ...], float]] = []

        def resend(w: int) -> None:
            nonlocal retries
            self._host_of[w].outbox.append((op, args, payload, [requests[w]]))
            self.network.send(
                Message(MessageKind.RETRY, Message.MASTER, w, resend_bytes)
            )
            retries += 1

        # issue: one frame per process, queued for the pump -----------------
        for host in self._hosts:
            batch = []
            for w in host.workers:
                if w not in targets:
                    continue
                self._seq += 1
                requests[w] = (self._seq, w, stalls.get(w, 0.0))
                if host.dead:
                    failures[w] = WorkerDied(worker=w, op=op)
                else:
                    pending[w] = self._seq
                    batch.append(requests[w])
            if batch:
                host.outbox.append((op, args, payload, batch))

        # collect: deadline-bounded ARQ -----------------------------------
        attempt = 0
        deadline = self.timeout.deadline_s(attempt)
        while pending:
            deadline_end = time.perf_counter() + deadline
            while pending:
                remaining = deadline_end - time.perf_counter()
                if remaining <= 0:
                    break
                for seq, w, result, reply_payload, seconds, error in self._pump(remaining):
                    if pending.get(w) != seq:
                        continue  # stale reply from a prior exchange/resend
                    mangle = self._mangle.pop(w, None)
                    if mangle == "drop":
                        # reply lost in transit: the ARQ timer will resend
                        continue
                    if mangle == "garble":
                        # checksum failure at receipt: account the wasted
                        # arrival and resend immediately
                        self.network.send(
                            Message(
                                MessageKind.RETRY,
                                w,
                                Message.MASTER,
                                OBJECT_OVERHEAD_BYTES + len(reply_payload or b""),
                            )
                        )
                        resend(w)
                        continue
                    del pending[w]
                    if error is not None:
                        errors[w] = error
                        continue
                    replies[w] = WorkerReply(
                        worker=w,
                        result=result,
                        payload=reply_payload,
                        seconds=float(seconds),
                    )
                for w in [w for w in pending if self._host_of[w].dead]:
                    del pending[w]
                    failures[w] = WorkerDied(worker=w, op=op)
            if not pending:
                break
            # deadline expired with stragglers
            retry_log.append((attempt, tuple(sorted(pending)), deadline))
            if attempt >= self.timeout.max_retries:
                self._refresh_liveness()
                for w in sorted(pending):
                    if self._host_of[w].dead:
                        failures[w] = WorkerDied(worker=w, op=op)
                    else:
                        failures[w] = WorkerTimeout(
                            worker=w,
                            op=op,
                            deadline_s=deadline,
                            attempts=attempt + 1,
                        )
                pending.clear()
                break
            attempt += 1
            deadline = self.timeout.deadline_s(attempt)
            for w in pending:
                resend(w)

        # trace + bookkeeping ---------------------------------------------
        if self.engine_trace is not None and iteration is not None:
            for log_attempt, suspects, log_deadline in retry_log:
                resolved = (
                    "arrived"
                    if all(w in replies or w in errors for w in suspects)
                    else "failed"
                )
                self.engine_trace.add_retry(
                    RetryEvent(
                        round=iteration,
                        attempt=log_attempt,
                        suspects=suspects,
                        deadline_s=log_deadline,
                        resolved=resolved,
                    )
                )
        elapsed = time.perf_counter() - start
        if not failures and not retry_log:
            self.timeout.observe(elapsed)
        if errors:
            raise SimulationError(
                "; ".join(
                    "op {!r} failed on worker {}: {}".format(op, w, errors[w])
                    for w in sorted(errors)
                )
            )
        exchange = Exchange(
            replies=replies,
            seconds=elapsed,
            failures=failures,
            retries=retries,
        )
        if failures and raise_on_fault:
            raise WorkerUnresponsiveError(
                op,
                dead=exchange.dead_workers(),
                silent=exchange.silent_workers(),
            )
        return exchange

    def exchange(
        self,
        op: str,
        *,
        iteration: int,
        args: Optional[dict] = None,
        payload: Optional[bytes] = None,
        restore: Optional[Callable[[int], Tuple[str, dict, bytes]]] = None,
        tolerate_silent: bool = False,
    ) -> Exchange:
        """One phase's exchange with every worker, surviving process death.

        Runs ``op`` across all workers (shipping armed STALL delays
        once); on detected death it respawns the dead processes,
        restores their logical workers and re-issues ``op`` to everyone
        still missing — ops are deterministic in ``(seed, iteration)``
        and at-most-once per sequence number, so the re-run is exact.
        The trainer's only say is ``restore(worker) -> (mode, args,
        blob)``: the state a respawned program receives as a
        ``"restore"`` op and where it came from — ``restore`` accounts
        what it ships, this runtime only ships it; ``None`` means a
        forked program is whole as it is (``mode='reload'``).  Each recovered worker is one
        :class:`~repro.engine.trace.RecoveryEvent` on the engine trace,
        and respawn + restore seconds count into the result's seconds.

        Workers alive but silent past every deadline stay in the
        result's ``failures`` when ``tolerate_silent`` and raise
        :class:`~repro.errors.WorkerUnresponsiveError` otherwise, as do
        processes still dying after :data:`MAX_RECOVERY_ROUNDS`.
        """
        replies: Dict[int, WorkerReply] = {}
        seconds = 0.0
        retries = 0
        targets = None
        stalls, self._stalls = self._stalls, {}
        for attempt in range(1, MAX_RECOVERY_ROUNDS + 1):
            ex = self.run_all(
                op,
                args=args,
                payload=payload,
                stalls=stalls,
                workers=targets,
                iteration=iteration,
                raise_on_fault=False,
            )
            replies.update(ex.replies)
            seconds += ex.seconds
            retries += ex.retries
            if not ex.dead_workers():
                break
            if attempt == MAX_RECOVERY_ROUNDS:
                # the last attempt died too: report it dead, not respawned
                raise WorkerUnresponsiveError(
                    op, dead=ex.dead_workers(), silent=ex.silent_workers()
                )
            seconds += self._recover(iteration, ex.seconds, restore)
            targets = sorted(ex.failures)  # everyone still missing
            stalls = None  # injected straggler delays apply once
        if ex.failures and not tolerate_silent:
            raise WorkerUnresponsiveError(op, silent=sorted(ex.failures))
        return Exchange(replies, seconds, dict(ex.failures), retries)

    def _recover(self, iteration: int, detect_s: float, restore) -> float:
        """Respawn the dead processes and restore their logical workers."""
        dead = self.dead_workers()
        respawn_s = self.respawn()
        total = respawn_s
        for w in dead:
            mode, restore_s = "reload", 0.0
            if restore is not None:
                mode, restore_args, blob = restore(w)
                restore_s = self.run_all(
                    _RESTORE,
                    args=restore_args,
                    payload=blob,
                    workers=[w],
                    iteration=iteration,
                ).seconds
            if self.engine_trace is not None:
                self.engine_trace.add_recovery(
                    RecoveryEvent(
                        round=iteration,
                        kind="worker",
                        mode=mode,
                        worker=w,
                        detect_s=detect_s,
                        reload_s=respawn_s / len(dead) + restore_s,
                    )
                )
            detect_s = 0.0  # the episode's detection delay is paid once
            total += restore_s
        return total

    def measure(self, fn: Callable[[], T], elements: int = 0) -> Tuple[T, float]:
        """Run ``fn`` and return ``(result, wall seconds)``.

        The master-side counterpart of worker handler timing: the
        master programs wrap their reduce/update steps in this instead
        of importing ``time`` themselves (wall-clock access stays
        confined to this module).  ``elements`` declares the step's
        dense work for a substrate that models it
        (:meth:`repro.sim.SimulatedCluster.measure`); this one times it.
        """
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


def max_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Measurement lives here because wall-clock and resource probes are
    confined to this module (lint rule R001); the store benchmark uses
    it to demonstrate that out-of-core loading keeps the peak footprint
    below the in-memory shuffle's.  ``ru_maxrss`` is kilobytes on Linux
    and bytes on macOS.
    """
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss if sys.platform == "darwin" else rss * 1024)
