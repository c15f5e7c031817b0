"""Measure one workload in this process, from outside the program.

Phases of a run (all timing is ``perf_counter`` around public calls):

1. generate the input from the seed, hash it, reset the RSS high-water;
2. **setup** — ``driver.load`` (+ ``make_local_runtime``/``start`` on
   the local backend), repeated and reported as the median;
3. **check** — a fixed number of rounds from the initial model; their
   full-train loss is the run's comparable output.  Doubles as warm-up;
4. **timed** — rounds until the time budget is spent.  The traced run
   alternates blocks of rounds with the wrappers installed (per-layer
   numbers) and removed (the tracing-overhead baseline);
5. **control** — pair workloads re-run the check rounds on the
   sim/in-memory control and compare losses.  Runs last, after peak RSS
   is read, so the control's memory stays out of the numbers.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.localexec import make_local_runtime, run_local_columnsgd
from repro.core.results import TrainingResult
from repro.linalg import OP_COUNTERS
from repro.sim import CLUSTER1, SimulatedCluster
from repro.storage.serialization import OBJECT_OVERHEAD_BYTES
from repro.store import STORE_LEDGER

from trace import KERNELS, Summary, Tracer, install_round_targets, install_setup_targets
from workloads import (
    K, LOCAL_PROCESSES, WORKLOADS, Workload, checksum, generate, store_budget_bytes,
)

SETUP_REPEATS = 5
#: rounds of the traced segment the exact-count metrics are taken over
COUNT_ROUNDS = 10
#: share of the timed rounds, fastest first, the time metrics are read from
QUIET_SHARE = 0.1
#: run_local_columnsgd calls the local backend's time budget is split into
LOCAL_CALLS = 2
#: blocks (traced, untraced, ...) the local backend's traced run is cut into
LOCAL_TRACE_BLOCKS = 8
PAIR_TOLERANCE = 1e-9
TARGET_SLACK = 1.01
#: local-backend round durations count only if they explain the wall time
WALL_TOLERANCE = 0.1
#: ``--quick``: rows / QUICK_DIVISOR and this many check rounds
QUICK_DIVISOR = 10
QUICK_CHECK_ROUNDS = 5

# metric name -> unit, as BENCHMARK.json declares them
_SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# ----------------------------------------------------------------------
# process-tree memory
# ----------------------------------------------------------------------
def _status_kb(pid, key: str) -> int:
    with open("/proc/{}/status".format(pid), encoding="ascii") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def reset_rss_high_water() -> None:
    """Forget the generator's footprint so the peak is the program's."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as knob:
            knob.write("5")
    except OSError:
        pass  # the peak then includes input generation


def tree_peak_rss_mb() -> float:
    """High-water RSS of this process plus its live worker processes."""
    pids = ["self"] + [child.pid for child in multiprocessing.active_children()]
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------
@dataclass
class Session:
    """A loaded driver (and started runtime) ready for its first round."""

    workload: Workload
    driver: ColumnSGDDriver
    runtime: object = None
    store_dir: str = ""
    setup_s: float = 0.0
    start_s: float = 0.0

    @property
    def network(self):
        """The byte counters this backend's rounds are accounted on."""
        return (self.runtime or self.driver.cluster).network

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
        if self.store_dir:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def build_driver(workload: Workload, dataset, seed: int, backend: str,
                 store_dir: str = "") -> ColumnSGDDriver:
    knobs = dict(batch_size=workload.batch_size, eval_every=0, seed=seed, backend=backend)
    if backend == "local":
        knobs["local_processes"] = LOCAL_PROCESSES
    if store_dir:
        knobs["store_dir"] = store_dir
        knobs["memory_budget_bytes"] = store_budget_bytes(
            dataset, ColumnSGDConfig().block_size)
    return ColumnSGDDriver(
        workload.make_model(),
        workload.make_optimizer(),
        SimulatedCluster(CLUSTER1.with_workers(K)),
        config=ColumnSGDConfig(**knobs),
    )


def set_up(workload: Workload, dataset, seed: int, work_dir: Path,
           after_load: Callable[[], None] = lambda: None) -> Session:
    """"Dataset in memory" -> "first round can start", timed."""
    store_dir = tempfile.mkdtemp(dir=work_dir) if workload.store else ""
    driver = build_driver(workload, dataset, seed, workload.backend, store_dir)
    session = Session(workload, driver, store_dir=store_dir)
    begin = perf_counter()
    driver.load(dataset)
    loaded = perf_counter()
    after_load()
    if workload.backend == "local":
        forking = perf_counter()
        session.runtime, programs = make_local_runtime(driver)
        session.runtime.start(programs)
        session.start_s = perf_counter() - forking
    session.setup_s = (loaded - begin) + session.start_s
    return session


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class Rounds:
    """Durations (seconds) of a run of rounds and which of them failed."""

    durations: np.ndarray
    wall_s: float
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    @classmethod
    def none(cls) -> "Rounds":
        return cls(np.empty(0), 0.0)

    @property
    def n(self) -> int:
        return int(self.durations.size)

    def extend(self, other: "Rounds") -> "Rounds":
        return Rounds(
            np.concatenate([self.durations, other.durations]),
            self.wall_s + other.wall_s,
            self.failed + other.failed,
            self.notes + other.notes,
        )


def round_bytes(workload: Workload) -> int:
    """Table I, ColumnSGD row: K pushes + K broadcasts of B x width values."""
    width = workload.make_model().statistics_width
    return 2 * K * (OBJECT_OVERHEAD_BYTES + 8 * workload.batch_size * width)


def sim_rounds(session: Session, first: int, stop: Callable[[int, float], bool]) -> Rounds:
    """``driver.run_round(t)`` for t = first, first+1, ... until ``stop(n, now)``."""
    driver, network = session.driver, session.network
    expected = round_bytes(session.workload)
    marks = [perf_counter()]
    failed, notes, n = 0, [], 0
    bytes_before = network.total_bytes()
    while not stop(n, marks[-1]):
        outcome = driver.run_round(first + n)
        marks.append(perf_counter())
        n += 1
        if len(outcome.chosen) != K or outcome.killed:
            failed += 1
            notes.append("round {}: {} of {} workers replied".format(
                first + n - 1, len(outcome.chosen), K))
    moved = network.total_bytes() - bytes_before
    if moved != n * expected:
        failed = n
        notes.append("wire bytes {} != closed form {}".format(moved, n * expected))
    return Rounds(np.diff(marks), marks[-1] - marks[0], failed, notes)


def local_rounds(session: Session, n: int) -> Rounds:
    """One ``run_local_columnsgd`` call of ``n`` rounds (t = 0 .. n-1)."""
    driver, workload = session.driver, session.workload
    result = TrainingResult(
        system="ColumnSGD", model=driver.model.name, dataset="bench",
        batch_size=workload.batch_size, n_workers=K,
    )
    begin = perf_counter()
    run_local_columnsgd(driver, n, result, runtime=session.runtime)
    wall = perf_counter() - begin
    durations = np.asarray([record.duration for record in result.records])
    bad = {event.round for event in session.runtime.engine_trace.retries}
    bad |= {
        record.iteration for record in result.records
        if record.bytes_sent != round_bytes(workload)
    }
    notes = ["rounds with retries or off-model bytes: {}".format(sorted(bad))] if bad else []
    failed = len(bad)
    if len(result.records) != n:
        failed = n
        notes.append("{} of {} rounds recorded".format(len(result.records), n))
    return Rounds(durations, wall, failed, notes)


def run_rounds(session: Session, first: int, seconds: float, estimate_s: float,
               check_wall: bool) -> Rounds:
    """Rounds for ``seconds`` of wall time (at least COUNT_ROUNDS of them)."""
    deadline = perf_counter() + seconds
    if session.workload.backend != "local":
        return sim_rounds(
            session, first, lambda n, now: n >= COUNT_ROUNDS and now >= deadline)
    # run_local_columnsgd takes a round count (and restarts t at 0) and ends
    # with a parameter sync of ~0.1 s that belongs to no round, so the budget
    # is spent in a few long calls, each sized from the rounds before it
    rounds = Rounds.none()
    for calls_left in range(LOCAL_CALLS, 0, -1):
        budget = (deadline - perf_counter()) / calls_left
        rounds = rounds.extend(
            local_rounds(session, max(COUNT_ROUNDS, int(budget / estimate_s))))
        estimate_s = rounds.wall_s / rounds.n
    # the round durations are the runtime's own; they count only if they
    # explain the bench's wall time around the calls (--quick calls are too
    # short for the sync to stay under the tolerance)
    if check_wall and rounds.wall_s - rounds.durations.sum() > WALL_TOLERANCE * rounds.wall_s:
        rounds.failed = rounds.n
        rounds.notes.append("round durations sum to {:.3f}s of {:.3f}s wall".format(
            rounds.durations.sum(), rounds.wall_s))
    return rounds


def quiet_rounds(rounds: Rounds, batch_size: int) -> Dict[str, float]:
    """``round_ms_p05`` and ``rows_per_s`` from the fastest tenth of the rounds.

    Noise on a shared box only ever slows a round down, and it comes at
    every scale from single rounds to minutes, so no contiguous window
    of a run is reliably clean while its fastest rounds are: as with
    ``timeit``'s best-of-N, the fast end of the distribution is what
    repeats from run to run.  ``round_ms_p05`` is the median of the
    fastest QUIET_SHARE of the rounds (the 5th percentile of all of
    them); ``rows_per_s`` is the rate over those same rounds, mean-based
    and with the time between rounds spread over them.
    """
    quiet = np.sort(rounds.durations)[:max(1, int(rounds.n * QUIET_SHARE))]
    # between-round time (loop overhead, end-of-call syncs) counts as round time
    scale = rounds.wall_s / rounds.durations.sum()
    return {
        "round_ms_p05": float(np.median(quiet)) * 1e3,
        "rows_per_s": batch_size * quiet.size / (quiet.sum() * scale),
    }


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_outputs(workload: Workload, seed: int, initial_loss: float,
                  check_loss: float, final_loss: float,
                  pair_loss: Optional[float]) -> List[str]:
    """Quality target + pair invariant; returns the failures (empty = ok)."""
    problems = []
    for label, loss in (("check", check_loss), ("final", final_loss)):
        if not np.isfinite(loss) or loss >= initial_loss:
            problems.append("{} loss {} not below initial {}".format(
                label, loss, initial_loss))
    reference = workload.ref_check_loss.get(seed)
    if reference is not None:
        target = reference * TARGET_SLACK
        print("  check loss {!r}: drift from ref_check_loss {:+.3e}, target <= {:.6f}".format(
            check_loss, check_loss - reference, target))
        if check_loss > target:
            problems.append("check loss {} above target {}".format(check_loss, target))
    else:
        print("  check loss {!r}: no reference pinned for seed {} (to pin: "
              "ref_check_loss[{}] = {!r})".format(check_loss, seed, seed, check_loss))
    if pair_loss is not None:
        gap = abs(check_loss - pair_loss) / abs(pair_loss)
        print("  control {} check loss {!r}: relative gap {:.1e}".format(
            workload.pair, pair_loss, gap))
        if gap > PAIR_TOLERANCE:
            problems.append("check loss {} != {} of control {}".format(
                check_loss, pair_loss, workload.pair))
    return problems


# ----------------------------------------------------------------------
# per-layer metrics from the traced segment
# ----------------------------------------------------------------------
def layer_metrics(session: Session, tracer: Tracer, traced_ids: List[int], traced: Rounds,
                  counts: Dict[str, float], stores: list,
                  pair_round_ms: float) -> Dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never enters reads 0."""
    workload = session.workload
    summary = Summary(tracer, traced_ids)
    spans_s = np.asarray(tracer.ends) - np.asarray(tracer.starts)

    def median(name: str, value: str = "dur") -> float:
        return float(np.median(summary.per_round(name, value)))

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["partition.indexing.sample_ms"] = median("partition.indexing.sample")
    metrics["partition.workset.assemble_ms"] = median("partition.workset.assemble")
    metrics["partition.workset.assemble_self_ms"] = median("partition.workset.assemble", "self")
    assemble_s = summary.per_round("partition.workset.assemble").sum() / 1e3
    if assemble_s:
        metrics["partition.workset.assemble_rows_per_s"] = (
            summary.per_round("partition.workset.assemble", "rows").sum() / assemble_s)
    metrics["linalg.csr.take_rows_ms"] = median("linalg.csr.take_rows")
    metrics["linalg.csr.take_rows_calls"] = summary.calls("linalg.csr.take_rows", COUNT_ROUNDS)
    metrics["linalg.csr.vstack_ms"] = median("linalg.csr.vstack")
    kernel_ms = {k: summary.per_round("linalg.ops." + k) for k in KERNELS}
    metrics["linalg.ops.row_dots_ms"] = float(np.median(
        kernel_ms["row_dots"] + kernel_ms["row_dots_squared"]))
    metrics["linalg.ops.accumulate_ms"] = float(np.median(
        kernel_ms["accumulate_rows"] + kernel_ms["accumulate_rows_squared"]))
    metrics["linalg.ops.flops_per_round"] = counts["flops"]
    kernel_s = sum(ms.sum() for ms in kernel_ms.values()) / 1e3
    if kernel_s:
        metrics["linalg.ops.nnz_per_s"] = sum(
            summary.per_round("linalg.ops." + k, "nnz").sum() for k in KERNELS) / kernel_s
    metrics["models.statistics_ms"] = median("models.statistics")
    metrics["models.statistics_self_ms"] = median("models.statistics", "self")
    metrics["models.gradient_ms"] = median("models.gradient")
    metrics["models.gradient_self_ms"] = median("models.gradient", "self")
    metrics["optim.step_ms"] = median("optim.step")
    metrics["core.master.reduce_ms"] = median("core.master.reduce")
    metrics["engine.overhead_ms"] = median("core.driver.run_round", "self")

    # seconds each worker spent per round, (rounds, K)
    per_worker = np.zeros((traced.n, K))
    if workload.backend == "local":
        # workers run in other processes: their time is what the runtime
        # reports (WorkerReply.seconds), one exchange per op per round
        exchange_ms, hidden_ms = np.zeros(traced.n), np.zeros(traced.n)
        for op in ("compute", "update"):
            name = "runtime.local.run_all." + op
            seconds = np.asarray(
                [tracer.attrs[int(i)]["worker_s"] for i in summary.spans(name)])
            per_worker += seconds
            metrics["core.worker.{}_ms".format(op)] = float(
                np.median(seconds.sum(axis=1)) * 1e3)
            metrics["core.worker.{}_max_ms".format(op)] = float(
                np.median(seconds.max(axis=1)) * 1e3)
            exchange_ms += summary.per_round(name)
            hidden_ms += seconds.max(axis=1) * 1e3
            metrics["runtime.local.retries"] += summary.per_round(name, "retries").sum()
        metrics["runtime.local.exchange_ms"] = float(np.median(exchange_ms))
        metrics["runtime.local.wait_ms"] = float(np.median(exchange_ms - hidden_ms))
        metrics["runtime.local.wire_bytes_per_round"] = counts["wire_bytes"]
        metrics["runtime.local.start_s"] = session.start_s
        metrics["runtime.local.parallel_speedup"] = (
            pair_round_ms / counts["untraced_round_ms"])
        for op in ("encode", "decode"):
            name = "storage.serialization." + op
            metrics[name + "_ms"] = median(name)
            metrics["storage.serialization.bytes_per_round"] += median(name, "bytes")
        metrics["core.localexec.loop_overhead_ms"] = (
            (traced.wall_s - traced.durations.sum()) / traced.n * 1e3)
    else:
        for op in ("compute", "update"):
            name = "core.worker." + op
            metrics[name + "_ms"] = median(name)
            metrics[name + "_max_ms"] = float(np.median(summary.per_round_max(name)))
            idx = summary.spans(name)
            workers = [tracer.attrs[int(i)]["worker"] for i in idx]
            np.add.at(per_worker, (summary.slots[idx], workers), spans_s[idx])
    metrics["core.worker.imbalance"] = float(
        np.median(per_worker.max(axis=1) / per_worker.mean(axis=1)))

    if workload.store:
        metrics["store.get_ms"] = median("store.get")
        metrics["store.get_calls"] = summary.calls("store.get", COUNT_ROUNDS)
        metrics["store.decode_ms"] = float(np.median(
            summary.per_round("store.reader.csr_block")
            + summary.per_round("store.reader.labels")))
        stats = [store.cache_stats() for store in stores]
        hits, misses = (sum(s[key] for s in stats) for key in ("hits", "misses"))
        metrics["store.hit_ratio"] = hits / (hits + misses)
        metrics["store.bytes_read_per_round"] = counts["store_bytes"]
        metrics["store.evictions_per_round"] = counts["evictions"]
        shuffle_s = summary.total_ms("store.from_dataset", "self") / 1e3
        metrics["store.shuffle_s"] = shuffle_s
        metrics["store.shuffle_rows_per_s"] = workload.rows / shuffle_s
        metrics["store.open_s"] = summary.total_ms("store.open") / 1e3
    else:
        load_s = summary.total_ms("partition.dispatch.block_based") / 1e3
        metrics["partition.dispatch.load_s"] = load_s
        metrics["partition.dispatch.rows_per_s"] = workload.rows / load_s

    # the base of every share above, and what tracing cost it
    metrics["trace.round_ms_p50"] = float(np.median(traced.durations)) * 1e3
    metrics["trace.overhead_share"] = counts["overhead_share"]
    return metrics


def alternate_blocks(session: Session, tracer: Tracer, stores: list, seconds: float,
                     first: int, estimate_s: float):
    """The traced run's timed phase: blocks of rounds, wrappers on and off in turn.

    Alternating keeps both samples under the same machine noise, so
    they differ by the tracing overhead and not by drift.  Returns
    ``(traced, untraced, traced round ids, counts)``; the exact counts
    come from the first traced block, a fixed set of rounds, so two runs
    of one commit report identical numbers.
    """
    workload, driver = session.workload, session.driver
    local = workload.backend == "local"
    # a local block is one run_local_columnsgd call; its end-of-call
    # parameter sync would swamp ten-round blocks
    block_n = (max(COUNT_ROUNDS, int(seconds / LOCAL_TRACE_BLOCKS / estimate_s)) if local
               else COUNT_ROUNDS)
    halves = {True: Rounds.none(), False: Rounds.none()}
    block_medians: List[float] = []   # traced, untraced, traced, ...
    traced_ids: List[int] = []
    counts: Dict[str, float] = {}
    deadline = perf_counter() + seconds
    t, on = first, True
    while not (halves[True].n and halves[False].n) or perf_counter() < deadline:
        if on:
            install_round_targets(tracer, driver.model, driver.optimizer)
            # local calls restart t at 0: number their rounds consecutively
            tracer.round_base = len(traced_ids) if local else 0
            root = tracer.begin("core.localexec.run_local_columnsgd") if local else None
        if not counts:
            OP_COUNTERS.reset()
            OP_COUNTERS.enable()
            before = (STORE_LEDGER.bytes_read, session.network.total_bytes(),
                      sum(s.cache_stats()["evictions"] for s in stores))
        if local:
            block = local_rounds(session, block_n)
        else:
            block = sim_rounds(session, t, lambda n, now: n >= block_n)
        if not counts:
            OP_COUNTERS.disable()
            counts = {
                "flops": OP_COUNTERS.flops / block_n,
                "store_bytes": (STORE_LEDGER.bytes_read - before[0]) / block_n,
                "wire_bytes": (session.network.total_bytes() - before[1]) / block_n,
                "evictions": (sum(s.cache_stats()["evictions"] for s in stores)
                              - before[2]) / block_n,
            }
        if on:
            if local:
                tracer.end(root)
            tracer.uninstall()
            base = len(traced_ids) if local else t
            traced_ids.extend(range(base, base + block_n))
        halves[on] = halves[on].extend(block)
        block_medians.append(float(np.median(block.durations)))
        t += block_n
        on = not on
    # neighbouring blocks share the machine's mood, so each traced /
    # untraced neighbour ratio is a drift-free sample of the overhead
    ratios = []
    for i in range(len(block_medians) - 1):
        traced_i, untraced_i = (i, i + 1) if i % 2 == 0 else (i + 1, i)
        ratios.append(block_medians[traced_i] / block_medians[untraced_i])
    counts["overhead_share"] = float(np.median(ratios)) - 1.0
    counts["untraced_round_ms"] = min(block_medians[1::2]) * 1e3
    return halves[True], halves[False], traced_ids, counts


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, work_dir: Path, results_dir: Path) -> dict:
    """Run one workload; returns its record (schema: see README.md)."""
    workload = WORKLOADS[name].scaled(QUICK_DIVISOR) if quick else WORKLOADS[name]
    check_n = QUICK_CHECK_ROUNDS if quick else workload.check_rounds
    print("== {} (seed {}, {}{}) ==".format(
        name, seed, "traced" if trace else "timed", ", quick: not comparable" if quick else ""))
    print("  why: " + workload.why)

    dataset = generate(workload, seed)
    digest = checksum(dataset)
    reset_rss_high_water()
    work_dir.mkdir(parents=True, exist_ok=True)

    tracer, stores = Tracer(), []
    setups: List[float] = []
    session = None
    try:
        for _ in range(1 if (trace or quick) else SETUP_REPEATS):
            if session is not None:
                session.close()
                session = None
                gc.collect()
            if trace:
                install_setup_targets(tracer, stores)
            # the wrappers go before workers fork, or every worker process
            # would record spans nobody reads
            session = set_up(workload, dataset, seed, work_dir, after_load=tracer.uninstall)
            setups.append(session.setup_s)
        record = _measure(session, dataset, seed, seconds, trace, check_n, not quick,
                          tracer, stores)
    finally:
        tracer.uninstall()
        OP_COUNTERS.disable()
        if session is not None:
            session.close()

    record.update(
        workload=name, why=workload.why, control=workload.pair, seed=seed, quick=quick,
        traced=trace,
        input_sha256=digest, rows=dataset.n_rows, features=dataset.n_features,
        nnz=dataset.nnz, setup_samples_s=setups,
    )
    if trace:
        tracer.write(results_dir, "{}-seed{}".format(name, seed))
    else:
        record["metrics"]["setup_s"] = float(np.median(setups))
    return record


def _measure(session: Session, dataset, seed: int, seconds: float, trace: bool,
             check_n: int, check_wall: bool, tracer: Tracer, stores: list) -> dict:
    workload, driver = session.workload, session.driver
    initial_loss = driver.evaluate_loss()

    # -- check phase: fixed rounds from the initial model; also the warm-up
    if workload.backend == "local":
        check = local_rounds(session, check_n)
    else:
        check = sim_rounds(session, 0, lambda n, now: n >= check_n)
    check_loss = driver.evaluate_loss()
    # the first rounds after a fork run slow (copy-on-write faults)
    estimate_s = float(np.median(check.durations[-COUNT_ROUNDS:]))

    # -- timed phase ------------------------------------------------------
    if trace:
        traced, untraced, traced_ids, counts = alternate_blocks(
            session, tracer, stores, seconds, check_n, estimate_s)
        timed = traced.extend(untraced)
    else:
        timed = run_rounds(session, check_n, seconds, estimate_s, check_wall)
    final_loss = driver.evaluate_loss()
    peak_rss_mb = tree_peak_rss_mb()

    # -- control: the sim/in-memory twin must reach the same check loss ----
    pair_loss, pair_round_ms = None, 0.0
    if workload.pair is not None:
        control = Session(workload, build_driver(workload, dataset, seed, "sim"))
        control.driver.load(dataset)
        pair = sim_rounds(control, 0, lambda n, now: n >= check_n)
        pair_loss = control.driver.evaluate_loss()
        pair_round_ms = float(np.median(pair.durations)) * 1e3
        check.failed += pair.failed
        check.notes += pair.notes

    problems = check_outputs(workload, seed, initial_loss, check_loss, final_loss, pair_loss)
    if workload.store and not STORE_LEDGER.blocks_read:
        problems.append("the shard store was never read")
    if trace:
        if workload.store:
            cached = sum(s.cache_stats()["bytes_read"] for s in stores)
            if cached != STORE_LEDGER.bytes_read:
                problems.append("cache bytes_read {} != STORE_LEDGER {}".format(
                    cached, STORE_LEDGER.bytes_read))
        metrics = layer_metrics(
            session, tracer, traced_ids, traced, counts, stores, pair_round_ms)
    else:
        metrics = dict(quiet_rounds(timed, workload.batch_size), peak_rss_mb=peak_rss_mb)

    attempted = check.n + timed.n
    return {
        "metrics": metrics,
        "ops_attempted": attempted,
        # a failed output check voids the whole run, not just some rounds
        "ops_failed": attempted if problems else check.failed + timed.failed,
        "problems": problems,
        "round_notes": check.notes + timed.notes,
        "timed_rounds": timed.n,
        "timed_seconds": timed.wall_s,
        "round_ms_p50": float(np.median(timed.durations)) * 1e3,
        "round_ms_p95": float(np.percentile(timed.durations, 95)) * 1e3,
        "initial_loss": initial_loss,
        "check_rounds": check_n,
        "check_loss": check_loss,
        "control_check_loss": pair_loss,
        "control_round_ms_p50": pair_round_ms,
        "final_loss": final_loss,
        "wire_bytes_per_round": round_bytes(workload),
    }
