"""The one training run every system shares.

The paper's comparison (Section V, Tables IV/V) is apples-to-apples
only if every system runs the same loop and differs in its *round*.
The round is declared once, as a :class:`~repro.engine.RoundSpec`;
:class:`Trainer` is everything around it, also once, on either backend.
``docs/engine.md`` walks through writing a trainer against it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.results import IterationRecord, TrainingResult
from repro.datasets.dataset import Dataset
from repro.engine import RoundEngine, RoundOutcome, RoundSpec
from repro.errors import ConfigurationError, TrainingError
from repro.faults import BACKGROUND_KINDS, REPLY_LOSSES, FaultKind, FaultSchedule
from repro.net.protocol import ProtocolChecker
from repro.runtime import BACKENDS
from repro.sim.straggler import StragglerModel
from repro.utils.validation import check_in, check_non_negative, check_positive


@dataclass(frozen=True)
class RunConfig:
    """The run settings every config-driven trainer takes: the batch,
    the loop, the audit and the execution substrate."""

    batch_size: int = 1000
    iterations: int = 100
    eval_every: int = 10          # full-train-loss cadence (0 = never)
    seed: int = 0
    check_protocol: bool = False  # verify BSP invariants every round
                                  # (see repro.net.protocol)
    backend: str = "sim"          # execution substrate: 'sim' runs the
                                  # discrete-event simulator, 'local'
                                  # runs real worker processes with
                                  # measured wall-clock rounds (see
                                  # repro.runtime and docs/runtime.md)
    local_processes: int = 0      # OS processes hosting the K logical
                                  # workers on the local backend
                                  # (0 = one process per worker)
    local_timeout_s: float = 30.0  # deadline floor for local-backend
                                   # exchanges (alpha x median rule, see
                                   # repro.runtime.deadline)

    def __post_init__(self):
        check_positive(self.batch_size, "batch_size")
        check_positive(self.iterations, "iterations")
        check_non_negative(self.eval_every, "eval_every")
        check_non_negative(self.seed, "seed")
        check_in(self.backend, BACKENDS, "backend")
        check_non_negative(self.local_processes, "local_processes")
        check_positive(self.local_timeout_s, "local_timeout_s")


class Trainer:
    """Base of every engine trainer: owns the run, not the round.

    A subclass keeps what is genuinely its own — :meth:`load`,
    :meth:`round_spec` and the executors it names,
    :meth:`evaluate_loss`, :meth:`current_params`,
    :meth:`_result_header` — and sets ``cluster`` plus whichever
    of the attributes below it has a knob for; their class-level values
    are the defaults.  The remaining ``_hooks`` default to "nothing to
    do" (or, for the local backend, "not hosted").
    """

    iterations = 100         #: rounds of a ``fit()`` without ``iterations=``
    eval_every = 10          #: full-train-loss cadence (0 = never)
    check_protocol = False   #: audit every round's traffic (repro.net.protocol)
    backend = "sim"          #: 'sim', or 'local' where the trainer hosts it
    straggler = None         #: per-round slowdowns, where the executors read them
    failures: Optional[FaultSchedule] = None  #: scheduled faults, where a trainer takes them
    #: the started LocalRuntime a ``backend='local'`` trainer's rounds run
    #: on: attached by :meth:`_train` for the length of a run, or assigned
    #: by a caller that drives :meth:`run_round` itself
    local_runtime = None
    #: on that runtime ``master_program(trainer, runtime)`` carries the
    #: spec's executor names in the trainer's place
    master_program = None
    _eval_dataset: Optional[Dataset] = None
    _engine: Optional[RoundEngine] = None

    # ------------------------------------------------------------------
    # what a trainer supplies
    # ------------------------------------------------------------------
    def load(self, dataset: Dataset):
        """Partition ``dataset`` over the cluster and initialise the model."""
        raise NotImplementedError

    def round_spec(self) -> RoundSpec:
        """The trainer's round, declared."""
        raise NotImplementedError

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Full objective on ``dataset`` (default: the training set);
        never charged to the clock."""
        raise NotImplementedError

    def current_params(self) -> np.ndarray:
        """The model as one array, assembled at the master."""
        raise NotImplementedError

    def _result_header(self) -> Dict[str, object]:
        """``system`` / ``model`` / ``dataset`` / ``batch_size`` of the
        :class:`~repro.core.results.TrainingResult` a run fills."""
        raise NotImplementedError

    def _loaded(self) -> bool:
        return self._dataset is not None

    def _make_local_runtime(self) -> Tuple[object, Callable[[List[int]], object]]:
        """``(runtime, host_program)`` hosting this trainer's workers on
        ``backend='local'``, built but not started: ``host_program(workers)``
        is the program of one process's workers."""
        raise ConfigurationError(
            "backend='local' is implemented for ColumnSGD and the MLlib "
            "baseline only; {} is simulator-only".format(type(self).__name__)
        )

    def _local_run(self, runtime) -> ContextManager:
        """Entered around a run on an attached ``runtime``, for state
        that lives exactly that long."""
        return nullcontext()

    def _configure(self, cluster, config: RunConfig, straggler, failures) -> None:
        """Take ``config``'s run settings, the straggler model (none by
        default) and the fault schedule, checked against the cluster and
        the backend.  Only the simulator applies a straggler model."""
        self.cluster = cluster
        self.config = config
        self.iterations = config.iterations
        self.eval_every = config.eval_every
        self.check_protocol = config.check_protocol
        self.backend = config.backend
        if straggler is None:
            straggler = StragglerModel.none(cluster.n_workers)
        elif config.backend == "local" and straggler.mode != "none":
            raise ConfigurationError(
                "straggler models are simulated slowdowns and backend='local' "
                "measures real processes; stall one with a FaultSchedule STALL "
                "event instead"
            )
        self.straggler = straggler
        self.failures = failures if failures is not None else FaultSchedule()
        self.failures.validate(cluster.n_workers, config.backend)
        fired = [event.kind for event in self.failures.events]
        if self.failures.mtbf_rounds:
            fired += self.failures.kinds or BACKGROUND_KINDS[config.backend]
        if config.backend == "local" and FaultKind.WORKER in fired and (
                0 < config.local_processes < cluster.n_workers):
            raise ConfigurationError(
                "a WORKER fault on backend='local' kills its whole process: with "
                "local_processes < workers its co-tenants would be restored too, "
                "and the model would differ from backend='sim'; host one worker "
                "per process (local_processes=0)"
            )

    def _handle_failures(self, t: int) -> float:
        """Top-of-round upkeep; returns the extra seconds.

        The one place its order is decided: **strike, then checkpoint**
        — a worker struck at the top of round ``t`` writes nothing in
        round ``t``, on either backend, so its partitions keep their
        previous snapshot.  On an attached runtime the strike is real:
        the runtime kills now and arms stalls, drops and garbles, and
        the round's exchanges detect, recover and measure them.  On the
        simulator a lost or garbled reply arms one retransmit that the
        round's comm phase pays, and every other event is the trainer's
        :meth:`_strike`.  Runs inside the protocol checker's round
        window, so heartbeat, checkpoint and replay traffic is audited
        (as unchecked kinds) rather than crossing the barrier.
        """
        events = self.failures.events_at(t) if self.failures is not None else ()
        if self.local_runtime is not None:
            self.local_runtime.inject_faults(events)
            extra = 0.0
        else:
            for event in events:
                if event.kind in REPLY_LOSSES:
                    self.cluster.network.lose_next(event.worker)
            extra = self._strike(
                t, [event for event in events if event.kind not in REPLY_LOSSES]
            )
        struck = {event.worker for event in events if event.kind is FaultKind.WORKER}
        return extra + self._checkpoint(t, struck)

    def _strike(self, t: int, events) -> float:
        """Round ``t``'s simulated crashes and task failures, recovered
        and charged in simulated seconds."""
        return 0.0

    def _checkpoint(self, t: int, struck) -> float:
        """Snapshot the model where round ``t`` is due for one, from
        every worker but the round's ``struck`` ones; returns its
        seconds."""
        return 0.0

    def _should_stop(self, result: TrainingResult) -> bool:
        """Consulted after every evaluated round."""
        return False

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: Optional[Dataset] = None,
        iterations: Optional[int] = None,
        eval_dataset: Optional[Dataset] = None,
    ) -> TrainingResult:
        """Train; returns the loss/time trace and the final parameters.

        ``dataset`` is loaded unless something already is; ``iterations``
        defaults to the trainer's configured count.  ``eval_dataset``
        enables held-out loss tracking: every evaluated record also
        carries the loss on that dataset
        (``TrainingResult.eval_losses()``), free of clock time.
        """
        if dataset is not None and not self._loaded():
            self.load(dataset)
        if not self._loaded():
            raise TrainingError("call load() or pass a dataset to fit()")
        self._eval_dataset = eval_dataset
        iterations = iterations if iterations is not None else self.iterations
        check_positive(iterations, "iterations")
        result = TrainingResult(
            n_workers=self.cluster.n_workers, **self._result_header()
        )
        if self.eval_every:
            self._record(result, -1, 0.0, 0, evaluate=True)
        return self._train(iterations, result)

    def _train(self, iterations: int, result: TrainingResult, runtime=None):
        """Run ``iterations`` rounds into ``result`` on the substrate
        :meth:`_attached` yields — anything with a ``clock`` and a
        ``network``: the cluster (modelled seconds) or a local runtime
        (measured ones)."""
        with self._attached(runtime) as substrate:
            self._engine = self._make_engine()
            checker = ProtocolChecker(substrate) if self.check_protocol else None
            for t in range(iterations):
                bytes_before = substrate.network.total_bytes()
                if checker is not None:
                    checker.begin_round(t)
                extra = self._handle_failures(t)
                # late-bound: tracers and tests shadow run_round
                outcome = self.run_round(t)
                duration = extra + outcome.duration
                substrate.clock.advance(duration)
                if checker is not None:
                    checker.end_round(t, expected=outcome.expected)
                bytes_sent = substrate.network.total_bytes() - bytes_before
                evaluate = bool(self.eval_every) and (
                    (t + 1) % self.eval_every == 0 or t == iterations - 1
                )
                self._record(result, t, duration, bytes_sent, evaluate)
                if evaluate and self._should_stop(result):
                    result.notes = "early stop at iteration {}".format(t)
                    break
            result.final_params = self.current_params()
        return result

    @contextmanager
    def _attached(self, runtime=None) -> Iterator[object]:
        """The run's substrate, with worker processes where it needs them.

        ``backend='local'`` with nothing attached: a caller's started
        ``runtime`` is used and left running; with none, what
        :meth:`_make_local_runtime` returns is started here and closed
        afterwards.  Either way it is detached, and the engine dropped,
        when the run ends.
        """
        if self.backend != "local" or self.local_runtime is not None:
            yield self.local_runtime or self.cluster
            return
        owned = runtime is None
        if owned:
            runtime, host_program = self._make_local_runtime()
            runtime.start(host_program)
        # Continue the recorded time axis: load() charged simulated
        # seconds to the cluster clock and the initial eval record carries
        # that offset, so measured rounds must accumulate on top of it.
        runtime.clock.reset(self.cluster.clock.now())
        self.local_runtime = runtime
        try:
            with self._local_run(runtime):
                yield runtime
        finally:
            self.local_runtime = self._engine = None
            if owned:
                runtime.close()

    def _make_engine(self) -> RoundEngine:
        """A fresh engine over :meth:`round_spec`, run by :meth:`_executor`."""
        return RoundEngine(
            self._executor(),
            self.cluster,
            spec=self.round_spec(),
            straggler=self.straggler,
            runtime=self.local_runtime,
        )

    def _executor(self):
        """Who carries the spec's executor names: the trainer itself,
        or on ``backend='local'`` its master program over the attached
        runtime."""
        if self.backend != "local":
            return self
        if self.local_runtime is None:
            raise ConfigurationError(
                "backend='local' rounds run on worker processes and none "
                "are attached: call fit(), or assign a started runtime to "
                "local_runtime"
            )
        return self.master_program(self, self.local_runtime)

    def run_round(self, t: int) -> RoundOutcome:
        """Execute one engine round (public: benches and tests drive it
        directly); does not advance the clock.  On ``backend='local'``
        it runs on the attached worker processes
        (:class:`~repro.errors.ConfigurationError` if none).
        """
        if self._engine is None:
            self._engine = self._make_engine()
        return self._engine.run_round(t)

    def _record(self, result, iteration, duration, bytes_sent, evaluate) -> None:
        """Append one iteration record, stamped on the run's clock (the
        attached runtime's measured one, else the simulated one)."""
        loss = eval_loss = None
        if evaluate:
            loss = self.evaluate_loss()
            if not np.isfinite(loss):
                raise TrainingError(
                    "training diverged at iteration {} (loss={})".format(
                        iteration, loss
                    )
                )
            if self._eval_dataset is not None:
                eval_loss = self.evaluate_loss(self._eval_dataset)
        result.add(
            IterationRecord(
                iteration=iteration,
                sim_time=(self.local_runtime or self.cluster).clock.now(),
                duration=duration,
                loss=loss,
                bytes_sent=bytes_sent,
                eval_loss=eval_loss,
            )
        )
