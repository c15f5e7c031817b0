"""One fault vocabulary for both backends (paper Section X, Fig 13).

A :class:`FaultSchedule` says *what fails when*: scripted
:class:`FaultEvent`\\ s plus an optional seeded Poisson background on
the **round axis** (exponential inter-arrival with mean ``mtbf_rounds``;
per arrival a uniform kind and a uniform victim).  It is a pure
function of its arguments — the same schedule names the same strikes on
every run and on every backend — and trainers take it as ``failures=``.

What a :class:`FaultKind` *means* is the backend's business, not the
caller's: :data:`SUPPORTED_KINDS` says which kinds each backend can
make happen, ``docs/faults.md`` what physically happens and what it
costs.  A kind a backend cannot inject is a
:class:`~repro.errors.ConfigurationError` when the trainer is built
(:meth:`FaultSchedule.validate`), never a surprise in round ``t``.  The
simulated fabric's stragglers are a cost-model input, not scheduled
events: see :class:`repro.sim.StragglerModel`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_in, check_non_negative


class FaultKind(enum.Enum):
    """What fails."""

    TASK = "task"        # a task throws; data and model stay cached
    WORKER = "worker"    # a worker process dies with its model partition
    MASTER = "master"    # the driver dies
    STALL = "stall"      # a worker's handler is delayed (straggler)
    DROP = "drop"        # a worker's next reply frame is lost
    GARBLE = "garble"    # a worker's next reply frame arrives corrupt


#: kinds each backend can make happen
SUPPORTED_KINDS: Dict[str, Tuple[FaultKind, ...]] = {
    "sim": (
        FaultKind.TASK, FaultKind.WORKER, FaultKind.MASTER,
        FaultKind.DROP, FaultKind.GARBLE,
    ),
    "local": (FaultKind.WORKER, FaultKind.STALL, FaultKind.DROP, FaultKind.GARBLE),
}

#: kinds a Poisson background draws from when ``kinds=None``
BACKGROUND_KINDS: Dict[str, Tuple[FaultKind, ...]] = {
    "sim": (FaultKind.TASK, FaultKind.WORKER),
    "local": SUPPORTED_KINDS["local"],
}

#: kinds that lose the victim's next reply; the simulator arms one
#: retransmit on its network (``NetworkModel.lose_next``) for either
REPLY_LOSSES = (FaultKind.DROP, FaultKind.GARBLE)

#: where to turn when a backend cannot inject a kind
_ON_SIM = "run it on backend='sim'"
_ALTERNATIVE: Dict[FaultKind, str] = {
    FaultKind.TASK: _ON_SIM,
    FaultKind.MASTER: _ON_SIM,
    FaultKind.STALL: "run it on backend='local', or on the simulated fabric "
    "use repro.sim.StragglerModel (straggler=)",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at the top of round ``iteration``, on ``worker``.

    ``worker`` is ignored for MASTER faults; ``stall_s`` is the handler
    delay of a STALL (ignored by the other kinds).
    """

    iteration: int
    kind: FaultKind
    worker: Optional[int] = None
    stall_s: float = 0.0

    def __post_init__(self):
        check_non_negative(self.iteration, "iteration")
        check_non_negative(self.stall_s, "stall_s")
        if not isinstance(self.kind, FaultKind):
            raise ConfigurationError(
                "kind must be a FaultKind, got {!r}".format(self.kind)
            )
        if self.worker is None:
            if self.kind is not FaultKind.MASTER:
                raise ConfigurationError(
                    "{} fault needs a worker".format(self.kind.value)
                )
        elif self.worker < 0:
            raise ConfigurationError(
                "worker must be >= 0, got {}".format(self.worker)
            )


class FaultSchedule:
    """Scripted events plus a seeded Poisson background, by round.

    Parameters
    ----------
    events:
        Fixed :class:`FaultEvent`\\ s (defensive-copied; ``events``
        exposes them as a tuple).
    mtbf_rounds:
        Mean rounds between background faults; ``0`` means scripted
        events only.
    seed:
        Drives arrival rounds, kinds and victims of the background.
    kinds:
        Kinds the background draws uniformly per arrival; ``None`` means
        the backend's :data:`BACKGROUND_KINDS`.
    stall_s:
        Handler delay of background STALL events.

    Trainers call :meth:`validate` once at construction and
    :meth:`events_at` every round.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        mtbf_rounds: float = 0.0,
        seed: int = 0,
        kinds: Optional[Sequence[FaultKind]] = None,
        stall_s: float = 0.05,
    ):
        check_non_negative(mtbf_rounds, "mtbf_rounds")
        check_non_negative(seed, "seed")
        check_non_negative(stall_s, "stall_s")
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    "events must be FaultEvent instances, got {!r}".format(event)
                )
        if kinds is not None:
            kinds = tuple(kinds)
            if not kinds:
                raise ConfigurationError("kinds must name at least one FaultKind")
            for kind in kinds:
                if not isinstance(kind, FaultKind):
                    raise ConfigurationError(
                        "kinds must be FaultKind members, got {!r}".format(kind)
                    )
        self.mtbf_rounds = float(mtbf_rounds)
        self.seed = int(seed)
        self.kinds = kinds
        self.stall_s = float(stall_s)
        #: ``(n_workers, background kinds)`` the background is drawn for
        self._bound: Optional[Tuple[int, Tuple[FaultKind, ...]]] = None
        self._restart()

    def _restart(self) -> None:
        """Forget the drawn background: scripted events only, the
        arrival stream back at its seed."""
        self._due: Dict[int, Tuple[FaultEvent, ...]] = {}
        for event in self.events:
            self._due[event.iteration] = self._due.get(event.iteration, ()) + (event,)
        self._rng = rng_from_seed(self.seed)
        # an empty schedule never looks at its generator again
        self._next_arrival = (
            float(self._rng.exponential(self.mtbf_rounds))
            if self.mtbf_rounds
            else math.inf
        )

    def validate(self, n_workers: int, backend: str) -> None:
        """Check the schedule fits a ``n_workers`` job on ``backend``.

        Every scripted kind and every explicit background kind must be
        one the backend can inject, every victim an existing worker.
        Binds the background to ``(n_workers, kinds)`` and rewinds it.
        """
        check_in(backend, tuple(SUPPORTED_KINDS), "backend")
        used = [event.kind for event in self.events] + list(self.kinds or ())
        for kind in used:
            if kind not in SUPPORTED_KINDS[backend]:
                raise ConfigurationError(
                    "a {} fault cannot be injected on backend={!r} (it "
                    "injects {}): {}".format(
                        kind.name,
                        backend,
                        "/".join(k.name for k in SUPPORTED_KINDS[backend]),
                        _ALTERNATIVE[kind],
                    )
                )
        for event in self.events:
            if event.worker is not None and event.worker >= n_workers:
                raise ConfigurationError(
                    "fault at iteration {} targets worker {} but the job "
                    "has workers 0..{}".format(
                        event.iteration, event.worker, n_workers - 1
                    )
                )
        self._bound = (int(n_workers), self.kinds or BACKGROUND_KINDS[backend])
        self._restart()

    def events_at(self, iteration: int) -> Tuple[FaultEvent, ...]:
        """Faults striking at the top of round ``iteration``: the
        scripted ones, then the background arrivals in ``(iteration-1,
        iteration]``."""
        if self._next_arrival <= iteration:
            self._draw_through(iteration)
        return self._due.get(iteration, ())

    def _draw_through(self, iteration: int) -> None:
        if self._bound is None:
            raise ConfigurationError(
                "a FaultSchedule with a background needs validate(n_workers, "
                "backend) before drawing victims; trainers call it at "
                "construction"
            )
        n_workers, kinds = self._bound
        while self._next_arrival <= iteration:
            strikes_at = math.ceil(self._next_arrival)
            kind = kinds[int(self._rng.integers(len(kinds)))]
            worker = (
                None
                if kind is FaultKind.MASTER
                else int(self._rng.integers(n_workers))
            )
            event = FaultEvent(
                strikes_at,
                kind,
                worker,
                stall_s=self.stall_s if kind is FaultKind.STALL else 0.0,
            )
            self._due[strikes_at] = self._due.get(strikes_at, ()) + (event,)
            self._next_arrival += float(self._rng.exponential(self.mtbf_rounds))
