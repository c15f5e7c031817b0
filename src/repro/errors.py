"""Exception hierarchy for the ColumnSGD reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the subsystems:
data handling, partitioning, the cluster simulator, and training.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DataError(ReproError):
    """Raised for malformed datasets or inconsistent dataset arguments."""


class LibsvmFormatError(DataError):
    """Raised when a LIBSVM text line cannot be parsed."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        self.reason = reason
        super().__init__(
            "bad LIBSVM record at line {}: {} ({!r})".format(line_number, reason, line[:80])
        )


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid user-facing configuration (bad ids, ranges,
    mutually inconsistent knobs).

    Subclasses :class:`ValueError` so call sites that predate the typed
    hierarchy keep working.
    """


class PartitionError(ReproError):
    """Raised for invalid partitioning requests (bad worker counts, ...)."""


class DimensionMismatchError(ReproError):
    """Raised when vector/matrix shapes disagree."""

    def __init__(self, expected, actual, what: str = "dimension"):
        self.expected = expected
        self.actual = actual
        super().__init__("{} mismatch: expected {}, got {}".format(what, expected, actual))


class SimulationError(ReproError):
    """Raised by the cluster simulator for protocol violations."""


class WorkerFailedError(SimulationError):
    """Raised when an operation targets a worker that has failed."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        super().__init__("worker {} has failed".format(worker_id))


class MasterFailedError(SimulationError):
    """Raised when the master fails; the whole job must restart."""


class WorkerUnresponsiveError(SimulationError):
    """Raised by the local backend when worker processes died or stayed
    silent past every retry deadline of an exchange.

    ``dead`` lists workers whose host process was gone (EOF/SIGKILL),
    ``silent`` those that simply never answered in time.  Executors
    running the recovery pipeline catch structured
    ``Exchange.failures`` instead; this error is the loud path for
    callers (a plain ``run_all``) without one.
    """

    def __init__(self, op: str, dead=(), silent=()):
        self.op = op
        self.dead = tuple(dead)
        self.silent = tuple(silent)
        parts = []
        if self.dead:
            parts.append("dead worker(s) {}".format(list(self.dead)))
        if self.silent:
            parts.append("silent worker(s) {}".format(list(self.silent)))
        super().__init__(
            "op {!r} lost contact with {}".format(
                op, "; ".join(parts) or "workers"
            )
        )


class OutOfMemoryError(SimulationError):
    """Raised when a simulated node exceeds its memory budget.

    Mirrors the MXNet OOM observed in the paper's Table V at FM F=50.
    """

    def __init__(self, node: str, required_bytes: int, capacity_bytes: int):
        self.node = node
        self.required_bytes = required_bytes
        self.capacity_bytes = capacity_bytes
        super().__init__(
            "{} out of memory: needs {:.2f} GB but has {:.2f} GB".format(
                node, required_bytes / 1e9, capacity_bytes / 1e9
            )
        )


class ProtocolViolationError(SimulationError):
    """Raised by :class:`repro.net.protocol.ProtocolChecker` when a run
    breaks a BSP invariant (unanswered push, message crossing a barrier,
    clock regression, or bytes diverging from the cost model)."""

    def __init__(self, iteration, problems):
        self.iteration = iteration
        self.problems = tuple(problems)
        super().__init__(
            "BSP protocol violated at iteration {}: {}".format(
                iteration, "; ".join(self.problems)
            )
        )


class StatisticsRecoveryError(SimulationError):
    """Raised when backup computation cannot recover complete statistics.

    Happens when every worker in some backup group straggled or failed, so
    at least one group contributed no statistics at all.
    """

    def __init__(self, missing_groups):
        self.missing_groups = tuple(missing_groups)
        super().__init__(
            "cannot recover statistics: no survivor in backup group(s) {}".format(
                list(self.missing_groups)
            )
        )


class TrainingError(ReproError):
    """Raised for invalid training configurations or diverged runs."""
