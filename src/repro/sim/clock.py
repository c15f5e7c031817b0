"""The round clock every execution substrate keeps."""

from __future__ import annotations

from repro.utils.validation import check_non_negative


class SimClock:
    """Monotone time in seconds.

    Trainers advance it by the duration of each BSP phase — simulated
    on the simulated cluster, measured on a
    :class:`~repro.runtime.LocalRuntime`; convergence recorders read it
    to put "seconds" on the x-axis of Fig 8-style curves.
    """

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time.

        Negative advances are protocol errors (a phase cannot take
        negative time), so they raise.
        """
        if seconds < 0:
            raise ValueError("cannot advance clock by negative time {}".format(seconds))
        self._now += float(seconds)
        return self._now

    def reset(self, to: float = 0.0) -> None:
        """Rewind for a fresh run."""
        check_non_negative(to, "to")
        self._now = float(to)

    def __repr__(self) -> str:
        return "SimClock(t={:.6f}s)".format(self._now)
