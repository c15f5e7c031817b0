"""Training results shared by ColumnSGD and every baseline.

A :class:`TrainingResult` is the uniform output of all trainers: the
loss-versus-(iteration, simulated time) curve that regenerates Fig 4(a),
Fig 8 and Fig 13, plus per-iteration timing and traffic for Table IV/V
and Figs 9-11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """One SGD iteration's bookkeeping."""

    iteration: int
    sim_time: float        # simulated clock *after* the iteration (s)
    duration: float        # simulated length of this iteration (s)
    loss: Optional[float]  # full-train loss, when evaluated this iteration
    bytes_sent: int        # network bytes this iteration (all nodes)
    eval_loss: Optional[float] = None  # held-out loss, when tracked


@dataclass
class TrainingResult:
    """Outcome of one training run on one system."""

    system: str
    model: str
    dataset: str
    batch_size: int
    n_workers: int
    records: List[IterationRecord] = field(default_factory=list, init=False)
    final_params: Optional[np.ndarray] = field(default=None, init=False)
    total_sim_time: float = field(default=0.0, init=False)
    notes: str = field(default="", init=False)

    # ------------------------------------------------------------------
    def add(self, record: IterationRecord) -> None:
        """Append one iteration record."""
        self.records.append(record)
        self.total_sim_time = record.sim_time

    @property
    def n_iterations(self) -> int:
        """Completed iterations."""
        return len(self.records)

    def losses(self) -> List[tuple]:
        """``(iteration, sim_time, loss)`` for iterations with a loss eval."""
        return [
            (r.iteration, r.sim_time, r.loss) for r in self.records if r.loss is not None
        ]

    def final_loss(self) -> Optional[float]:
        """Last evaluated training loss."""
        evaluated = self.losses()
        return evaluated[-1][2] if evaluated else None

    def avg_iteration_seconds(self) -> float:
        """Mean simulated per-iteration time (Table IV/V's metric).

        Skips the warm-up iteration (loading/first-touch effects), as
        the paper's averages do.
        """
        durations = [r.duration for r in self.records[1:]]
        if not durations:
            durations = [r.duration for r in self.records]
        return float(np.mean(durations)) if durations else 0.0

    def time_to_loss(self, threshold: float) -> Optional[float]:
        """First simulated time at which train loss <= threshold.

        This is the "horizontal line" comparison of Fig 8.  ``None`` when
        the run never reached the threshold.
        """
        for _, sim_time, loss in self.losses():
            if loss <= threshold:
                return sim_time
        return None

    def eval_losses(self) -> List[tuple]:
        """``(iteration, sim_time, held-out loss)`` where tracked."""
        return [
            (r.iteration, r.sim_time, r.eval_loss)
            for r in self.records
            if r.eval_loss is not None
        ]

    def total_bytes(self) -> int:
        """Total network bytes over the run."""
        return sum(r.bytes_sent for r in self.records)

    def describe(self) -> str:
        """One-line summary for reports."""
        loss = self.final_loss()
        return "{} on {}/{}: {} iters, {:.3f}s sim, loss={}".format(
            self.system,
            self.model,
            self.dataset,
            self.n_iterations,
            self.total_sim_time,
            "{:.4f}".format(loss) if loss is not None else "n/a",
        )
