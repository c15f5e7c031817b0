"""Typed messages with explicit payload sizes.

Every transfer in the simulator is a :class:`Message`; the event log
records them so tests can assert *exactly* which bytes each system moved
— that is how we validate Table I's communication formulas.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass


class MessageKind(enum.Enum):
    """What a message carries, following the paper's vocabulary."""

    MODEL_PULL = "model_pull"            # RowSGD: worker pulls model w
    GRADIENT_PUSH = "gradient_push"      # RowSGD: worker pushes gradient g
    STATISTICS_PUSH = "statistics_push"  # ColumnSGD: worker pushes partial stats
    STATISTICS_BCAST = "statistics_bcast"  # ColumnSGD: master broadcasts summed stats
    MODEL_AVG = "model_average"          # MLlib*: AllReduce of averaged models
    WORKSET = "workset"                  # data loading: column workset shipment
    BLOCK_ASSIGN = "block_assign"        # data loading: block id assignment
    CONTROL = "control"                  # scheduling / barrier control
    RETRY = "retry"                      # faults: retransmission of a lost/corrupt message
    HEARTBEAT = "heartbeat"              # faults: liveness probe worker -> master
    CHECKPOINT = "checkpoint"            # faults: model-partition checkpoint traffic


@dataclass(frozen=True)
class Message:
    """A single directed transfer.

    ``src``/``dst`` are node ids: worker indices ``0..K-1``, or the
    symbolic ``Message.MASTER`` (= -1) for the master/driver.  A message
    carries a size, never bytes: the simulator needs only ``size_bytes``.
    """

    kind: MessageKind
    src: int
    dst: int
    size_bytes: int

    MASTER = -1

    def __post_init__(self):
        if isinstance(self.size_bytes, bool) or not isinstance(
            self.size_bytes, numbers.Integral
        ):
            raise TypeError(
                "size_bytes must be an integer byte count, got {!r}".format(
                    self.size_bytes
                )
            )
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0, got {}".format(self.size_bytes))
        if self.src == self.dst:
            raise ValueError(
                "self-send: src == dst == {} (no transfer crosses the network)".format(
                    self.src
                )
            )
