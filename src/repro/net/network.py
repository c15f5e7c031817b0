"""The latency + bandwidth link model and traffic accounting."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.net.message import Message, MessageKind
from repro.net.protocol import UNCHECKED_KINDS
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class NetworkModel:
    """Uniform full-duplex links: ``time = latency + bytes / bandwidth``.

    Parameters match the paper's clusters: Cluster 1 is 1 Gbps, Cluster 2
    is 10 Gbps; latency covers RPC round-trip setup (and, for Spark-based
    systems, is folded together with task-launch overhead which lives in
    the compute model instead).

    The model also keeps per-kind and per-node traffic counters, which is
    what the Table I validation tests read back.

    A scheduled DROP / GARBLE (:mod:`repro.faults`) arms a one-shot
    loss on its victim (:meth:`lose_next`): the victim's next message
    of a checked kind is accounted under its own kind as usual, then
    retransmitted once — one :data:`MessageKind.RETRY` copy on the same
    link at the same size, whose transfer time waits in
    :meth:`consume_extra_seconds`.  ``losses`` counts the fired ones.
    """

    bandwidth: float = 1e9 / 8  # bytes/second (1 Gbps default)
    latency: float = 0.5e-3     # seconds per message
    bytes_by_kind: Counter = field(default_factory=Counter, init=False)
    messages_by_kind: Counter = field(default_factory=Counter, init=False)
    bytes_sent_by_node: Counter = field(default_factory=Counter, init=False)
    bytes_received_by_node: Counter = field(default_factory=Counter, init=False)
    log: List[Message] = field(default_factory=list, init=False)
    #: set by :class:`~repro.net.protocol.ProtocolChecker`
    keep_log: bool = field(default=False, init=False)
    losses: int = field(default=0, init=False)
    _armed: Set[int] = field(default_factory=set, init=False, repr=False)
    _pending_extra: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        check_positive(self.bandwidth, "bandwidth")
        check_non_negative(self.latency, "latency")

    # ------------------------------------------------------------------
    def transfer_time(self, size_bytes: int) -> float:
        """Seconds for one message of ``size_bytes`` over one link."""
        check_non_negative(size_bytes, "size_bytes")
        return self.latency + size_bytes / self.bandwidth

    def send(self, message: Message) -> float:
        """Account for a message and return its transfer time."""
        self.bytes_by_kind[message.kind] += message.size_bytes
        self.messages_by_kind[message.kind] += 1
        self.bytes_sent_by_node[message.src] += message.size_bytes
        self.bytes_received_by_node[message.dst] += message.size_bytes
        if self.keep_log:
            self.log.append(message)
        if message.src in self._armed and message.kind not in UNCHECKED_KINDS:
            self._armed.discard(message.src)
            self.losses += 1
            self._pending_extra += self.send(
                Message(MessageKind.RETRY, message.src, message.dst, message.size_bytes)
            )
        return self.transfer_time(message.size_bytes)

    def lose_next(self, node: int) -> None:
        """Arm a one-shot loss of ``node``'s next checked-kind message."""
        self._armed.add(node)

    def consume_extra_seconds(self) -> float:
        """Drain the retransmit seconds accrued since the last drain.

        Communication patterns add this to their returned times; with no
        loss fired it is exactly ``0.0``, which keeps the lossless path
        bit-identical.
        """
        extra, self._pending_extra = self._pending_extra, 0.0
        return extra

    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """All bytes ever sent."""
        return sum(self.bytes_by_kind.values())

    def total_messages(self) -> int:
        """All messages ever sent."""
        return sum(self.messages_by_kind.values())

    def bytes_of_kind(self, kind: MessageKind) -> int:
        """Bytes sent with a given :class:`MessageKind`."""
        return self.bytes_by_kind.get(kind, 0)

    def master_bytes(self) -> int:
        """Bytes the master sent plus received (Table I's master column)."""
        master = Message.MASTER
        return self.bytes_sent_by_node.get(master, 0) + self.bytes_received_by_node.get(master, 0)

    def reset_counters(self) -> None:
        """Zero all counters and drop the log (e.g. between iterations)."""
        self.bytes_by_kind.clear()
        self.messages_by_kind.clear()
        self.bytes_sent_by_node.clear()
        self.bytes_received_by_node.clear()
        self.log.clear()
        self.losses = 0
        self._armed.clear()
        self._pending_extra = 0.0

    def snapshot(self) -> Dict[str, int]:
        """Small summary dict for reports."""
        return {
            "total_bytes": self.total_bytes(),
            "total_messages": self.total_messages(),
            "master_bytes": self.master_bytes(),
        }


def gbps(value: float) -> float:
    """Convert gigabits/second to the model's bytes/second."""
    check_positive(value, "bandwidth in Gbps")
    return value * 1e9 / 8
