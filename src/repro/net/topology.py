"""Communication patterns composed from point-to-point transfers.

The five systems use three patterns:

* star gather/broadcast between master and K workers (MLlib, ColumnSGD);
* the same gather/broadcast against S parameter servers (Petuum, MXNet)
  — modelled as a star where each server handles 1/S of the bytes;
* ring AllReduce (MLlib*'s model averaging), for which we use the classic
  2(K-1)/K * size bandwidth term.

:class:`StarTopology` implements all three over one
:class:`~repro.net.network.NetworkModel`; every execution substrate (the
simulated cluster and the local runtime alike) owns one, so a comm
phase logs the same messages on either backend.

Times assume the master's NIC is the bottleneck for star patterns (it
sends/receives K messages serially over one link), matching the paper's
argument that multiple PS simply spread the same bytes over more NICs.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.message import Message, MessageKind
from repro.net.network import NetworkModel
from repro.utils.validation import check_non_negative, check_positive


def ring_allreduce_shards(size_bytes: int, n_workers: int) -> Sequence[int]:
    """Per-step message sizes of a 2(K-1)-step ring over an exact split.

    The vector is split into K shards of ``size // K`` bytes with the
    *last* shard taking the remainder, and step ``k`` of the ring moves
    shard ``k % K`` — so the accounted total is exactly
    ``2*(K-1)*(size // K) + size % K`` instead of the silent undercount
    of ``int(size / K)`` per step.  Both backends use this split, which
    is what keeps their byte ledgers comparable.
    """
    check_positive(n_workers, "n_workers")
    check_non_negative(size_bytes, "size_bytes")
    if n_workers == 1:
        return []
    shards = [int(size_bytes) // n_workers] * n_workers
    shards[-1] += int(size_bytes) % n_workers
    return [shards[step % n_workers] for step in range(2 * (n_workers - 1))]


class StarTopology:
    """Master-centred gather and broadcast over a :class:`NetworkModel`."""

    def __init__(self, network: NetworkModel, n_workers: int):
        check_positive(n_workers, "n_workers")
        self.network = network
        self.n_workers = int(n_workers)

    # ------------------------------------------------------------------
    def gather(self, kind: MessageKind, sizes: Sequence[int], servers: int = 1) -> float:
        """Workers -> master; returns time until the *last* byte arrives.

        ``sizes[k]`` is worker k's message size.  Worker uplinks run in
        parallel but the receiving NIC serialises the receives, so the
        gather takes ``latency + sum(sizes)/bandwidth`` — the paper's
        ``K * (message)`` master-side cost.  With ``servers`` = S
        parameter servers the bytes are split evenly across S NICs: the
        total is unchanged (the paper's point), the serialisation is
        divided by S.
        """
        check_positive(servers, "servers")
        total = 0
        for worker_id, size in enumerate(sizes):
            self.network.send(Message(kind, worker_id, Message.MASTER, int(size)))
            total += int(size)
        return (
            self.network.latency
            + total / (servers * self.network.bandwidth)
            + self.network.consume_extra_seconds()
        )

    def broadcast(self, kind: MessageKind, size: int, servers: int = 1) -> float:
        """Master -> all workers; time until the last worker has the data.

        The master pushes K copies through its single uplink; S servers
        each push their model shard, over S uplinks.
        """
        check_positive(servers, "servers")
        for worker_id in range(self.n_workers):
            self.network.send(Message(kind, Message.MASTER, worker_id, int(size)))
        return (
            self.network.latency
            + self.n_workers * int(size) / (servers * self.network.bandwidth)
            + self.network.consume_extra_seconds()
        )

    def allreduce(self, kind: MessageKind, size: int) -> float:
        """Ring AllReduce of ``size`` bytes across the workers.

        Step ``k`` sends shard ``k % K`` from worker ``k % K`` to its
        ring successor, over the exact :func:`ring_allreduce_shards`
        split.  Classic cost: ``2 (K-1)`` steps of latency plus
        ``2 (K-1)/K * size / bandwidth`` (reduce-scatter + all-gather).
        """
        n = self.n_workers
        if n == 1:
            return 0.0
        steps = 2 * (n - 1)
        for step, step_bytes in enumerate(ring_allreduce_shards(int(size), n)):
            self.network.send(Message(kind, step % n, (step + 1) % n, step_bytes))
        return (
            steps * self.network.latency
            + steps * (size / n) / self.network.bandwidth
            + self.network.consume_extra_seconds()
        )
