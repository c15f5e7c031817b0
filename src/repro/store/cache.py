"""Read counters of one shard store and the store-wide read ledger.

A shard-backed store maps its blocks and copies out only the rows a
batch names, so there is no cache to budget: :class:`CacheCounters`
counts first touches, table hits and the bytes both move.  The
module-level :data:`STORE_LEDGER` is charged at the same sites with the
same byte counts, which tests reconcile against the per-store counters
and the footer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.utils.validation import check_non_negative


@dataclass
class CacheCounters:
    """First-touch / table-hit and traffic counters of one shard store."""

    hits: int = 0        # ``get`` calls served from the block table
    misses: int = 0      # first touches: a block mapped and validated
    bytes_read: int = 0  # record bytes of first touches + rows copied out

    def as_dict(self) -> Dict[str, int]:
        """The ``cache_stats()`` keys; mapped views are never evicted."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": 0,
            "bytes_read": self.bytes_read,
            "bytes_evicted": 0,
        }


@dataclass
class StoreLedger:
    """Process-wide record of shard bytes read.

    Always on (a handful of integer adds per first touch and per batch),
    reset per test.  The acceptance reconciliation reads it from the
    master side after a local-backend run — the per-store counters, this
    ledger, and the footer lengths must all tell the same byte story.
    """

    bytes_read: int = 0
    blocks_read: int = 0
    by_worker: Dict[int, int] = field(default_factory=dict)

    def charge_read(self, worker_id: int, n_bytes: int, blocks: int = 1) -> None:
        """``n_bytes`` read for ``worker_id``; ``blocks`` of them first touches."""
        check_non_negative(n_bytes, "n_bytes")
        self.bytes_read += int(n_bytes)
        self.blocks_read += blocks
        self.by_worker[worker_id] = self.by_worker.get(worker_id, 0) + int(n_bytes)

    def reset(self) -> None:
        self.bytes_read = 0
        self.blocks_read = 0
        self.by_worker.clear()


#: the process-wide ledger shard readers charge into.
STORE_LEDGER = StoreLedger()

