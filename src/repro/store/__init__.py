"""``repro.store`` — on-disk column-shard store for out-of-core ColumnSGD.

The paper's row→column transformation (Fig 5 / Algorithm 4) normally
runs in memory; this package runs it as a disk shuffle.  A store
directory holds one shard file per worker (that worker's column
sub-vectors, block by block) plus a shared label sidecar, all encoded
with the :mod:`repro.storage.serialization` wire codec so on-disk
record lengths equal a byte model by construction (format v2: a block
piece of one-hot data is a pattern record with no value section, and
every record carries a CRC32 in its footer row).

Pieces
------
:class:`ShuffleWriter`
    streams labelled rows through the transformation under a memory
    budget, producing the shard files out-of-core.
:class:`ShardReader` / :class:`ShardWorksetStore`
    mmap-backed readers; the workset store is the lazy drop-in the
    training loop reads from: worksets are views of the mapping,
    validated on first touch, and a batch copies out only its rows.
:class:`ColumnShardStore` / :func:`store_backed_dispatch`
    the facade the driver calls when ``config.store_dir`` is set; the
    load is charged by :func:`~repro.partition.dispatch.charge_column_load`
    from the footers' block table, so store-backed sim runs stay
    bit-identical.
"""

from repro.store.cache import CacheCounters, STORE_LEDGER, StoreLedger
from repro.store.format import (
    HEADER_BYTES,
    KIND_SHARD,
    KIND_SIDECAR,
    MANIFEST_FILENAME,
    SIDECAR_FILENAME,
    StoreHeader,
    pattern_record_bytes,
    shard_filename,
    shard_record_bytes,
    sidecar_record_bytes,
)
from repro.store.reader import ShardIndex, ShardReader, ShardWorksetStore
from repro.store.store import (
    ColumnShardStore,
    StoreManifest,
    store_backed_dispatch,
)
from repro.store.writer import MemoryMeter, ShuffleWriter

__all__ = [
    "CacheCounters",
    "ColumnShardStore",
    "HEADER_BYTES",
    "KIND_SHARD",
    "KIND_SIDECAR",
    "MANIFEST_FILENAME",
    "MemoryMeter",
    "STORE_LEDGER",
    "SIDECAR_FILENAME",
    "ShardIndex",
    "ShardReader",
    "ShardWorksetStore",
    "ShuffleWriter",
    "StoreHeader",
    "StoreLedger",
    "StoreManifest",
    "pattern_record_bytes",
    "shard_filename",
    "shard_record_bytes",
    "sidecar_record_bytes",
    "store_backed_dispatch",
]
