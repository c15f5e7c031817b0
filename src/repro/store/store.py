"""The column-shard store facade: create, open, read, and dispatch.

A store directory holds::

    manifest.json     dataset + sharding metadata (human-readable)
    shard_0000.col    worker 0's column projections, one record/block
    ...
    labels.col        shared label sidecar, one record/block

:class:`ColumnShardStore` ties the pieces together: ``from_dataset``
shuffles a :class:`~repro.datasets.dataset.Dataset` into shards, ``finish``
publishes a caller's own fed ``ShuffleWriter`` (rows of a LIBSVM file's
:func:`~repro.datasets.libsvm.iter_libsvm`, say), ``open`` reads
back footers + manifest, :meth:`worker_store` hands each worker a lazy
:class:`~repro.store.reader.ShardWorksetStore`, and
:func:`store_backed_dispatch` is what
:meth:`~repro.core.driver.ColumnSGDDriver.load` calls when
``config.store_dir`` is set — identical stores, block layout, and
simulated cost as the in-memory dispatcher, with the data on disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.datasets.dataset import Dataset
from repro.errors import ConfigurationError, DataError
from repro.linalg import CSRMatrix
from repro.partition.column import ColumnAssignment, make_assignment
from repro.partition.dispatch import LoadReport, charge_column_load
from repro.sim.cluster import SimulatedCluster
from repro.store.format import (
    MANIFEST_FILENAME,
    SIDECAR_FILENAME,
    shard_filename,
)
from repro.store.reader import ShardIndex, ShardWorksetStore
from repro.store.writer import ShuffleWriter

MANIFEST_VERSION = 2


@dataclass(frozen=True)
class StoreManifest:
    """Sharding metadata; everything needed to reopen a store."""

    name: str
    n_rows: int
    n_features: int
    nnz: int
    n_workers: int
    scheme: str
    block_size: int
    n_blocks: int
    format_version: int = MANIFEST_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StoreManifest":
        payload = json.loads(text)
        version = payload.get("format_version")
        if version != MANIFEST_VERSION:
            raise DataError(
                "store manifest version {!r}; this reader reads version {}".format(
                    version, MANIFEST_VERSION
                )
            )
        return cls(**payload)


class ColumnShardStore:
    """An on-disk column-shard store, opened read-only."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        manifest: StoreManifest,
        shard_indexes: List[ShardIndex],
        sidecar_index: ShardIndex,
    ):
        self.store_dir = Path(store_dir)
        self.manifest = manifest
        self.shard_indexes = shard_indexes
        self.sidecar_index = sidecar_index
        self._assignment: Optional[ColumnAssignment] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def exists(store_dir: Union[str, Path]) -> bool:
        """True when ``store_dir`` holds a finished store."""
        return (Path(store_dir) / MANIFEST_FILENAME).is_file()

    @classmethod
    def open(cls, store_dir: Union[str, Path]) -> "ColumnShardStore":
        """Open an existing store, validating every file's byte model."""
        store_dir = Path(store_dir)
        manifest_path = store_dir / MANIFEST_FILENAME
        if not manifest_path.is_file():
            raise DataError("no store manifest at {}".format(manifest_path))
        manifest = StoreManifest.from_json(manifest_path.read_text(encoding="utf-8"))
        shard_indexes = [
            ShardIndex.load(store_dir / shard_filename(w))
            for w in range(manifest.n_workers)
        ]
        sidecar_index = ShardIndex.load(store_dir / SIDECAR_FILENAME)
        for index in shard_indexes + [sidecar_index]:
            if index.n_blocks != manifest.n_blocks:
                raise DataError(
                    "{} has {} block(s); manifest says {}".format(
                        index.path.name, index.n_blocks, manifest.n_blocks
                    )
                )
        return cls(store_dir, manifest, shard_indexes, sidecar_index)

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        store_dir: Union[str, Path],
        n_workers: int,
        scheme: str = "round_robin",
        block_size: int = 2048,
        memory_budget_bytes: int = 0,
    ) -> "ColumnShardStore":
        """Shuffle an in-memory dataset into shards, block by block.

        The writer takes the dataset's CSR arrays as they are and cuts
        them into blocks itself (:meth:`ShuffleWriter.add_rows`), so the
        extra footprint beyond the source dataset is one block and its
        K projections, and the shards hold exactly the entries the
        in-memory dispatcher would ship.
        """
        with ShuffleWriter(
            store_dir,
            n_features=dataset.n_features,
            n_workers=n_workers,
            scheme=scheme,
            block_size=block_size,
            memory_budget_bytes=memory_budget_bytes,
            name=dataset.name,
        ) as writer:
            writer.add_rows(dataset.labels, dataset.features)
        return cls.finish(writer)

    @classmethod
    def finish(cls, writer: ShuffleWriter) -> "ColumnShardStore":
        """Close a writer, publish the manifest, and open the result."""
        writer.close()
        manifest = StoreManifest(
            name=writer.name,
            n_rows=writer.n_rows,
            n_features=writer.n_features,
            nnz=writer.total_nnz,
            n_workers=writer.n_workers,
            scheme=writer.scheme,
            block_size=writer.block_size,
            n_blocks=writer.n_blocks,
        )
        manifest_path = writer.store_dir / MANIFEST_FILENAME
        tmp_path = writer.store_dir / (MANIFEST_FILENAME + ".tmp")
        tmp_path.write_text(manifest.to_json(), encoding="utf-8")
        try:
            os.replace(tmp_path, manifest_path)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
        store = cls.open(writer.store_dir)
        store._assignment = writer.assignment
        return store

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def assignment(self) -> ColumnAssignment:
        """The store's column assignment, built once (it is O(m))."""
        if self._assignment is None:
            self._assignment = make_assignment(
                self.manifest.scheme, self.manifest.n_features, self.manifest.n_workers
            )
        return self._assignment

    def block_sizes(self) -> Dict[int, int]:
        """Rows per block — the two-phase index input."""
        return dict(enumerate(self.sidecar_index.table[:, 2].tolist()))

    def worker_store(self, worker_id: int) -> ShardWorksetStore:
        """A lazy shard-backed workset store for one worker."""
        if not 0 <= worker_id < self.manifest.n_workers:
            raise ConfigurationError(
                "worker {} out of range [0, {})".format(
                    worker_id, self.manifest.n_workers
                )
            )
        return ShardWorksetStore(
            worker_id,
            self.assignment().local_dim(worker_id),
            self.shard_indexes[worker_id],
            self.sidecar_index,
        )

    def block_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(block_rows, nnz_by_dest)`` read from the footers — the
        :func:`~repro.partition.dispatch.block_table` of the load that
        wrote this store, so a store-backed load charges what an
        in-memory one does without reading any record."""
        nnz_by_dest = np.stack([index.table[:, 3] for index in self.shard_indexes])
        return self.sidecar_index.table[:, 2], nnz_by_dest

    def total_stored_bytes(self) -> int:
        """Record bytes across all shards + sidecar (headers/footers excluded)."""
        total = self.sidecar_index.header.data_bytes
        for index in self.shard_indexes:
            total += index.header.data_bytes
        return int(total)

    # ------------------------------------------------------------------
    # reassembly (evaluation / verification — not the training path)
    # ------------------------------------------------------------------
    def materialize_dataset(self) -> Dataset:
        """Reassemble the global dataset from shards, sparsely.

        Inverse of the shuffle: per block, every worker's local-id CSR
        piece maps back to global column ids; the concatenated COO
        triples are lexsorted into a global CSR.  Peak memory is one
        dataset — this is the evaluation/verification path, not the
        training path, which never assembles global rows.
        """
        manifest = self.manifest
        assignment = self.assignment()
        columns = [
            assignment.columns_of(w) for w in range(manifest.n_workers)
        ]
        block_rows = self.sidecar_index.table[:, 2]
        row_base = np.zeros(manifest.n_blocks + 1, dtype=np.int64)
        np.cumsum(block_rows, out=row_base[1:])

        stores = [self.worker_store(w) for w in range(manifest.n_workers)]
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        vals_parts: List[np.ndarray] = []
        labels_parts: List[np.ndarray] = []
        for b in range(manifest.n_blocks):
            labels_parts.append(stores[0].get(b).labels)
            for worker_columns, worker_store in zip(columns, stores):
                features = worker_store.get(b).features  # validated views
                local_rows = np.repeat(
                    np.arange(features.n_rows, dtype=np.int64), features.row_nnz()
                )
                rows_parts.append(row_base[b] + local_rows)
                cols_parts.append(worker_columns[features.indices])
                vals_parts.append(features.values())

        n_rows = int(row_base[-1])
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            vals = np.concatenate(vals_parts)
        else:
            rows = np.zeros(0, dtype=np.int64)
            cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0, dtype=np.float64)
        order = np.lexsort((cols, rows))
        counts = np.bincount(rows, minlength=n_rows) if n_rows else np.zeros(0)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        features = CSRMatrix(
            indptr, cols[order], vals[order], manifest.n_features
        )
        labels = (
            np.concatenate(labels_parts)
            if labels_parts
            else np.zeros(0, dtype=np.float64)
        )
        return Dataset(features, labels, name=manifest.name)


def store_backed_dispatch(
    dataset: Dataset,
    cluster: SimulatedCluster,
    store_dir: Union[str, Path],
    scheme: str = "round_robin",
    block_size: int = 2048,
    memory_budget_bytes: int = 0,
) -> Tuple[ColumnShardStore, List[ShardWorksetStore], Dict[int, int], LoadReport]:
    """The store-backed twin of ``dispatch_block_based``.

    Writes the store out-of-core if the directory has none, validates
    the manifest against the job otherwise, charges the identical
    simulated load cost from the footers' block table, and returns lazy
    shard-backed worker stores.
    """
    if ColumnShardStore.exists(store_dir):
        store = ColumnShardStore.open(store_dir)
        _check_manifest(store.manifest, dataset, cluster, scheme, block_size)
    else:
        store = ColumnShardStore.from_dataset(
            dataset,
            store_dir,
            n_workers=cluster.n_workers,
            scheme=scheme,
            block_size=block_size,
            memory_budget_bytes=memory_budget_bytes,
        )
    report = charge_column_load(cluster, *store.block_table())
    stores = [store.worker_store(w) for w in range(cluster.n_workers)]
    return store, stores, store.block_sizes(), report


def _check_manifest(
    manifest: StoreManifest,
    dataset: Dataset,
    cluster: SimulatedCluster,
    scheme: str,
    block_size: int,
) -> None:
    """An existing store must match the job it is loaded into."""
    if manifest.n_workers != cluster.n_workers:
        raise ConfigurationError(
            "store was sharded for {} worker(s); cluster has {}".format(
                manifest.n_workers, cluster.n_workers
            )
        )
    if manifest.scheme != scheme:
        raise ConfigurationError(
            "store uses scheme {!r}; config says {!r}".format(manifest.scheme, scheme)
        )
    if manifest.block_size != block_size:
        raise ConfigurationError(
            "store uses block_size {}; config says {}".format(
                manifest.block_size, block_size
            )
        )
    if (
        manifest.n_rows != dataset.n_rows
        or manifest.n_features != dataset.n_features
        or manifest.nnz != dataset.nnz
    ):
        raise ConfigurationError(
            "store shape ({} rows, {} features, {} nnz) does not match the "
            "dataset ({} rows, {} features, {} nnz)".format(
                manifest.n_rows,
                manifest.n_features,
                manifest.nnz,
                dataset.n_rows,
                dataset.n_features,
                dataset.nnz,
            )
        )
