"""Row blocks of the source file (Fig 5, Step 1).

A :class:`Block` is a contiguous run of rows of the source dataset, the
unit the master hands to idle workers during row-to-column
transformation (round-robin by block id — see
:func:`repro.partition.dispatch.charge_column_load`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.datasets.dataset import Dataset
from repro.errors import DataError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Block:
    """A contiguous slice ``[start, stop)`` of the source dataset's rows."""

    block_id: int
    start: int
    stop: int

    @property
    def n_rows(self) -> int:
        """Rows contained in this block."""
        return self.stop - self.start

    def materialize(self, dataset: Dataset) -> Dataset:
        """Read the block's rows out of the backing dataset."""
        return dataset.slice(self.start, self.stop)


def split_into_blocks(n_rows: int, block_size: int) -> List[Block]:
    """Cut ``n_rows`` into consecutive blocks of ``block_size`` rows.

    The last block may be short.  Block ids are dense from 0, which the
    two-phase index relies on.
    """
    check_positive(block_size, "block_size")
    if n_rows < 0:
        raise DataError("n_rows must be >= 0, got {}".format(n_rows))
    blocks = []
    start = 0
    block_id = 0
    while start < n_rows:
        stop = min(start + block_size, n_rows)
        blocks.append(Block(block_id, start, stop))
        block_id += 1
        start = stop
    return blocks
