"""Two-phase mini-batch sampling index (Section IV-A2).

Sampling a row happens in two draws sharing a deterministic per-iteration
seed: first a block id (weighted by block size so rows stay uniform),
then an ordinal offset inside that block.  Because the seed is a pure
function of (base seed, iteration), every worker — and the master —
materialises the identical draw sequence without any communication,
which is what lets column shards of the same logical row line up across
the cluster.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import PartitionError
from repro.utils.rng import iteration_seed, rng_from_seed
from repro.utils.validation import check_positive


def as_draws(draws) -> np.ndarray:
    """``draws`` as a ``(B, 2)`` int64 array of ``(block_id, offset)`` rows.

    Accepts what :meth:`TwoPhaseIndex.sample` returns, or any iterable
    of integer pairs; everything else is a :class:`PartitionError`.
    """
    if not isinstance(draws, np.ndarray):
        try:
            draws = np.asarray(list(draws))
        except ValueError:  # ragged: not pairs
            raise PartitionError("draws must be (block_id, offset) pairs") from None
    if draws.size == 0 and draws.ndim == 1:
        return np.empty((0, 2), dtype=np.int64)
    if draws.ndim != 2 or draws.shape[1] != 2:
        raise PartitionError(
            "draws must be a (B, 2) array of (block_id, offset) pairs, "
            "got shape {}".format(draws.shape)
        )
    if draws.dtype.kind not in "iu":
        raise PartitionError("draws must be integers, got dtype {}".format(draws.dtype))
    return draws.astype(np.int64, copy=False)


def rows_of_draws(
    draws, block_ids: np.ndarray, sizes: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Row of every ``(block_id, offset)`` draw in a layout of blocks.

    ``block_ids`` is sorted ascending; block ``block_ids[i]`` holds
    ``sizes[i]`` rows, the first of which is row ``starts[i]``.  A draw
    naming an unknown block or an offset outside its block raises
    :class:`PartitionError`.
    """
    draws = as_draws(draws)
    ids, offsets = draws[:, 0], draws[:, 1]
    if ids.size and not block_ids.size:
        raise PartitionError("unknown block id {}".format(ids[0]))
    pos = np.minimum(np.searchsorted(block_ids, ids), block_ids.size - 1)
    unknown = block_ids[pos] != ids
    if unknown.any():
        raise PartitionError("unknown block id {}".format(ids[unknown][0]))
    bad = (offsets < 0) | (offsets >= sizes[pos])
    if bad.any():
        raise PartitionError(
            "offset {} out of range for block {} ({} rows)".format(
                offsets[bad][0], ids[bad][0], sizes[pos][bad][0]
            )
        )
    return starts[pos] + offsets


class TwoPhaseIndex:
    """Deterministic (block id, offset) sampler over a block layout.

    Parameters
    ----------
    block_sizes:
        ``{block_id: n_rows}`` — must agree across all workers (they all
        received worksets of the same blocks).
    base_seed:
        Job-level seed; combined with the iteration number via SplitMix64.
    """

    def __init__(self, block_sizes: Dict[int, int], base_seed: int = 0):
        if not block_sizes:
            raise PartitionError("cannot index an empty block layout")
        self._block_ids = np.asarray(sorted(block_sizes), dtype=np.int64)
        self._sizes = np.asarray(
            [block_sizes[int(b)] for b in self._block_ids], dtype=np.int64
        )
        if np.any(self._sizes <= 0):
            raise PartitionError("all blocks must have at least one row")
        # the inverse CDF Generator.choice(p=sizes / total) builds per
        # call, built once
        self._cdf = np.cumsum(self._sizes / self._sizes.sum())
        self._cdf /= self._cdf[-1]
        self._starts = np.cumsum(self._sizes) - self._sizes
        self.base_seed = int(base_seed)

    @property
    def n_rows(self) -> int:
        """Total rows across all blocks."""
        return int(self._sizes.sum())

    @property
    def n_blocks(self) -> int:
        """Number of indexed blocks."""
        return int(self._block_ids.size)

    def sample(self, iteration: int, batch_size: int) -> np.ndarray:
        """Draw ``batch_size`` (block id, offset) pairs for ``iteration``.

        Returns one ``(batch_size, 2)`` int64 array, a draw per row.
        Deterministic: the same (base_seed, iteration) yields the same
        draws on every caller.  Rows are sampled with replacement,
        uniformly over the logical dataset.
        """
        check_positive(batch_size, "batch_size")
        rng = rng_from_seed(iteration_seed(self.base_seed, iteration))
        # rng.choice(n_blocks, size=batch_size, p=weights), draw for draw
        block_pos = self._cdf.searchsorted(rng.random(batch_size), side="right")
        offsets = rng.integers(0, self._sizes[block_pos])
        return np.stack([self._block_ids[block_pos], offsets], axis=1)

    def to_global_rows(self, draws) -> np.ndarray:
        """Convert draws into global row ids (blocks laid out in id order).

        Only valid when block ids map to contiguous ranges of the source
        dataset in ascending order — true for the dispatcher's layout.
        The master reads a batch's labels with it when a model's
        ``master_step`` asks for them; the equivalence tests and the
        tutorial use it to name the rows a batch was drawn from.
        """
        return rows_of_draws(draws, self._block_ids, self._sizes, self._starts)
