"""Seeded random-number-generator helpers.

All stochastic components of the library (samplers, synthetic data,
stragglers, failure injection) take either an integer seed or a
:class:`numpy.random.Generator`.  These helpers normalise between the two
and derive per-iteration seeds deterministically, so a whole simulated
cluster run is reproducible from one seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def rng_from_seed(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an ``int``, or an existing
    generator (returned unchanged, so callers can thread one generator
    through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 over a uint64 array (modulo 2**64): the seed mixer, the
    hash column assignment and the hashing trick."""
    x = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def iteration_seed(base_seed: int, iteration: int) -> int:
    """Deterministic per-iteration seed shared by master and all workers.

    ColumnSGD's two-phase sampling requires every worker to draw the *same*
    (block id, offset) pairs in an iteration without communicating.  The
    paper uses "the same random seed (e.g., the current iteration number)";
    we mix the iteration into the base seed with SplitMix64 (:func:`mix64`)
    so nearby iterations do not produce correlated streams.
    """
    x = np.array([(base_seed + 0x9E3779B97F4A7C15 * iteration) % 2**64], dtype=np.uint64)
    return int(mix64(x)[0]) % 2**63
