"""Straggler injection.

The paper's Section V-C simulates stragglers by randomly picking one
worker per iteration and making it sleep; *StragglerLevel* is "the ratio
between the extra time a straggler needs to finish a task and the time
that a non-straggler worker needs".  A StragglerLevel of 5 therefore
multiplies the victim's compute time by 6.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_in, check_non_negative, check_positive

#: Victims per iteration (the paper's Section V-C picks one).
N_STRAGGLERS = 1


class StragglerModel:
    """Per-iteration straggler assignment.

    Parameters
    ----------
    n_workers:
        Cluster width.
    level:
        StragglerLevel; victims take ``(1 + level) x`` their normal time.
    mode:
        ``'none'`` — no stragglers;
        ``'random'`` — fresh random victims each iteration.
    seed:
        Controls victim choice for reproducibility.
    """

    def __init__(
        self,
        n_workers: int,
        level: float = 0.0,
        mode: str = "random",
        seed=0,
    ):
        check_positive(n_workers, "n_workers")
        check_non_negative(level, "level")
        check_in(mode, ("none", "random"), "mode")
        self.n_workers = int(n_workers)
        self.level = float(level)
        self.mode = mode
        self._rng = rng_from_seed(seed)
        #: per-iteration victim cache — ``victims(i)`` must return the
        #: same set no matter how many times (or from where) it is
        #: called within a run, else ``victims(i)`` and ``slowdowns(i)``
        #: could name different workers
        self._victim_cache: Dict[int, FrozenSet[int]] = {}

    @classmethod
    def none(cls, n_workers: int) -> "StragglerModel":
        """The no-straggler model (ColumnSGD-pure in Fig 9)."""
        return cls(n_workers, level=0.0, mode="none")

    # ------------------------------------------------------------------
    def victims(self, iteration: int) -> FrozenSet[int]:
        """Worker ids straggling in this iteration."""
        if self.mode == "none":
            return frozenset()
        cached = self._victim_cache.get(iteration)
        if cached is None:
            chosen = self._rng.choice(
                self.n_workers, size=N_STRAGGLERS, replace=False
            )
            cached = frozenset(int(w) for w in chosen)
            self._victim_cache[iteration] = cached
        return cached

    def slowdowns(self, iteration: int) -> Dict[int, float]:
        """Multiplier on compute time per worker for this iteration.

        Non-victims get 1.0; victims get ``1 + level``.
        """
        victims = self.victims(iteration)
        return {
            w: (1.0 + self.level if w in victims else 1.0) for w in range(self.n_workers)
        }
