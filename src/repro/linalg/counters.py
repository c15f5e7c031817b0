"""Kernel op counters: the work the ``repro.linalg`` primitives did.

Every primitive reports the work it actually did — flops, elements
allocated, densification events — to one module-level
:class:`OpCounters` singleton.  Tests pin the counts (a round's are the
same at m = 1e5 and 1e7) and the e2e bench reads ``flops``; whether a
round's *time* is flat in m is the wall-clock gate's job
(``docs/sparsity.md``).

Counting is off by default and the enabled check is the first branch of
every recording method, so the instrumented kernels pay one attribute
load and a predictable branch when counting is off — and nothing here
ever touches the numeric payloads, so trajectories are bit-identical
with counting on or off.
"""

from __future__ import annotations

from typing import Dict


class OpCounters:
    """Accumulates kernel work volumes while enabled.

    Attributes
    ----------
    flops:
        Arithmetic operations performed on stored entries (multiplies,
        adds, comparisons during scans).  One "flop" here is one touched
        element-operation, matching the cost model's per-element view.
    alloc_elements:
        Total elements of freshly allocated numpy buffers.
    densify_events:
        Number of sparse->dense materialisations (``to_dense`` calls).
    peak_alloc_elements:
        Largest single allocation observed — the "peak temporary size".
    """

    __slots__ = (
        "enabled",
        "flops",
        "alloc_elements",
        "densify_events",
        "peak_alloc_elements",
    )

    def __init__(self):
        self.enabled = False
        self.flops = 0
        self.alloc_elements = 0
        self.densify_events = 0
        self.peak_alloc_elements = 0

    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Start counting (does not reset accumulated totals)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop counting (accumulated totals remain readable)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every counter; the enabled flag is left untouched."""
        self.flops = 0
        self.alloc_elements = 0
        self.densify_events = 0
        self.peak_alloc_elements = 0

    def snapshot(self) -> Dict[str, int]:
        """Copy of the current totals as a plain dict."""
        return {
            "flops": self.flops,
            "alloc_elements": self.alloc_elements,
            "densify_events": self.densify_events,
            "peak_alloc_elements": self.peak_alloc_elements,
        }

    # ------------------------------------------------------------------
    def add_flops(self, n: int) -> None:
        """Record ``n`` element-operations."""
        if not self.enabled:
            return
        self.flops += int(n)

    def add_alloc(self, n_elements: int) -> None:
        """Record a fresh buffer of ``n_elements`` elements."""
        if not self.enabled:
            return
        n = int(n_elements)
        self.alloc_elements += n
        if n > self.peak_alloc_elements:
            self.peak_alloc_elements = n

    def add_densify(self, n_elements: int) -> None:
        """Record one sparse->dense materialisation of ``n_elements``."""
        if not self.enabled:
            return
        self.densify_events += 1
        n = int(n_elements)
        self.alloc_elements += n
        if n > self.peak_alloc_elements:
            self.peak_alloc_elements = n


#: The process-wide counter the linalg kernels report into.  Tests and
#: the engine audit reset/enable/disable it around the region they
#: measure; concurrent audits are not a thing the simulator does.
OP_COUNTERS = OpCounters()
