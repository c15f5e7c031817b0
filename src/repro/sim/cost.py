"""Compute-side cost model.

Gradient/statistics computation on sparse data is linear in the number of
non-zeros touched, so compute time is ``seconds_per_nnz * nnz`` plus a
fixed per-task overhead.  The per-task overhead is where the paper's
platform constants live: Spark-scheduled systems (MLlib, MLlib*,
ColumnSGD) pay tens of milliseconds of task-launch latency per iteration,
while parameter-server runtimes keep workers hot and pay ~a millisecond.
The paper itself attributes MXNet beating ColumnSGD on avazu to exactly
this Spark scheduling latency, so the constant is load-bearing for
reproducing that crossover.
"""

from __future__ import annotations

from repro.utils.validation import check_non_negative


#: Task-launch overhead of a Spark-scheduled BSP round (seconds).
SPARK_TASK_OVERHEAD = 0.025

#: Per-iteration overhead of a parameter-server runtime (seconds).
PS_TASK_OVERHEAD = 0.001


class ComputeCostModel:
    """Converts work volumes into seconds on one worker core.

    ``seconds_per_nnz`` is the cost of touching one stored non-zero in a
    gradient/statistics kernel (multiply + add + indexing), ~4 ns on the
    paper's Xeons; ``seconds_per_dense_element`` is the cost of touching
    one dense vector element (model update, buffer aggregation), cheaper
    than sparse access; ``task_overhead`` is the fixed scheduling/launch
    cost charged once per BSP phase.
    """

    seconds_per_nnz: float = 4e-9
    seconds_per_dense_element: float = 1e-9
    task_overhead: float = SPARK_TASK_OVERHEAD

    def sparse_work(self, nnz: float, passes: float = 1.0) -> float:
        """Seconds for kernels touching ``nnz`` stored entries ``passes`` times."""
        check_non_negative(nnz, "nnz")
        check_non_negative(passes, "passes")
        return self.seconds_per_nnz * nnz * passes

    def dense_work(self, n_elements: float) -> float:
        """Seconds for touching ``n_elements`` dense values once."""
        check_non_negative(n_elements, "n_elements")
        return self.seconds_per_dense_element * n_elements
