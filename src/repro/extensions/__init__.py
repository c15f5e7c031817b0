"""Extensions beyond the paper's core evaluation.

The paper's Section III-C sketches how ColumnSGD can support neural
networks whose first layer is fully connected: partition the FC weight
matrix by input columns and synchronise per-layer statistics.
:mod:`repro.extensions.mlp` implements that sketch for a binary
classifier of any depth as a statistics model the ColumnSGD driver
runs: the first layer partitioned, the rest kept at the master.  Beside
it, two optimizer families from Section VI: Hydra-style coordinate
descent and CoCoA+.
"""

from repro.extensions.mlp import ColumnMLP, SequentialMLP
from repro.extensions.coordinate_descent import RidgeCDTrainer
from repro.extensions.cocoa import CoCoATrainer

__all__ = [
    "ColumnMLP",
    "SequentialMLP",
    "RidgeCDTrainer",
    "CoCoATrainer",
]
