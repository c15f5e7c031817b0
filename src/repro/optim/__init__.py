"""Optimizers.

All updates are coordinate-wise, which is what lets ColumnSGD run an
independent optimizer instance per model partition and still reproduce
the single-machine trajectory exactly (the paper's Section III-A remark
that Adam/AdaGrad work "by tweaking the implementation of model update").
Like the paper's runs (Table III), every optimizer steps at its fixed
``learning_rate``.
"""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adagrad import AdaGrad
from repro.optim.adam import Adam
from repro.optim.registry import make_optimizer, OPTIMIZER_REGISTRY

__all__ = [
    "Optimizer",
    "SGD",
    "AdaGrad",
    "Adam",
    "make_optimizer",
    "OPTIMIZER_REGISTRY",
]
