"""Models trainable under the statistics protocol.

Every model implements the two-step decomposition of Section II-C /
Appendix VIII: (1) *statistics* computable per column shard and summable
across shards; (2) gradients recoverable from the complete statistics
using only local data and the local model partition.

Supported: Logistic Regression, SVM, Least Squares (GLMs, statistics =
dot products), Multinomial Logistic Regression (K dots per example), and
Factorization Machines (F+1 statistics per example).
"""

from repro.models.base import StatisticsModel
from repro.models.losses import (
    PointwiseLoss,
    LogisticLoss,
    HingeLoss,
    SquaredLoss,
    SquaredHingeLoss,
    HuberLoss,
)
from repro.models.linear import (
    GeneralizedLinearModel,
    LogisticRegression,
    LinearSVM,
    LeastSquares,
    SmoothSVM,
    HuberRegression,
)
from repro.models.mlr import MultinomialLogisticRegression
from repro.models.fm import FactorizationMachine
from repro.models.ffm import FieldAwareFM
from repro.models.registry import make_model, MODEL_REGISTRY

__all__ = [
    "StatisticsModel",
    "PointwiseLoss",
    "LogisticLoss",
    "HingeLoss",
    "SquaredLoss",
    "SquaredHingeLoss",
    "HuberLoss",
    "GeneralizedLinearModel",
    "LogisticRegression",
    "LinearSVM",
    "LeastSquares",
    "SmoothSVM",
    "HuberRegression",
    "MultinomialLogisticRegression",
    "FactorizationMachine",
    "FieldAwareFM",
    "make_model",
    "MODEL_REGISTRY",
]
