"""ColumnSGD reproduction: column-oriented distributed SGD.

Reproduction of *ColumnSGD: A Column-oriented Framework for Distributed
Stochastic Gradient Descent* (Zhang et al., ICDE 2020) as a pure-Python
library running on a deterministic simulated cluster.

Quickstart::

    from repro import (
        make_classification, LogisticRegression, SGD,
        SimulatedCluster, CLUSTER1, train_columnsgd,
    )

    data = make_classification(20_000, 10_000, seed=0)
    cluster = SimulatedCluster(CLUSTER1)
    result = train_columnsgd(
        data, LogisticRegression(), SGD(learning_rate=10.0), cluster,
        batch_size=1000, iterations=100,
    )
    print(result.describe())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

from repro.version import __version__
from repro.errors import (
    ReproError,
    DataError,
    PartitionError,
    SimulationError,
    OutOfMemoryError,
    StatisticsRecoveryError,
    TrainingError,
)
from repro.linalg import CSRMatrix, SparseVector
from repro.datasets import (
    Dataset,
    read_libsvm,
    write_libsvm,
    make_classification,
    make_regression,
    make_multiclass,
    load_profile,
    PROFILES,
)
from repro.models import (
    LogisticRegression,
    LinearSVM,
    LeastSquares,
    MultinomialLogisticRegression,
    FactorizationMachine,
    make_model,
)
from repro.optim import SGD, AdaGrad, Adam, make_optimizer
from repro.sim import (
    SimulatedCluster,
    ClusterSpec,
    CLUSTER1,
    CLUSTER2,
    StragglerModel,
)
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.core import (
    ColumnSGDConfig,
    ColumnSGDDriver,
    train_columnsgd,
    TrainingResult,
    UserDefinedModel,
)
from repro.baselines import (
    MLlibTrainer,
    MLlibStarTrainer,
    ParameterServerTrainer,
    SparsePSTrainer,
    StaleSyncPSTrainer,
    make_trainer,
)
from repro.metrics import (
    train_test_split,
    evaluate_classifier,
)
from repro.io import save_model, load_model

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "DataError",
    "PartitionError",
    "SimulationError",
    "OutOfMemoryError",
    "StatisticsRecoveryError",
    "TrainingError",
    # linalg
    "CSRMatrix",
    "SparseVector",
    # datasets
    "Dataset",
    "read_libsvm",
    "write_libsvm",
    "make_classification",
    "make_regression",
    "make_multiclass",
    "load_profile",
    "PROFILES",
    # models
    "LogisticRegression",
    "LinearSVM",
    "LeastSquares",
    "MultinomialLogisticRegression",
    "FactorizationMachine",
    "make_model",
    # optim
    "SGD",
    "AdaGrad",
    "Adam",
    "make_optimizer",
    # sim
    "SimulatedCluster",
    "ClusterSpec",
    "CLUSTER1",
    "CLUSTER2",
    "StragglerModel",
    # faults
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    # core
    "ColumnSGDConfig",
    "ColumnSGDDriver",
    "train_columnsgd",
    "TrainingResult",
    "UserDefinedModel",
    # baselines
    "MLlibTrainer",
    "MLlibStarTrainer",
    "ParameterServerTrainer",
    "SparsePSTrainer",
    "StaleSyncPSTrainer",
    "make_trainer",
    # metrics & io
    "train_test_split",
    "evaluate_classifier",
    "save_model",
    "load_model",
]
