"""Uniform experiment runners over the five systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.registry import make_trainer
from repro.core.results import TrainingResult
from repro.datasets.dataset import Dataset
from repro.datasets.profiles import load_profile
from repro.models.registry import make_model
from repro.optim.registry import make_optimizer
from repro.sim.cluster import CLUSTER1, ClusterSpec, SimulatedCluster
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class ExperimentSpec:
    """One (dataset, model, systems) experiment configuration.

    ``dataset`` may be a profile name (synthetic stand-in generated at
    its scaled size) or an explicit :class:`Dataset` via
    ``explicit_data``.  The learning rate defaults to the profile's
    Table III entry.
    """

    dataset: str
    model: str = "lr"
    systems: List[str] = field(
        default_factory=lambda: ["columnsgd", "mllib", "mllib*", "petuum", "mxnet"]
    )
    batch_size: int = 1000
    iterations: int = 100
    eval_every: int = 10
    learning_rate: Optional[float] = None
    optimizer: str = "sgd"
    cluster: ClusterSpec = CLUSTER1
    seed: int = 0
    explicit_data: Optional[Dataset] = None

    def __post_init__(self):
        check_positive(self.batch_size, "batch_size")
        check_positive(self.iterations, "iterations")
        check_non_negative(self.eval_every, "eval_every")
        check_non_negative(self.seed, "seed")

    def materialize_data(self) -> Dataset:
        """The dataset to train on (explicit or generated from profile)."""
        if self.explicit_data is not None:
            return self.explicit_data
        return load_profile(self.dataset).generate(seed=self.seed)

    def resolve_learning_rate(self) -> float:
        """Explicit rate, or the profile's Table III entry."""
        if self.learning_rate is not None:
            return self.learning_rate
        return load_profile(self.dataset).learning_rate(self.model)


def run_system(spec: ExperimentSpec, system: str, data: Optional[Dataset] = None) -> TrainingResult:
    """Run one system under ``spec`` on a fresh simulated cluster."""
    data = data if data is not None else spec.materialize_data()
    model = make_model(spec.model)
    optimizer = make_optimizer(spec.optimizer, spec.resolve_learning_rate())
    cluster = SimulatedCluster(spec.cluster)
    trainer = make_trainer(
        system,
        model,
        optimizer,
        cluster,
        batch_size=spec.batch_size,
        iterations=spec.iterations,
        eval_every=spec.eval_every,
        seed=spec.seed,
    )
    trainer.load(data)
    return trainer.fit()


def run_comparison(spec: ExperimentSpec) -> Dict[str, TrainingResult]:
    """Run every system in ``spec.systems`` on the same data."""
    data = spec.materialize_data()
    return {system: run_system(spec, system, data) for system in spec.systems}
