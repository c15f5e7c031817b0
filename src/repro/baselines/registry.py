"""Uniform trainer factory over all five systems (incl. ColumnSGD)."""

from __future__ import annotations

from dataclasses import fields
from typing import Dict

from repro.baselines.base import RowSGDConfig
from repro.baselines.mllib import MLlibTrainer
from repro.baselines.mllib_star import MLlibStarTrainer
from repro.baselines.parameter_server import ParameterServerTrainer
from repro.baselines.sparse_ps import SparsePSTrainer
from repro.baselines.ssp import StaleSyncPSTrainer
from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import ConfigurationError
from repro.models.base import StatisticsModel
from repro.optim.base import Optimizer
from repro.sim.cluster import SimulatedCluster

TRAINER_REGISTRY: Dict[str, type] = {
    "mllib": MLlibTrainer,
    "mllib*": MLlibStarTrainer,
    "petuum": ParameterServerTrainer,
    "mxnet": SparsePSTrainer,
    "petuum-ssp": StaleSyncPSTrainer,
    "columnsgd": ColumnSGDDriver,
}

#: RowSGDConfig fields a baseline takes through ``make_trainer``'s extras
_ROW_EXTRAS = frozenset(field.name for field in fields(RowSGDConfig)) - {
    "batch_size", "iterations", "eval_every", "seed",
}


def make_trainer(
    name: str,
    model: StatisticsModel,
    optimizer: Optimizer,
    cluster: SimulatedCluster,
    batch_size: int = 1000,
    iterations: int = 100,
    eval_every: int = 10,
    seed: int = 0,
    **extra,
):
    """Build any of the five evaluated systems with uniform arguments.

    All returned trainers share the same interface: ``load(dataset)``
    then ``fit()`` (or ``fit(dataset)``), returning a
    :class:`~repro.core.results.TrainingResult`.
    """
    key = name.lower()
    if key not in TRAINER_REGISTRY:
        raise KeyError(
            "unknown system {!r}; available: {}".format(name, sorted(TRAINER_REGISTRY))
        )
    # fault/recovery plans are trainer arguments, not config fields
    failures = extra.pop("failures", None)
    recovery = extra.pop("recovery", None)
    if recovery is not None and key != "columnsgd":
        raise ValueError("recovery policies apply to the columnsgd driver only")
    if key == "columnsgd":
        config = ColumnSGDConfig(
            batch_size=batch_size,
            iterations=iterations,
            eval_every=eval_every,
            seed=seed,
            **extra,
        )
        return ColumnSGDDriver(
            model, optimizer, cluster, config=config,
            failures=failures, recovery=recovery,
        )
    unknown = sorted(set(extra) - _ROW_EXTRAS)
    if unknown:
        raise ConfigurationError(
            "{} takes no {}; build the trainer class directly for its own "
            "arguments".format(name, ", ".join(unknown))
        )
    config = RowSGDConfig(
        batch_size=batch_size,
        iterations=iterations,
        eval_every=eval_every,
        seed=seed,
        **extra,
    )
    return TRAINER_REGISTRY[key](
        model, optimizer, cluster, config=config, failures=failures
    )
