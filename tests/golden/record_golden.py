"""Golden-trajectory recorder (DESIGN invariant 1 regression harness).

Runs every trainer x model x optimizer combination the repository
supports on small deterministic datasets and serialises the *exact*
floating-point trajectory — per-evaluation losses plus the final
parameters, both as IEEE-754 hex strings — to
``tests/golden/trajectories.json``.

The fixture shipped in the repository was recorded on the pre-engine
round loops; ``tests/test_golden_trajectories.py`` replays every combo
on the current code and asserts bit-for-bit equality, which is what
licenses refactors of the round machinery: same draws, same arithmetic,
same bits.

Regenerate (only when *intentionally* changing the numerics)::

    PYTHONPATH=src python tests/golden/record_golden.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

import numpy as np

FIXTURE = pathlib.Path(__file__).parent / "trajectories.json"

ITERATIONS = 6
BATCH = 64
WORKERS = 4


def _hex_array(values: np.ndarray) -> List[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


def _hex_losses(result) -> List[List[str]]:
    return [[str(it), float(loss).hex()] for it, _, loss in result.losses()]


def _cluster():
    from repro.sim import CLUSTER1, SimulatedCluster

    return SimulatedCluster(CLUSTER1.with_workers(WORKERS))


def _data():
    from repro.datasets import make_classification

    # Gaussian feature values keep hinge margins off the kink at 1.0
    # (same reasoning as the tiny_gaussian test fixture).
    return make_classification(300, 120, nnz_per_row=8, binary_features=False, seed=17)


def _models():
    from repro.models import (
        FactorizationMachine,
        LeastSquares,
        LinearSVM,
        LogisticRegression,
    )

    return {
        "lr": lambda: LogisticRegression(),
        "svm": lambda: LinearSVM(),
        "lstsq": lambda: LeastSquares(),
        "fm4": lambda: FactorizationMachine(n_factors=4),
    }


def _optimizers():
    from repro.optim import SGD, AdaGrad, Adam

    return {
        "sgd": lambda: SGD(0.1),
        "adagrad": lambda: AdaGrad(0.1),
        "adam": lambda: Adam(0.01),
    }


def record_all() -> Dict[str, dict]:
    """Run every combo; returns {combo key: trajectory record}."""
    from repro.baselines import (
        MLlibStarTrainer,
        MLlibTrainer,
        ParameterServerTrainer,
        RowSGDConfig,
        SparsePSTrainer,
        StaleSyncPSTrainer,
    )
    from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
    from repro.extensions import CoCoATrainer, ColumnMLP, RidgeCDTrainer

    models = _models()
    optimizers = _optimizers()
    out: Dict[str, dict] = {}

    def entry(key: str, result, params: np.ndarray) -> None:
        out[key] = {
            "losses": _hex_losses(result),
            "final_params": _hex_array(params),
        }

    # --- ColumnSGD driver: every model x optimizer, plus one backup run
    for model_name, make_model in models.items():
        for opt_name, make_opt in optimizers.items():
            driver = ColumnSGDDriver(
                make_model(),
                make_opt(),
                _cluster(),
                config=ColumnSGDConfig(
                    batch_size=BATCH, iterations=ITERATIONS, eval_every=2, seed=3
                ),
            )
            driver.load(_data())
            result = driver.fit()
            entry(
                "columnsgd/{}/{}".format(model_name, opt_name),
                result,
                result.final_params,
            )
    backup_driver = ColumnSGDDriver(
        models["lr"](),
        optimizers["sgd"](),
        _cluster(),
        config=ColumnSGDConfig(
            batch_size=BATCH, iterations=ITERATIONS, eval_every=2, seed=3, backup=1
        ),
    )
    backup_driver.load(_data())
    entry("columnsgd-backup1/lr/sgd", backup_driver.fit(), backup_driver.current_params())

    # --- RowSGD baselines: lr x {sgd, adagrad}
    baselines = {
        "mllib": MLlibTrainer,
        "mllib_star": MLlibStarTrainer,
        "petuum": ParameterServerTrainer,
        "mxnet": SparsePSTrainer,
    }
    for system, trainer_cls in baselines.items():
        for opt_name in ("sgd", "adagrad"):
            trainer = trainer_cls(
                models["lr"](),
                optimizers[opt_name](),
                _cluster(),
                config=RowSGDConfig(
                    batch_size=BATCH, iterations=ITERATIONS, eval_every=2, seed=3
                ),
            )
            trainer.load(_data())
            result = trainer.fit()
            entry("{}/lr/{}".format(system, opt_name), result, result.final_params)

    # --- SSP: staleness 0 (degenerates to BSP) and 2 (pipelined)
    for staleness in (0, 2):
        trainer = StaleSyncPSTrainer(
            models["lr"](),
            optimizers["sgd"](),
            _cluster(),
            config=RowSGDConfig(
                batch_size=BATCH, iterations=ITERATIONS, eval_every=2, seed=3
            ),
            staleness=staleness,
        )
        trainer.load(_data())
        result = trainer.fit()
        entry("ssp{}/lr/sgd".format(staleness), result, result.final_params)

    # --- column-partitioned MLPs: one hidden layer with every weight at
    # N(0, 0.5), and two hidden layers with the fan-in-scaled tail
    mlps = [
        ("mlp8/sgd", ColumnMLP([8], out_std=0.5), "sgd"),
        ("mlp8/adam", ColumnMLP([8], out_std=0.5), "adam"),
        ("deep_mlp8x4/sgd", ColumnMLP([8, 4]), "sgd"),
    ]
    for key, model, opt_name in mlps:
        mlp = ColumnSGDDriver(
            model,
            optimizers[opt_name](),
            _cluster(),
            config=ColumnSGDConfig(
                batch_size=BATCH, iterations=ITERATIONS, eval_every=2, seed=3
            ),
        )
        mlp.load(_data())
        result = mlp.fit()
        params = np.concatenate(
            [result.final_params.ravel()] + [model.tail[k].ravel() for k in sorted(model.tail)]
        )
        entry(key, result, params)

    # --- CoCoA and coordinate descent (their own optimizers)
    cocoa = CoCoATrainer(_cluster(), lam=0.1, local_steps=40, iterations=ITERATIONS,
                         eval_every=2, seed=3)
    cocoa.load(_data())
    entry("cocoa/ridge", cocoa.fit(), cocoa.current_params())

    cd = RidgeCDTrainer(_cluster(), lam=0.01, iterations=ITERATIONS, eval_every=2,
                        seed=3)
    cd.load(_data())
    entry("ridge_cd/ridge", cd.fit(), cd.current_params())

    return out


def main() -> None:
    records = record_all()
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True))
    print("recorded {} combos -> {}".format(len(records), FIXTURE))


if __name__ == "__main__":
    main()
