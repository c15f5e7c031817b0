"""Model verification helpers for custom-model authors.

Anyone implementing the Fig 12 interface (:class:`UserDefinedModel`) or
subclassing :class:`StatisticsModel` should run these two checks before
training at scale:

* :func:`check_gradients` — finite-difference validation of
  ``gradient_from_statistics`` against ``loss_from_statistics``;
* :func:`check_decomposition` — the Section II-C identities: statistics
  additivity across column shards and per-partition gradient recovery.

Both hand ``gradient_from_statistics`` what the driver's workers get:
the ``coefficients`` of the complete statistics passed through the
model's ``master_step``.
Both raise :class:`ModelCheckError` with a pinpointed report on
failure and return silently on success (mirroring ``np.testing``).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.dataset import Dataset
from repro.errors import ReproError
from repro.models.base import StatisticsModel
from repro.partition.column import make_assignment
from repro.utils.rng import rng_from_seed


class ModelCheckError(ReproError):
    """A model failed gradient or decomposition verification."""


def _perturbed_params(model: StatisticsModel, n_features: int, seed) -> np.ndarray:
    rng = rng_from_seed(seed)
    params = model.init_params(n_features, seed=seed).astype(np.float64)
    params += rng.normal(0.0, 0.1, size=params.shape)
    return params


def check_gradients(
    model: StatisticsModel,
    dataset: Dataset,
    params: np.ndarray = None,
    eps: float = 1e-6,
    atol: float = 1e-4,
    max_coordinates: int = 200,
    seed: int = 0,
    skip_columns: tuple = (),
) -> None:
    """Finite-difference check of the model's analytic gradient.

    Samples up to ``max_coordinates`` parameter entries (all of them for
    small models) and compares central differences of ``model.loss``
    against ``model.gradient``.  ``skip_columns`` exempts frozen
    metadata columns (e.g. FFM's field ids).
    """
    if params is None:
        params = _perturbed_params(model, dataset.n_features, seed)
    params = np.array(params, dtype=np.float64, copy=True)
    analytic = model.gradient(dataset.features, dataset.labels, params)
    flat = params.reshape(-1)
    flat_grad = analytic.reshape(-1)
    rng = rng_from_seed(seed)
    total = flat.size
    picks = (
        np.arange(total)
        if total <= max_coordinates
        else rng.choice(total, size=max_coordinates, replace=False)
    )
    n_cols = params.shape[1] if params.ndim == 2 else 1
    failures = []
    for index in picks:
        if params.ndim == 2 and (index % n_cols) in skip_columns:
            continue
        original = flat[index]
        flat[index] = original + eps
        up = model.loss(dataset.features, dataset.labels, params)
        flat[index] = original - eps
        down = model.loss(dataset.features, dataset.labels, params)
        flat[index] = original
        numeric = (up - down) / (2 * eps)
        if abs(numeric - flat_grad[index]) > atol:
            failures.append((int(index), float(flat_grad[index]), float(numeric)))
    if failures:
        worst = max(failures, key=lambda f: abs(f[1] - f[2]))
        raise ModelCheckError(
            "gradient check failed at {} of {} sampled coordinates; worst: "
            "param[{}] analytic={:.6g} numeric={:.6g}".format(
                len(failures), len(picks), *worst
            )
        )


def check_decomposition(
    model: StatisticsModel,
    dataset: Dataset,
    params: np.ndarray = None,
    n_workers: int = 3,
    scheme: str = "round_robin",
    atol: float = 1e-9,
    seed: int = 0,
) -> None:
    """Verify the Section II-C identities over a column partitioning.

    1. ``sum_k compute_statistics(X_k, w_k) == compute_statistics(X, w)``
    2. ``gradient(X, y, S, w)[cols_k] == gradient(X_k, y, S, w_k)``, with
       ``S`` the complete statistics passed through ``master_step``
    """
    if params is None:
        params = _perturbed_params(model, dataset.n_features, seed)
    assignment = make_assignment(scheme, dataset.n_features, n_workers)
    full_stats = model.compute_statistics(dataset.features, params)
    partial = None
    for k in range(n_workers):
        cols = assignment.columns_of(k)
        shard_stats = model.compute_statistics(
            dataset.features.select_columns(cols), params[cols]
        )
        partial = shard_stats if partial is None else partial + shard_stats
    if not np.allclose(full_stats, partial, atol=atol):
        raise ModelCheckError(
            "statistics are not additive across column shards "
            "(max abs error {:.3g})".format(np.max(np.abs(full_stats - partial)))
        )

    complete = model.master_step(full_stats, lambda: dataset.labels)
    coefficients = model.coefficients(complete, dataset.labels)
    full_grad = model.gradient_from_statistics(
        dataset.features, dataset.labels, coefficients, params
    ).to_dense()
    for k in range(n_workers):
        cols = assignment.columns_of(k)
        local = model.gradient_from_statistics(
            dataset.features.select_columns(cols),
            dataset.labels,
            coefficients,
            params[cols],
        ).to_dense()
        if not np.allclose(full_grad[cols], local, atol=atol):
            raise ModelCheckError(
                "partition {} gradient does not match the full gradient "
                "restricted to its columns (max abs error {:.3g})".format(
                    k, np.max(np.abs(full_grad[cols] - local))
                )
            )
