"""Port of the paper's Fig 12: implement LR through the user interface.

The paper exposes four callbacks — initModel, computeStat, reduceStat,
updateModel.  This example writes them in Python (nearly line-for-line
from the Scala of Fig 12), wraps them in :class:`UserDefinedModel`, and
trains on ColumnSGD.  The result matches the built-in LR exactly.

Run:  python examples/custom_model.py
"""

import numpy as np

from repro import (
    CLUSTER1,
    LogisticRegression,
    SGD,
    SimulatedCluster,
    UserDefinedModel,
    make_classification,
    train_columnsgd,
)
from repro.linalg import accumulate_rows, row_dots


# --- the four callbacks of Fig 12 ------------------------------------


def init_model(local_dim):
    """initModel: instantiate the local model partition as an array."""
    return np.zeros(local_dim)


def compute_stat(batch, local_model):
    """computeStat: partial dot products of the batch with the local
    model partition (one per data point)."""
    return row_dots(batch, local_model)


def reduce_stat(stat1, stat2):
    """reduceStat: the master folds the workers' partial statistics with
    this, pairwise, every round; dot products sum."""
    return stat1 + stat2


def compute_gradient(batch, labels, stats, local_model):
    """The gradient step inside updateModel: recover the LR gradient of
    the local partition from the complete dot products (equation 6).

    ``accumulate_rows`` returns a :class:`repro.linalg.RowGradient` — the
    columns the batch touches and their values — so the update costs
    O(batch nnz) however wide the partition is; a dense array shaped
    like ``local_model`` is accepted too."""
    dots = stats[:, 0]
    coefficients = -labels / (1.0 + np.exp(labels * dots))
    gradient = accumulate_rows(batch, coefficients)
    gradient.values /= max(len(labels), 1)
    return gradient


def batch_loss(stats, labels):
    """Mean logistic loss from complete statistics (for reporting)."""
    margins = labels * stats[:, 0]
    return float(np.mean(np.log1p(np.exp(-margins))))


def main():
    data = make_classification(8_000, 3_000, nnz_per_row=12, seed=4)

    user_lr = UserDefinedModel(
        init_model=init_model,
        compute_stat=compute_stat,
        compute_gradient=compute_gradient,
        loss=batch_loss,
        reduce_stat=reduce_stat,
    )

    custom = train_columnsgd(
        data, user_lr, SGD(1.0), SimulatedCluster(CLUSTER1),
        batch_size=500, iterations=80, eval_every=20, seed=4,
    )
    builtin = train_columnsgd(
        data, LogisticRegression(), SGD(1.0), SimulatedCluster(CLUSTER1),
        batch_size=500, iterations=80, eval_every=20, seed=4,
    )

    print("custom  LR final loss: {:.6f}".format(custom.final_loss()))
    print("builtin LR final loss: {:.6f}".format(builtin.final_loss()))
    match = np.allclose(custom.final_params, builtin.final_params, atol=1e-9)
    print("parameter trajectories identical:", match)


if __name__ == "__main__":
    main()
