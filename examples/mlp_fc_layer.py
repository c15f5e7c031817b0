"""Column-partitioned neural network (the paper's Section III-C sketch).

The paper argues ColumnSGD can host fully-connected layers: partition
the FC weight matrix by input column, synchronise the per-example
pre-activations (one statistics round per layer), replicate the tiny
head.  Here the network is one more statistics model the ColumnSGD
driver runs: W1 partitioned like a GLM, the tail kept at the master.
This example trains a one-hidden-layer network on an XOR-style problem
that a linear model provably cannot fit, and shows the statistics
traffic is B x hidden — still independent of the input dimension.

Run:  python examples/mlp_fc_layer.py
"""

import numpy as np

from repro import CLUSTER1, LogisticRegression, SGD, SimulatedCluster, train_columnsgd
from repro.datasets import Dataset
from repro.extensions import ColumnMLP
from repro.linalg import CSRMatrix
from repro.utils.rng import rng_from_seed


def xor_dataset(n_rows=4000, n_noise=30, seed=0):
    """y = sign(x0 * x1): linearly inseparable, trivially MLP-separable."""
    rng = rng_from_seed(seed)
    signal = rng.choice([-1.0, 1.0], size=(n_rows, 2))
    labels = np.where(signal[:, 0] * signal[:, 1] > 0, 1.0, -1.0)
    noise = rng.normal(0, 0.3, size=(n_rows, n_noise))
    return Dataset(
        CSRMatrix.from_dense(np.column_stack([signal, noise])), labels, name="xor"
    )


def main():
    data = xor_dataset()
    print("dataset:", data, "(XOR signal + noise features)")

    print("\nlinear model (ColumnSGD LR) — cannot do better than chance:")
    lr = train_columnsgd(
        data, LogisticRegression(), SGD(0.5), SimulatedCluster(CLUSTER1),
        batch_size=500, iterations=200, eval_every=50, seed=0,
    )
    print("  final loss {:.4f} (log 2 = 0.6931 is chance)".format(lr.final_loss()))

    print("\ncolumn-partitioned MLP (one hidden layer of 8, tanh):")
    result = train_columnsgd(
        data, ColumnMLP([8], out_std=0.5), SGD(0.5), SimulatedCluster(CLUSTER1),
        batch_size=500, iterations=400, eval_every=50, seed=0,
    )
    for iteration, sim_time, loss in result.losses():
        print("  iter {:>4}  t={:6.2f}s  loss={:.4f}".format(iteration, sim_time, loss))

    print("\nstatistics per iteration: batch x hidden = 500 x 8 values")
    print("bytes/iteration: {:,} (add 1000x more input features and this "
          "does not change)".format(result.records[-1].bytes_sent))


if __name__ == "__main__":
    main()
