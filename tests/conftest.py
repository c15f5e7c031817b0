"""Shared fixtures: small deterministic datasets and clusters."""

from __future__ import annotations

import contextlib
import multiprocessing
import signal

import numpy as np
import pytest

from repro.baselines import (
    MLlibStarTrainer,
    MLlibTrainer,
    ParameterServerTrainer,
    RowSGDConfig,
    SparsePSTrainer,
    StaleSyncPSTrainer,
)
from repro.core import UserDefinedModel
from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification, make_multiclass, make_regression
from repro.extensions import CoCoATrainer, ColumnMLP, RidgeCDTrainer
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster


class PerWorker:
    """A host program over one test program per worker, each with the old
    ``handle(op, args, payload)``: its host step shares nothing."""

    def __init__(self, programs):
        self.programs = programs

    def host_step(self, op, args, payload):
        return None

    def handle(self, worker, op, args, payload, shared):
        return self.programs[worker].handle(op, args, payload)


def hosting(programs):
    """:meth:`LocalRuntime.start`'s host program factory over per-worker
    test ``programs``."""
    return lambda workers: PerWorker({w: programs[w] for w in workers})


@contextlib.contextmanager
def hard_bound(seconds):
    """Fail (not hang) when the body outlives ``seconds``.

    The processes the body started are SIGKILLed *before* the timeout is
    raised — and on any other failure — so whatever is blocked on them,
    the body's own cleanup included, returns instead of hanging again."""
    before = set(multiprocessing.active_children())

    def reap():
        for child in set(multiprocessing.active_children()) - before:
            child.kill()

    def expired(signum, frame):
        reap()
        # not an OSError (TimeoutError is one): the transport catches those
        pytest.fail("still running after {} s".format(seconds), pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except BaseException:
        reap()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def dense_gradient(model):
    """``model`` as a :class:`UserDefinedModel` whose gradient callback
    returns a dense array: every step then covers every row
    (``EVERY_ROW``), the path a dense user-defined gradient takes."""
    return UserDefinedModel(
        init_model=lambda local_dim: model.init_params(local_dim, seed=0),
        compute_stat=model.compute_statistics,
        compute_gradient=lambda features, labels, statistics, params: (
            model.gradient_from_statistics(
                features, labels, model.coefficients(statistics, labels), params
            ).to_dense()
        ),
        loss=model.loss_from_statistics,
        statistics_width=model.statistics_width,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_binary():
    """300 rows x 120 features, binary labels in {-1, +1}."""
    return make_classification(300, 120, nnz_per_row=8, seed=11)


@pytest.fixture
def tiny_gaussian():
    """Like tiny_binary but with Gaussian feature values.

    Exactness tests use this: real-valued features keep hinge margins
    off the measure-zero kink at 1.0, where float summation order could
    legitimately flip the subgradient indicator.
    """
    return make_classification(
        300, 120, nnz_per_row=8, binary_features=False, seed=17
    )


@pytest.fixture
def small_binary():
    """2000 rows x 500 features — enough signal for convergence checks."""
    return make_classification(2000, 500, nnz_per_row=12, seed=5)


@pytest.fixture
def tiny_regression():
    return make_regression(300, 100, nnz_per_row=8, seed=21)


@pytest.fixture
def tiny_multiclass():
    return make_multiclass(300, 100, n_classes=4, nnz_per_row=8, seed=31)


@pytest.fixture
def cluster4():
    """Four-worker cluster with Cluster 1 hardware."""
    return SimulatedCluster(CLUSTER1.with_workers(4))


@pytest.fixture
def cluster8():
    """The paper's Cluster 1 (8 workers)."""
    return SimulatedCluster(CLUSTER1)


# ----------------------------------------------------------------------
# the eight engine trainer classes, built one way for every suite that
# walks them; the driver twice more, running the MLP at one and at two
# hidden layers
# ----------------------------------------------------------------------
TRAINER_NAMES = (
    "ColumnSGDDriver",
    "MLlibTrainer",
    "MLlibStarTrainer",
    "ParameterServerTrainer",
    "SparsePSTrainer",
    "StaleSyncPSTrainer",
    "CoCoATrainer",
    "RidgeCDTrainer",
    "mlp4/ColumnSGDDriver",
    "mlp4x3/ColumnSGDDriver",
)


def trainer_builders(cluster, data):
    """``{name: build}``, the name a class name (a ``variant/`` prefix
    marks a second build of that class); each ``build()`` returns that trainer, loaded with ``data`` on
    ``cluster`` and configured for two rounds."""

    def row(cls, **kw):
        def build():
            trainer = cls(
                LogisticRegression(), SGD(0.1), cluster,
                config=RowSGDConfig(batch_size=64, iterations=2), **kw
            )
            trainer.load(data)
            return trainer
        return build

    def column(make_model=LogisticRegression, **kw):
        def build():
            driver = ColumnSGDDriver(
                make_model(), SGD(0.1), cluster,
                config=ColumnSGDConfig(batch_size=64, iterations=2, **kw),
            )
            driver.load(data)
            return driver
        return build

    def local(cls, **kw):
        def build():
            trainer = cls(cluster, iterations=2, eval_every=0, seed=3, **kw)
            trainer.load(data)
            return trainer
        return build

    return {
        "ColumnSGDDriver": column(),
        "MLlibTrainer": row(MLlibTrainer),
        "MLlibStarTrainer": row(MLlibStarTrainer),
        "ParameterServerTrainer": row(ParameterServerTrainer),
        "SparsePSTrainer": row(SparsePSTrainer),
        "StaleSyncPSTrainer": row(StaleSyncPSTrainer, staleness=2),
        "CoCoATrainer": local(CoCoATrainer, lam=0.1, local_steps=10),
        "RidgeCDTrainer": local(RidgeCDTrainer, lam=0.1),
        "mlp4/ColumnSGDDriver": column(lambda: ColumnMLP([4]), eval_every=0, seed=3),
        "mlp4x3/ColumnSGDDriver": column(lambda: ColumnMLP([4, 3]), eval_every=0, seed=3),
    }
