"""Which fault means what where: every (backend, FaultKind) pair.

A kind the backend can inject runs; one it cannot is a
``ConfigurationError`` when the trainer is *built* — before ``load()``,
naming the kind, the backend and the alternative — never an
``AttributeError`` in round ``t``.
"""

import numpy as np
import pytest

from repro.baselines import MLlibTrainer, RowSGDConfig
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.errors import ConfigurationError, MasterFailedError
from repro.faults import (
    REPLY_LOSSES,
    SUPPORTED_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.models import LogisticRegression
from repro.net import MessageKind
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster

WORKERS = 2
ROUNDS = 4
PAIRS = [(backend, kind) for backend in ("sim", "local") for kind in FaultKind]


@pytest.fixture(scope="module")
def data():
    return make_classification(120, 40, nnz_per_row=6, seed=2)


def build_columnsgd(backend, failures):
    return ColumnSGDDriver(
        LogisticRegression(), SGD(0.5), SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=ColumnSGDConfig(
            batch_size=16, iterations=ROUNDS, eval_every=0, seed=3,
            backend=backend, sync_policy="retry", local_timeout_s=1.0,
        ),
        failures=failures,
    )


def build_mllib(backend, failures):
    return MLlibTrainer(
        LogisticRegression(), SGD(0.5), SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=RowSGDConfig(
            batch_size=16, iterations=ROUNDS, eval_every=0, seed=3,
            backend=backend, local_timeout_s=1.0,
        ),
        failures=failures,
    )


BUILDERS = {"columnsgd": build_columnsgd, "mllib": build_mllib}


def one_event(kind):
    worker = None if kind is FaultKind.MASTER else 1
    return FaultSchedule([FaultEvent(2, kind, worker, stall_s=0.01)])


@pytest.mark.parametrize("system", sorted(BUILDERS))
@pytest.mark.parametrize(
    "backend, kind", PAIRS, ids=["{}-{}".format(b, k.value) for b, k in PAIRS]
)
def test_every_backend_kind_pair(data, system, backend, kind):
    build = BUILDERS[system]
    if kind not in SUPPORTED_KINDS[backend]:
        with pytest.raises(ConfigurationError) as err:
            build(backend, one_event(kind))  # refused before load()
        message = str(err.value)
        assert kind.name in message and repr(backend) in message
        other = "local" if backend == "sim" else "sim"
        assert "backend='{}'".format(other) in message
        return
    trainer = build(backend, one_event(kind))
    trainer.load(data)
    if kind is FaultKind.MASTER:
        # supported means it *happens*: with no restart policy the job aborts
        with pytest.raises(MasterFailedError):
            trainer.fit()
        return
    result = trainer.fit()
    assert result.n_iterations == ROUNDS
    assert np.all(np.isfinite(result.final_params))
    if backend == "sim" and kind in REPLY_LOSSES:
        # a lost reply costs one retransmit and nothing else
        assert trainer.cluster.network.bytes_of_kind(MessageKind.RETRY) > 0
        clean = build(backend, None)
        clean.load(data)
        assert np.array_equal(result.final_params, clean.fit().final_params)


def test_the_alternative_is_named():
    with pytest.raises(ConfigurationError, match="StragglerModel"):
        one_event(FaultKind.STALL).validate(WORKERS, "sim")


@pytest.mark.parametrize("system", sorted(BUILDERS))
@pytest.mark.parametrize("backend", ["sim", "local"])
def test_out_of_range_and_missing_workers(system, backend):
    with pytest.raises(ConfigurationError, match="worker 2"):
        BUILDERS[system](
            backend, FaultSchedule([FaultEvent(1, FaultKind.WORKER, WORKERS)])
        )
    with pytest.raises(ConfigurationError, match="needs a worker"):
        FaultEvent(1, FaultKind.WORKER)


@pytest.mark.parametrize("system", sorted(BUILDERS))
@pytest.mark.parametrize(
    "backend, kinds",
    [
        ("sim", (FaultKind.WORKER, FaultKind.STALL)),
        ("local", (FaultKind.WORKER, FaultKind.TASK)),
    ],
)
def test_background_with_an_unsupported_kind_is_rejected(system, backend, kinds):
    with pytest.raises(ConfigurationError, match="cannot be injected"):
        BUILDERS[system](backend, FaultSchedule(mtbf_rounds=3.0, seed=1, kinds=kinds))


def test_default_background_kinds_follow_the_backend():
    for backend, expected in (
        ("sim", {FaultKind.TASK, FaultKind.WORKER}),
        ("local", {FaultKind.WORKER, FaultKind.STALL, FaultKind.DROP,
                   FaultKind.GARBLE}),
    ):
        chaos = FaultSchedule(mtbf_rounds=0.5, seed=4)
        chaos.validate(4, backend)
        kinds = {e.kind for t in range(60) for e in chaos.events_at(t)}
        assert kinds == expected


def test_one_chaos_seed_names_the_same_crashes_on_both_backends():
    def strikes(backend):
        chaos = FaultSchedule(mtbf_rounds=3.0, seed=7, kinds=(FaultKind.WORKER,))
        chaos.validate(4, backend)
        return [chaos.events_at(t) for t in range(40)]

    assert strikes("sim") == strikes("local")
    assert any(strikes("sim"))


def test_an_empty_schedule_never_touches_its_generator():
    schedule = FaultSchedule()
    schedule.validate(4, "sim")
    state = schedule._rng.bit_generator.state
    assert all(schedule.events_at(t) == () for t in range(100))
    assert schedule._rng.bit_generator.state == state
