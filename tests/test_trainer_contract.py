"""One ``Trainer``, one ``fit``: the contract every engine trainer meets.

All eight trainer classes run the base's loop (``repro.core.trainer``) and
differ in their declared round; this suite walks the shared builders
table (``tests/conftest.py``) and pins what "the same loop" means.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.core.trainer import Trainer
from repro.errors import TrainingError
from repro.net.protocol import ProtocolChecker
from tests.conftest import TRAINER_NAMES, trainer_builders

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture
def build(cluster4, tiny_binary):
    builders = trainer_builders(cluster4, tiny_binary)
    return lambda name: builders[name]()


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_the_run_is_the_base_class(name, build, monkeypatch):
    trainer = build(name)
    assert isinstance(trainer, Trainer)
    for cls in type(trainer).__mro__:
        if cls not in (Trainer, object):
            assert not {"fit", "_train", "_attached", "_record"} & set(vars(cls)), cls
    # run_round may be extended (the driver refreshes last_*_seconds),
    # never replaced: every trainer's round goes through the base's
    calls = []
    base_run_round = Trainer.run_round
    monkeypatch.setattr(
        Trainer, "run_round",
        lambda self, t: calls.append(t) or base_run_round(self, t),
    )
    assert trainer.run_round(0).duration > 0
    assert calls == [0]


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_fit_records_two_rounds_on_one_time_axis(name, build, cluster4):
    trainer = build(name)
    loaded_at, bytes_before = cluster4.clock.now(), cluster4.network.total_bytes()
    result = trainer.fit(iterations=2)
    want = ([-1] if trainer.eval_every else []) + [0, 1]
    assert [r.iteration for r in result.records] == want
    times = [loaded_at] + [r.sim_time for r in result.records]
    assert times == sorted(times)
    assert result.total_sim_time == cluster4.clock.now() > loaded_at
    assert all(r.duration > 0 for r in result.records if r.iteration >= 0)
    assert result.total_bytes() == cluster4.network.total_bytes() - bytes_before
    assert result.n_workers == 4 and result.system and result.model
    # the last round of a run is always evaluated, when anything is
    assert (result.records[-1].loss is not None) == bool(trainer.eval_every)


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_fit_passes_the_protocol_checker(name, build, monkeypatch):
    """Every trainer's round, as the engine emits it, survives the
    runtime BSP audit: barrier isolation, push/bcast pairing, and exact
    per-kind counts and bytes against the declared ``CommPhase``s (an
    undeclared kind raises ``ProtocolViolationError`` out of ``fit``)."""
    audited = []
    end_round = ProtocolChecker.end_round
    monkeypatch.setattr(
        ProtocolChecker, "end_round",
        lambda self, t, expected=None: (
            audited.append((t, bool(expected))) or end_round(self, t, expected=expected)
        ),
    )
    trainer = build(name)
    trainer.check_protocol = True
    trainer.fit()
    assert audited == [(0, True), (1, True)]


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_final_params_are_the_current_params(name, build):
    trainer = build(name)
    result = trainer.fit()
    # the MLP's are W1: its tail lives on the model, at the master
    assert np.array_equal(result.final_params, trainer.current_params())


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_eval_dataset_fills_eval_loss(name, build, tiny_binary):
    trainer = build(name)
    trainer.eval_every = 1
    result = trainer.fit(eval_dataset=tiny_binary.slice(0, 40))
    assert len(result.eval_losses()) == len(result.records) == 3
    assert all(np.isfinite(loss) for _, _, loss in result.eval_losses())
    assert trainer.fit().eval_losses() == []  # and only when asked


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_divergence_is_reported_once_with_the_trainers_hint(name, build):
    trainer = build(name)
    trainer.eval_every = 1
    trainer.evaluate_loss = lambda dataset=None: float("inf")
    with pytest.raises(TrainingError) as err:
        trainer.fit()
    assert str(err.value) == (
        "training diverged at iteration -1 (loss=inf)"
    )


def test_the_scaffolding_exists_once():
    """Only the base module constructs an engine, a record or a checker."""
    constructed = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("RoundEngine", "IterationRecord", "ProtocolChecker"):
                    constructed.setdefault(name, set()).add(
                        path.relative_to(SRC).as_posix()
                    )
    assert constructed == {
        "RoundEngine": {"core/trainer.py"},
        "IterationRecord": {"core/trainer.py"},
        "ProtocolChecker": {"core/trainer.py"},
    }
