"""Golden-trajectory regression tests (DESIGN invariant 1).

``tests/golden/trajectories.json`` holds loss curves and final
parameters — serialised as IEEE-754 hex, so equality means *bit*
equality — recorded on the pre-engine round loops.  Every combo is
replayed here on the current code; any drift in sampling, reduction
order, or update arithmetic fails loudly.

Regenerate the fixture only for an intentional numeric change::

    PYTHONPATH=src python tests/golden/record_golden.py
"""

import json
import pathlib
import sys

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIXTURE = GOLDEN_DIR / "trajectories.json"

sys.path.insert(0, str(GOLDEN_DIR))

from record_golden import record_all  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def replayed():
    return record_all()


def _keys():
    return sorted(json.loads(FIXTURE.read_text()))


def test_fixture_covers_every_combo(golden, replayed):
    assert sorted(replayed) == sorted(golden)


@pytest.mark.parametrize("key", _keys())
def test_trajectory_bit_identical(golden, replayed, key):
    want, got = golden[key], replayed[key]
    assert got["losses"] == want["losses"], (
        "{}: loss trajectory drifted from the pre-engine recording".format(key)
    )
    assert got["final_params"] == want["final_params"], (
        "{}: final parameters drifted from the pre-engine recording".format(key)
    )


@pytest.mark.parametrize("backend", ["sim", "local"])
@pytest.mark.parametrize("model_name", ["fm", "lr"])
def test_unit_value_skip_changes_no_bit(monkeypatch, backend, model_name):
    """The fixture's Gaussian values are never a pattern matrix; one-hot
    data is, from the dispatch on, and trains the same bits as its valued
    twin: the same data with every pattern view refused."""
    from repro import SGD, CLUSTER1, SimulatedCluster, make_classification, train_columnsgd
    from repro.linalg import CSRMatrix
    from repro.models import FactorizationMachine, LogisticRegression

    data = make_classification(240, 60, nnz_per_row=8, binary_features=True, seed=11)
    assert data.features.pattern_view().data is None

    def run():
        model = FactorizationMachine(4) if model_name == "fm" else LogisticRegression()
        result = train_columnsgd(
            data, model, SGD(0.1), SimulatedCluster(CLUSTER1.with_workers(4)),
            batch_size=40, iterations=6, eval_every=2, seed=3,
            backend=backend, local_processes=2,
        )
        return [r.loss for r in result.records if r.loss is not None], result.final_params

    losses, params = run()
    monkeypatch.setattr(CSRMatrix, "pattern_view", lambda self: self)  # before any fork
    multiplied_losses, multiplied_params = run()
    assert len(losses) == 4  # rounds 0, 2, 4 and the final one
    assert [x.hex() for x in losses] == [x.hex() for x in multiplied_losses]
    assert params.tobytes() == multiplied_params.tobytes()
