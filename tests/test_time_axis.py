"""Simulated time-axis regression tests.

``tests/golden/time_axis.json`` holds, as IEEE-754 hex, every simulated
second a set of ColumnSGD runs produced — phase intervals, round
durations, per-worker task times, retry deadlines, recovery charges —
and their per-kind network bytes (see ``tests/golden/record_time_axis.py``
for the matrix).  ``test_golden_trajectories.py`` pins the loss curves;
this pins the clock, so a drift in simulated seconds is told apart from
a drift in the numerics.

Regenerate the fixture only for an intentional cost-model change::

    PYTHONPATH=src python tests/golden/record_time_axis.py
"""

import json
import pathlib
import sys

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIXTURE = GOLDEN_DIR / "time_axis.json"

sys.path.insert(0, str(GOLDEN_DIR))

from record_time_axis import record_all  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def replayed():
    return record_all()


def _keys():
    return sorted(json.loads(FIXTURE.read_text()))


def test_fixture_covers_every_configuration(golden, replayed):
    assert sorted(replayed) == sorted(golden)


@pytest.mark.parametrize("key", _keys())
@pytest.mark.parametrize(
    "field", ["phases", "rounds", "retries", "recoveries", "bytes_by_kind", "total_sim_time"]
)
def test_time_axis_bit_identical(golden, replayed, key, field):
    assert replayed[key][field] == golden[key][field], (
        "{}: simulated {} drifted from the recording".format(key, field)
    )
