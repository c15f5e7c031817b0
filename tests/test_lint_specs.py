"""Static ``RoundSpec`` reconstruction (``repro.lint.specs``), which the
sparsity rules R015-R016 consume: composed tuples, bail-on-dynamic, and
the specs of the repository's own trainers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import ProgramAnalyzer, discover_sources
from repro.lint.specs import extract_round_specs

from tests.conftest import TRAINER_NAMES, trainer_builders

SRC = Path(__file__).resolve().parent.parent / "src"


def analyze(source: str, name: str = "fixture.py") -> ProgramAnalyzer:
    return ProgramAnalyzer([(name, source)])


def one_spec(source: str):
    (spec,) = extract_round_specs(analyze(source).index)
    return spec


# ----------------------------------------------------------------------
# spec reconstruction
# ----------------------------------------------------------------------
class TestSpecReconstruction:
    def test_composed_tuple_with_helper_call(self):
        spec = one_spec(
            """
class Trainer:
    def round_spec(self):
        return RoundSpec(
            system="x",
            phases=(ComputePhase("a", run="_a", synchronized=False),)
            + tuple(self._comm())
            + (MasterPhase("z", run="_z"),),
        )

    def _comm(self):
        return (
            CommPhase("push", kind=K.PUSH, pattern="gather", sizes="_s"),
        )
"""
        )
        assert spec.phase_names() == ("a", "push", "z")

    def test_dynamic_phases_bail_silently(self):
        analyzer = analyze(
            """
class Trainer:
    def round_spec(self):
        phases = [ComputePhase(n, run="_a", synchronized=False)
                  for n in self.names]
        return RoundSpec(system="x", phases=tuple(phases))
"""
        )
        assert extract_round_specs(analyzer.index) == []

    def test_invalid_specs_are_skipped(self):
        # duplicate phase name: the runtime ctor would reject it, so
        # the rules must not reason about it either
        analyzer = analyze(
            """
class Trainer:
    def round_spec(self):
        return RoundSpec(
            system="x",
            phases=(
                ComputePhase("a", run="_a", synchronized=False),
                MasterPhase("a", run="_b"),
            ),
        )
"""
        )
        assert extract_round_specs(analyzer.index) == []

    def test_local_name_binding_resolves(self):
        spec = one_spec(
            """
class Trainer:
    def round_spec(self):
        phases = (
            ComputePhase("a", run="_a", synchronized=False),
            MasterPhase("b", run="_b"),
        )
        return RoundSpec(system="x", phases=phases)
"""
        )
        assert spec.phase_names() == ("a", "b")


# ----------------------------------------------------------------------
# the repository's own trainers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def static_specs():
    """{class name: [SpecDecl, ...]} over the src tree."""
    analyzer = ProgramAnalyzer(discover_sources([str(SRC)]))
    out = {}
    for spec in extract_round_specs(analyzer.index):
        out.setdefault(spec.cls.name, []).append(spec)
    return out


def _class_name(name: str) -> str:
    return name.split("/")[-1]


def test_static_extraction_covers_every_trainer(static_specs):
    assert {_class_name(name) for name in TRAINER_NAMES} <= set(static_specs)


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_static_spec_matches_the_runtime_spec(
    name, cluster4, tiny_binary, static_specs
):
    trainer = trainer_builders(cluster4, tiny_binary)[name]()
    runtime_names = tuple(p.name for p in trainer.round_spec().phases)
    specs = static_specs[_class_name(name)]
    assert runtime_names in {s.phase_names() for s in specs}


def test_driver_spec_is_reconstructed_with_its_executors(static_specs):
    (spec,) = static_specs["ColumnSGDDriver"]
    assert spec.phase_names() == (
        "compute_statistics", "gather", "reduce", "broadcast", "update_model",
    )
    assert [(p.ctor, p.run or p.sizes) for p in spec.phases] == [
        ("ComputePhase", "_phase_compute_statistics"),
        ("CommPhase", "_statistics_push_sizes"),
        ("MasterPhase", "_phase_reduce"),
        ("CommPhase", "_statistics_size"),
        ("ComputePhase", "_phase_update_model"),
    ]
