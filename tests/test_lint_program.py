"""Tests for the whole-program analysis layer (rules R007-R011)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines.base import RowSGDConfig
from repro.baselines.mllib import MLlibTrainer
from repro.baselines.mllib_star import MLlibStarTrainer
from repro.baselines.parameter_server import ParameterServerTrainer
from repro.baselines.sparse_ps import SparsePSTrainer
from repro.baselines.ssp import StaleSyncPSTrainer
from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.lint import LintEngine, discover_sources, registered_program_rules
from repro.lint.cli import main as lint_main
from repro.lint.program import (
    UNCHECKED_KINDS,
    ProgramAnalyzer,
    extract_round_protocol,
)
from repro.models.linear import LogisticRegression
from repro.optim.sgd import SGD

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PROGRAM_FIXTURES = Path(__file__).resolve().parent / "lint_fixtures" / "program"
PROGRAM_RULE_IDS = (
    "R007", "R008", "R009", "R010", "R011", "R015", "R016", "R017",
)


def lint_program_fixture(name: str, rule_id: str):
    engine = LintEngine(select=[rule_id])
    return engine.lint_paths([str(PROGRAM_FIXTURES / name)])


# ----------------------------------------------------------------------
# per-rule fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", ("R007", "R008", "R009", "R010"))
def test_trigger_fixture_fires(rule_id):
    name = "{}_trigger.py".format(rule_id.lower())
    findings = lint_program_fixture(name, rule_id)
    assert findings, "{} produced no {} findings".format(name, rule_id)
    assert all(f.rule_id == rule_id for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("rule_id", ("R007", "R008", "R009", "R010"))
def test_pass_fixture_is_clean(rule_id):
    name = "{}_pass.py".format(rule_id.lower())
    assert lint_program_fixture(name, rule_id) == []


def test_trigger_counts():
    """Pin the exact number of violations each trigger fixture encodes."""
    expected = {"R007": 2, "R008": 2, "R009": 2, "R010": 1}
    for rule_id, count in expected.items():
        name = "{}_trigger.py".format(rule_id.lower())
        assert len(lint_program_fixture(name, rule_id)) == count, rule_id


def test_layering_fixture():
    engine = LintEngine(select=["R011"])
    findings = engine.lint_paths([str(PROGRAM_FIXTURES / "layering")])
    assert [f.rule_id for f in findings] == ["R011", "R011"]
    by_file = {Path(f.path).name: f for f in findings}
    assert set(by_file) == {"bad_model.py", "bad_backend.py"}
    assert "repro.sim.clock" in by_file["bad_model.py"].message
    assert "repro.core.driver" in by_file["bad_backend.py"].message
    assert "runtime layer" in by_file["bad_backend.py"].message
    assert "good_backend" not in {Path(f.path).name for f in findings}


def test_r009_reports_at_the_literal_line():
    findings = lint_program_fixture("r009_trigger.py", "R009")
    source = (PROGRAM_FIXTURES / "r009_trigger.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    flagged = {lines[f.line - 1].strip() for f in findings}
    assert flagged == {"return 4096", "send_padded(net, 512)"}


def test_r007_message_names_the_path():
    findings = lint_program_fixture("r007_trigger.py", "R007")
    assert any("jitter_seed -> numpy.random.default_rng" in f.message for f in findings)
    assert any("hidden_reseed -> jitter_seed" in f.message for f in findings)


# ----------------------------------------------------------------------
# acceptance scenarios built as throwaway trees
# ----------------------------------------------------------------------
def test_transitive_wallclock_reachable_from_sim(tmp_path):
    """A helper calling time.time() two modules away from repro/sim is
    invisible to per-file R003 but must fail R008."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "utils").mkdir()
    (pkg / "utils" / "hostclock.py").write_text(
        "import time\n\n\ndef host_now():\n    return time.time()\n",
        encoding="utf-8",
    )
    (pkg / "sim" / "advance.py").write_text(
        "from repro.utils.hostclock import host_now\n\n\n"
        "def advance(clock):\n    clock.now = host_now()\n",
        encoding="utf-8",
    )
    findings = LintEngine(select=["R008"]).lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R008"]
    assert findings[0].path.endswith("advance.py")
    assert "time.time" in findings[0].message


def test_transitive_entropy_reachable_from_core(tmp_path):
    pkg = tmp_path / "src" / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "utils").mkdir()
    (pkg / "utils" / "shuffle2.py").write_text(
        "import numpy as np\n\n\ndef scramble(xs):\n"
        "    return np.random.permutation(xs)\n",
        encoding="utf-8",
    )
    (pkg / "core" / "picker.py").write_text(
        "from repro.utils.shuffle2 import scramble\n\n\n"
        "def pick(xs):\n    return scramble(xs)[0]\n",
        encoding="utf-8",
    )
    findings = LintEngine(select=["R007"]).lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R007"]
    assert findings[0].path.endswith("picker.py")


def test_transitive_layering_violation(tmp_path):
    """models -> utils -> net is a violation even though the first hop
    looks innocent."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "models").mkdir(parents=True)
    (pkg / "utils").mkdir()
    (pkg / "net").mkdir()
    (pkg / "net" / "wire.py").write_text("WIRE = 1\n", encoding="utf-8")
    (pkg / "utils" / "bridge.py").write_text(
        "from repro.net.wire import WIRE\n\n\ndef wire():\n    return WIRE\n",
        encoding="utf-8",
    )
    (pkg / "models" / "leaky.py").write_text(
        "from repro.utils.bridge import wire\n\n\ndef use():\n    return wire()\n",
        encoding="utf-8",
    )
    findings = LintEngine(select=["R011"]).lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R011"]
    assert findings[0].path.endswith("leaky.py")
    assert "repro.net.wire" in findings[0].message


def test_sanctioned_rng_module_is_not_a_taint_source(tmp_path):
    """Calls into repro.utils.rng are the *fix* R007 asks for — they
    must never count as reaching entropy."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "utils").mkdir()
    (pkg / "utils" / "rng.py").write_text(
        "import numpy as np\n\n\ndef rng_from_seed(seed):\n"
        "    return np.random.default_rng(seed)\n",
        encoding="utf-8",
    )
    (pkg / "sim" / "draw.py").write_text(
        "from repro.utils.rng import rng_from_seed\n\n\n"
        "def draw(seed):\n    return rng_from_seed(seed).integers(0, 10)\n",
        encoding="utf-8",
    )
    assert LintEngine(select=["R007"]).lint_paths([str(tmp_path / "src")]) == []


def test_sanctioned_runtime_local_is_not_a_wallclock_source(tmp_path):
    """The local backend measures wall-clock by contract: trainer code
    may call through repro.runtime.local without tripping R008, but any
    other module owning a timer still taints its callers."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "runtime").mkdir()
    (pkg / "utils").mkdir()
    (pkg / "runtime" / "local.py").write_text(
        "import time\n\n\ndef measure(fn):\n"
        "    start = time.perf_counter()\n"
        "    out = fn()\n"
        "    return out, time.perf_counter() - start\n",
        encoding="utf-8",
    )
    (pkg / "core" / "exec.py").write_text(
        "from repro.runtime.local import measure\n\n\n"
        "def run_round(step):\n    return measure(step)\n",
        encoding="utf-8",
    )
    assert LintEngine(select=["R008"]).lint_paths([str(tmp_path / "src")]) == []
    # ... while the same timer in an unsanctioned module still fires.
    (pkg / "utils" / "stopwatch.py").write_text(
        "import time\n\n\ndef elapsed(fn):\n"
        "    start = time.perf_counter()\n"
        "    fn()\n    return time.perf_counter() - start\n",
        encoding="utf-8",
    )
    (pkg / "core" / "leaky.py").write_text(
        "from repro.utils.stopwatch import elapsed\n\n\n"
        "def run_round(step):\n    return elapsed(step)\n",
        encoding="utf-8",
    )
    findings = LintEngine(select=["R008"]).lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R008"]
    assert findings[0].path.endswith("leaky.py")


# ----------------------------------------------------------------------
# suppression and engine integration
# ----------------------------------------------------------------------
def test_noqa_at_sink_suppresses_program_rule(tmp_path):
    flagged = tmp_path / "proto_helper.py"
    flagged.write_text(
        "import time\n\n\n"
        "def read_clock():\n    return time.monotonic()\n\n\n"
        "def stamp():\n    return read_clock()  # lint: noqa[R008]\n",
        encoding="utf-8",
    )
    assert LintEngine(select=["R008"]).lint_paths([str(flagged)]) == []


def test_program_flag_off_skips_program_rules():
    engine = LintEngine(select=["R008"], program=False)
    assert engine.lint_paths([str(PROGRAM_FIXTURES / "r008_trigger.py")]) == []


def test_cli_no_program_flag(capsys):
    rc = lint_main(
        [str(PROGRAM_FIXTURES / "r007_trigger.py"), "--select", "R007", "--no-program"]
    )
    capsys.readouterr()
    assert rc == 0


def test_program_registry_is_complete():
    rules = registered_program_rules()
    assert set(PROGRAM_RULE_IDS) == set(rules)
    for rule_id, cls in rules.items():
        assert cls.rule_id == rule_id
        assert cls.title
        assert cls.fix_hint


def test_per_file_entry_points_never_run_program_rules():
    source = (PROGRAM_FIXTURES / "r008_trigger.py").read_text(encoding="utf-8")
    findings = LintEngine(select=["R008"]).lint_source(source, "r008_trigger.py")
    assert findings == []


# ----------------------------------------------------------------------
# static extraction vs the runtime ProtocolChecker declarations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def src_protocols():
    analyzer = ProgramAnalyzer(discover_sources([str(SRC)]))
    return extract_round_protocol(analyzer.index)


BSP_BASELINES = [
    (MLlibTrainer, "repro.baselines.mllib.MLlibTrainer"),
    (MLlibStarTrainer, "repro.baselines.mllib_star.MLlibStarTrainer"),
    (ParameterServerTrainer, "repro.baselines.parameter_server.ParameterServerTrainer"),
    (SparsePSTrainer, "repro.baselines.sparse_ps.SparsePSTrainer"),
    (StaleSyncPSTrainer, "repro.baselines.ssp.StaleSyncPSTrainer"),
]

ENGINE_TRAINERS = {
    "repro.core.driver.ColumnSGDDriver",
    "repro.baselines.mllib.MLlibTrainer",
    "repro.baselines.mllib_star.MLlibStarTrainer",
    "repro.baselines.parameter_server.ParameterServerTrainer",
    "repro.baselines.sparse_ps.SparsePSTrainer",
    "repro.baselines.ssp.StaleSyncPSTrainer",
    "repro.extensions.cocoa.CoCoATrainer",
    "repro.extensions.coordinate_descent.RidgeCDTrainer",
    "repro.extensions.deep_mlp.DeepMLPColumnTrainer",
    "repro.extensions.mlp.MLPColumnTrainer",
}


def test_extraction_covers_every_engine_trainer(src_protocols):
    assert set(src_protocols) == ENGINE_TRAINERS


def test_extraction_is_internally_consistent(src_protocols):
    for qualname, record in src_protocols.items():
        assert record["style"] == "spec", qualname
        assert record["declared"], qualname
        # With the engine, only the CommPhase declarations emit traffic;
        # any kind found inside an executor body must also be declared.
        assert record["emitted"] <= record["declared"], qualname


def test_unchecked_kinds_mirror_runtime_checker():
    """The static extractor must skip exactly the kinds the runtime
    ProtocolChecker skips (scheduling, heartbeat, recovery traffic) —
    neither list may drift without the other."""
    from repro.net import protocol

    assert set(UNCHECKED_KINDS) == {k.name for k in protocol.UNCHECKED_KINDS}


@pytest.mark.parametrize("trainer_cls,qualname", BSP_BASELINES)
def test_static_extraction_matches_runtime_declaration(
    trainer_cls, qualname, cluster4, tiny_binary, src_protocols
):
    """The kinds the static extractor infers must equal the kinds the
    runtime ProtocolChecker is told to expect on a real checked run."""
    config = RowSGDConfig(batch_size=64, iterations=2, check_protocol=True)
    trainer = trainer_cls(LogisticRegression(), SGD(0.1), cluster4, config=config)
    trainer.load(tiny_binary)
    trainer.fit()
    runtime_kinds = {kind.name for kind in trainer.round_spec().comm_kinds()}
    assert src_protocols[qualname]["declared"] == runtime_kinds


def test_static_extraction_matches_runtime_driver_declaration(
    cluster4, tiny_binary, src_protocols
):
    config = ColumnSGDConfig(batch_size=64, iterations=2, check_protocol=True)
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.1), cluster4, config=config)
    driver.load(tiny_binary)
    driver.fit()
    runtime_kinds = {kind.name for kind in driver.round_spec().comm_kinds()}
    record = src_protocols["repro.core.driver.ColumnSGDDriver"]
    assert record["declared"] == runtime_kinds
