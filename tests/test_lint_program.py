"""Tests for the whole-program layer: the import-layering rule (R011),
the program/per-file split of the engine, and — since R007/R008 are
retired — that R001 alone reports a draw or a clock read hidden in a
helper, at the helper."""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintEngine
from repro.lint.cli import main as lint_main
from repro.lint.program import IMPORT_LAYERING

PROGRAM_FIXTURES = Path(__file__).resolve().parent / "lint_fixtures" / "program"
PROGRAM_RULE_IDS = ("R011",)


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


# ----------------------------------------------------------------------
# acceptance scenarios built as throwaway trees
# ----------------------------------------------------------------------
def test_transitive_wallclock_reachable_from_sim(tmp_path):
    """A helper reading the clock two modules away from repro/sim lives
    outside the protocol dirs; R001 lints it anyway and reports the
    import and the call at the helper, so its caller needs no taint
    analysis."""
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
    findings = LintEngine().lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R001", "R001"]
    assert all(f.path.endswith("hostclock.py") for f in findings)
    assert [f.line for f in findings] == [1, 5]
    assert "time.time" in findings[1].message


def test_transitive_entropy_reachable_from_core(tmp_path):
    """An unseeded draw in a ``utils/`` helper called from ``core/`` is
    reported by R001 at the helper."""
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
    findings = LintEngine().lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R001"]
    assert findings[0].path.endswith("shuffle2.py")
    assert "np.random.permutation" in findings[0].message


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
    """``utils/rng.py`` is the one place allowed to build generators —
    R001 exempts it, and calling into it is the fix R001 asks for."""
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
    assert LintEngine().lint_paths([str(tmp_path / "src")]) == []


def test_sanctioned_runtime_local_is_not_a_wallclock_source(tmp_path):
    """The local backend measures wall-clock by contract: R001 lets
    ``runtime/local.py`` import and call ``time``, and nothing else —
    the same timer in any other module is reported there."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "runtime").mkdir()
    (pkg / "utils").mkdir()
    timer = (
        "import time\n\n\ndef measure(fn):\n"
        "    start = time.perf_counter()\n"
        "    out = fn()\n"
        "    return out, time.perf_counter() - start\n"
    )
    (pkg / "runtime" / "local.py").write_text(timer, encoding="utf-8")
    (pkg / "core" / "exec.py").write_text(
        "from repro.runtime.local import measure\n\n\n"
        "def run_round(step):\n    return measure(step)\n",
        encoding="utf-8",
    )
    assert LintEngine().lint_paths([str(tmp_path / "src")]) == []
    (pkg / "utils" / "stopwatch.py").write_text(timer, encoding="utf-8")
    findings = LintEngine().lint_paths([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["R001"] * 3
    assert all(f.path.endswith("stopwatch.py") for f in findings)
    # RNG checks still apply to the wall-clock boundary itself
    (pkg / "utils" / "stopwatch.py").unlink()
    (pkg / "runtime" / "local.py").write_text(
        timer + "import random\n", encoding="utf-8"
    )
    findings = LintEngine().lint_paths([str(tmp_path / "src")])
    assert [(f.rule_id, Path(f.path).name) for f in findings] == [("R001", "local.py")]


# ----------------------------------------------------------------------
# suppression and engine integration
# ----------------------------------------------------------------------
def test_noqa_at_sink_suppresses_program_rule(tmp_path):
    pkg = tmp_path / "src" / "repro"
    (pkg / "models").mkdir(parents=True)
    (pkg / "net").mkdir()
    (pkg / "net" / "wire.py").write_text("WIRE = 1\n", encoding="utf-8")
    leaky = pkg / "models" / "leaky.py"
    leaky.write_text("from repro.net.wire import WIRE\n", encoding="utf-8")
    engine = LintEngine(select=["R011"])
    assert len(engine.lint_paths([str(tmp_path / "src")])) == 1
    leaky.write_text(
        "from repro.net.wire import WIRE  # lint: noqa[R011]\n", encoding="utf-8"
    )
    assert engine.lint_paths([str(tmp_path / "src")]) == []


def test_program_flag_off_skips_program_rules():
    engine = LintEngine(select=["R011"], ignore=["R011"])
    assert engine.lint_paths([str(PROGRAM_FIXTURES / "layering")]) == []


def test_cli_ignore_skips_program_rule(capsys):
    rc = lint_main(
        [str(PROGRAM_FIXTURES / "layering"), "--select", "R011", "--ignore", "R011"]
    )
    capsys.readouterr()
    assert rc == 0


def test_program_rule_is_described():
    assert (IMPORT_LAYERING.rule_id,) == PROGRAM_RULE_IDS
    assert IMPORT_LAYERING.title and IMPORT_LAYERING.severity == "error"
    findings = LintEngine(select=["R011"]).lint_paths([str(PROGRAM_FIXTURES / "layering")])
    assert findings and all(f.fix_hint for f in findings)


def test_per_file_entry_points_never_run_program_rules():
    path = PROGRAM_FIXTURES / "layering" / "repro" / "models" / "bad_model.py"
    engine = LintEngine(select=["R011"])
    assert engine.lint_paths([str(path)])
    assert engine.lint_source(path.read_text(encoding="utf-8"), str(path)) == []
    assert engine.lint_file(str(path)) == []
