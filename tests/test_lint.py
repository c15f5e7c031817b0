"""Tests for the repro.lint static-analysis framework (R001, R004-R006,
R019).

The whole-program rule (R011) is covered in
``tests/test_lint_program.py``; this file owns the per-file rules, the
engine/CLI plumbing (discovery, exit codes, noqa, rule-id ranges,
``--stats``), and the self-clean meta-test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import LintEngine, registered_rules
from repro.lint.cli import _split_ids, main as lint_main
from repro.lint.engine import FileContext
from repro.lint.findings import Finding

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
ALL_RULE_IDS = ("R001", "R004", "R005", "R006", "R019")
PROGRAM_RULE_IDS = ("R011",)
LAYERING = FIXTURES / "program" / "layering"


def lint_fixture(name: str, rule_id: str):
    engine = LintEngine(select=[rule_id])
    return engine.lint_file(str(FIXTURES / name))


# ----------------------------------------------------------------------
# per-rule fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_trigger_fixture_fires(rule_id):
    name = "{}_trigger.py".format(rule_id.lower())
    findings = lint_fixture(name, rule_id)
    assert findings, "{} produced no {} findings".format(name, rule_id)
    assert all(f.rule_id == rule_id for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_pass_fixture_is_clean(rule_id):
    name = "{}_pass.py".format(rule_id.lower())
    assert lint_fixture(name, rule_id) == []


def test_trigger_counts():
    """Pin the exact number of violations each trigger fixture encodes."""
    expected = {
        "R001": 9, "R004": 3, "R005": 2, "R006": 2, "R019": 6,
    }
    for rule_id, count in expected.items():
        name = "{}_trigger.py".format(rule_id.lower())
        assert len(lint_fixture(name, rule_id)) == count, rule_id


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
def test_registry_has_all_rules():
    rules = registered_rules()
    assert set(ALL_RULE_IDS) == set(rules)
    for rule_id, cls in rules.items():
        assert cls.rule_id == rule_id
        assert cls.title
        assert cls.severity in ("error", "warning")


def test_select_unknown_rule_raises():
    with pytest.raises(ValueError):
        LintEngine(select=["R999"])


def test_ignore_drops_rule():
    engine = LintEngine(ignore=["R001"])
    findings = engine.lint_file(str(FIXTURES / "r001_trigger.py"))
    assert all(f.rule_id != "R001" for f in findings)


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    findings = LintEngine().lint_file(str(bad))
    assert len(findings) == 1
    assert findings[0].rule_id == "E001"


def test_noqa_suppresses_all_rules():
    src = "import random  # lint: noqa\n"
    assert LintEngine(select=["R001"]).lint_source(src, "snippet.py") == []


def test_noqa_with_rule_list():
    src = "import random  # lint: noqa[R001]\n"
    assert LintEngine(select=["R001"]).lint_source(src, "snippet.py") == []
    other = "import random  # lint: noqa[R004]\n"
    assert LintEngine(select=["R001"]).lint_source(other, "snippet.py")


def test_noqa_multiple_comments_on_one_line():
    """Every noqa comment on the line counts, not just the first."""
    src = "import numpy as np\nx = np.random.rand()  # lint: noqa[R004] # lint: noqa[R001]\n"
    assert LintEngine(select=["R001"]).lint_source(src, "snippet.py") == []
    unsuppressed = "import numpy as np\nx = np.random.rand()  # lint: noqa[R004]\n"
    assert LintEngine(select=["R001"]).lint_source(unsuppressed, "snippet.py")


def test_noqa_whitespace_inside_bracket_list():
    src = "import numpy as np\nx = np.random.rand()  # lint: noqa[ R001 , R004 ]\n"
    assert LintEngine(select=["R001"]).lint_source(src, "snippet.py") == []


def test_noqa_unknown_rule_id_is_inert():
    src = "import numpy as np\nx = np.random.rand()  # lint: noqa[R999]\n"
    findings = LintEngine(select=["R001"]).lint_source(src, "snippet.py")
    assert [f.rule_id for f in findings] == ["R001"]


def test_test_code_is_exempt_from_numeric_rules():
    src = "import random\nx = random.random()\n"
    findings = LintEngine(select=["R001"]).lint_source(
        src, "tests/test_something.py"
    )
    assert findings == []


def test_fixture_dir_is_not_test_code():
    ctx = FileContext("tests/lint_fixtures/r001_trigger.py", "")
    assert not ctx.is_test_code()
    assert ctx.in_protocol_path()


def test_protocol_dirs_classification():
    assert FileContext("src/repro/sim/clock.py", "").in_protocol_path()
    assert FileContext("src/repro/net/network.py", "").in_protocol_path()
    # the round engine and the module where real failures are caught
    assert FileContext("src/repro/engine/engine.py", "").in_protocol_path()
    assert FileContext("src/repro/runtime/local.py", "").in_protocol_path()
    assert FileContext("src/repro/extensions/cocoa.py", "").in_protocol_path()
    assert not FileContext("src/repro/plots/figures.py", "").in_protocol_path()


# ----------------------------------------------------------------------
# file discovery
# ----------------------------------------------------------------------
def test_discovery_skips_pycache_and_hidden_dirs(tmp_path):
    (tmp_path / "ok.py").write_text("import random\n", encoding="utf-8")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("import random\n", encoding="utf-8")
    (tmp_path / ".venv").mkdir()
    (tmp_path / ".venv" / "hidden.py").write_text("import random\n", encoding="utf-8")
    (tmp_path / "pkg.egg-info").mkdir()
    (tmp_path / "pkg.egg-info" / "meta.py").write_text("import random\n", encoding="utf-8")
    findings = LintEngine(select=["R001"]).lint_paths([str(tmp_path)])
    assert {Path(f.path).name for f in findings} == {"ok.py"}


def test_discovery_skips_binary_nonutf8_and_generated(tmp_path):
    (tmp_path / "ok.py").write_text("import random\n", encoding="utf-8")
    (tmp_path / "binary.py").write_bytes(b"\x00\x01\x02compiled junk")
    (tmp_path / "latin.py").write_bytes("x = 'caf\xe9'\nimport random\n".encode("latin-1"))
    (tmp_path / "generated.py").write_text(
        "# @generated by a build tool\nimport random\n", encoding="utf-8"
    )
    findings = LintEngine(select=["R001"]).lint_paths([str(tmp_path)])
    assert {Path(f.path).name for f in findings} == {"ok.py"}


def test_discovery_never_recurses_into_fixture_trees():
    """Linting tests/ must not drown in the deliberately-dirty fixtures;
    naming the fixture dir explicitly (as these tests do) still works."""
    findings = LintEngine(ignore=["R011"]).lint_paths([str(FIXTURES.parent)])
    assert all("lint_fixtures" not in f.path for f in findings)
    assert LintEngine(select=["R001"]).lint_paths([str(FIXTURES / "r001_trigger.py")])


def test_discovery_missing_path_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        LintEngine().lint_paths([str(tmp_path / "no_such_file.py")])


def test_finding_render_format():
    finding = Finding(
        path="a.py", line=3, col=1, rule_id="R001",
        severity="error", message="msg", fix_hint="hint",
    )
    rendered = finding.render()
    assert "a.py:3:1" in rendered
    assert "[R001]" in rendered
    assert "hint" in rendered


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_clean_on_pass_fixture(capsys):
    rc = lint_main([str(FIXTURES / "r006_pass.py")])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_cli_nonzero_on_trigger_fixtures(capsys):
    rc = lint_main([str(FIXTURES)])
    assert rc == 1
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_json_format(capsys):
    rc = lint_main([str(FIXTURES / "r004_trigger.py"), "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    first = payload["findings"][0]
    assert {"path", "line", "col", "rule_id", "severity", "message"} <= set(first)


def test_cli_sarif_format(capsys):
    rc = lint_main(
        [str(LAYERING), "--select", "R011", "--format", "sarif"]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    (run,) = payload["runs"]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["R011"]
    assert run["results"], "trigger fixture must produce SARIF results"
    for result in run["results"]:
        assert result["ruleId"] == "R011"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        # SARIF regions are 1-based
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_cli_sarif_clean_is_valid(capsys):
    rc = lint_main(
        [str(LAYERING / "repro" / "models" / "good_model.py"),
         "--select", "R011", "--format", "sarif"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"] == []


def test_cli_select_and_ignore(capsys):
    rc = lint_main([str(FIXTURES), "--select", "R005"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "R005" in out and "R001" not in out

    rc = lint_main([str(FIXTURES / "r005_trigger.py"), "--ignore", "R005"])
    capsys.readouterr()
    assert rc == 0


def test_cli_unknown_rule_is_usage_error(capsys):
    rc = lint_main(["--select", "R999", str(FIXTURES)])
    assert rc == 2


def test_cli_missing_path_is_usage_error(capsys):
    rc = lint_main(["/no/such/path_for_lint.py"])
    capsys.readouterr()
    assert rc == 2


def test_cli_internal_crash_is_exit_3(monkeypatch, capsys):
    """A rule raising is a linter bug (exit 3), not a usage error."""
    from repro.lint import program as program_module

    def boom(parsed):
        raise RuntimeError("injected rule crash")

    monkeypatch.setattr(program_module, "check_import_layering", boom)
    rc = lint_main([str(FIXTURES / "r006_pass.py")])
    assert rc == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_exit_codes_are_distinct(capsys):
    """0 clean / 1 findings / 2 usage — the full ladder, one test."""
    assert lint_main([str(FIXTURES / "r006_pass.py")]) == 0
    assert lint_main([str(FIXTURES / "r001_trigger.py"), "--select", "R001"]) == 1
    assert lint_main(["--select", "bogus", str(FIXTURES)]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    rc = lint_main(["--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS + PROGRAM_RULE_IDS:
        assert rule_id in out
    assert "program" in out


def test_cli_json_reports_executed_rules(capsys):
    rc = lint_main([str(FIXTURES / "r006_pass.py"), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(ALL_RULE_IDS + PROGRAM_RULE_IDS) == set(payload["rules"])


# ----------------------------------------------------------------------
# CLI: rule-id ranges and --stats
# ----------------------------------------------------------------------
def test_split_ids_expands_ranges():
    assert _split_ids("R012-R014") == ["R012", "R013", "R014"]
    assert _split_ids("R001,R004-R006") == ["R001", "R004", "R005", "R006"]
    assert _split_ids("R012-14") == ["R012", "R013", "R014"]
    # malformed ranges pass through and hit the unknown-id usage error
    assert _split_ids("R014-R012") == ["R014-R012"]
    assert _split_ids("R012-E014") == ["R012-E014"]
    assert _split_ids(None) is None


def test_cli_accepts_rule_ranges(capsys):
    rc = lint_main([str(FIXTURES / "r005_pass.py"), "--select", "R004-R006"])
    capsys.readouterr()
    assert rc == 0


def test_cli_rejects_malformed_range(capsys):
    rc = lint_main([str(FIXTURES / "r005_pass.py"), "--select", "R006-R004"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown rule id" in captured.err


def test_cli_stats_prints_per_rule_timings(capsys):
    rc = lint_main(
        [str(LAYERING / "repro" / "models" / "good_model.py"),
         "--select", "R001,R011", "--stats"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "rule timings" in captured.err
    assert "R001" in captured.err and "R011" in captured.err
    assert "total" in captured.err
    # stdout stays clean for machine formats
    assert "rule timings" not in captured.out


def test_stats_off_by_default():
    engine = LintEngine(select=["R011"])
    engine.lint_paths([str(LAYERING)])
    assert engine.stats == {}


# ----------------------------------------------------------------------
# the self-clean meta-test: the repo must pass its own linter
# ----------------------------------------------------------------------
def test_repo_source_tree_is_lint_clean():
    """src, tests, and examples all pass every live rule — the same file
    set CI lints, the whole-program rule included."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src", "tests", "examples",
         "--format", "json"],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["findings"] == []
    assert set(ALL_RULE_IDS + PROGRAM_RULE_IDS) == set(payload["rules"])
