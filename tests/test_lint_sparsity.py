"""Tests for the sparsity-safety analysis (rules R015-R016) and the
lint CLI additions that rode along (--stats, rule-id ranges)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import LintEngine
from repro.lint.cli import _split_ids, main as lint_main
from repro.lint.sparsity import (
    CLASS_NAMES,
    CostInference,
    O1,
    OB,
    OD,
    ONNZ,
    PRIMITIVE_COSTS,
    classify_size_expr,
    classify_size_name,
    np_alloc_class,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PROGRAM_FIXTURES = Path(__file__).resolve().parent / "lint_fixtures" / "program"

SPARSITY_RULES = ("R015", "R016")


def lint_program_fixture(name: str, rule_id: str):
    engine = LintEngine(select=[rule_id])
    return engine.lint_paths([str(PROGRAM_FIXTURES / name)])


# ----------------------------------------------------------------------
# lattice and classifiers
# ----------------------------------------------------------------------
def test_lattice_order():
    assert O1 < OB < ONNZ < OD
    assert set(CLASS_NAMES) == {O1, OB, ONNZ, OD}


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("nnz", ONNZ),
        ("batch_nnz", ONNZ),
        ("global_indices", ONNZ),
        ("dim", OD),
        ("local_dim", OD),
        ("n_features", OD),
        ("model_elements", OD),
        ("n_workers", O1),
        ("width", O1),
        ("statistics_width", O1),
        ("batch_size", OB),
        ("rows", OB),
        ("self", O1),  # receivers never classify as size terms
    ],
)
def test_classify_size_name(name, expected):
    assert classify_size_name(name) == expected


def test_classify_size_expr_joins_identifiers():
    expr = ast.parse("self.dim * width + batch_size", mode="eval").body
    assert classify_size_expr(expr) == OD
    expr = ast.parse("local.nnz * 2", mode="eval").body
    assert classify_size_expr(expr) == ONNZ
    expr = ast.parse("64", mode="eval").body
    assert classify_size_expr(expr) == O1


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("np.zeros(self.dim)", OD),
        ("np.zeros(batch_size)", OB),
        ("np.zeros_like(self._params)", OD),
        ("np.zeros_like(scores)", OB),
        ("np.zeros_like(self._w)", OD),
        ("np.empty(width)", O1),
        ("np.dot(a, b)", None),  # not an allocation
        ("torch.zeros(dim)", None),  # not a numpy root
    ],
)
def test_np_alloc_class(source, expected):
    call = ast.parse(source, mode="eval").body
    from repro.lint.engine import dotted_name

    assert np_alloc_class(call, dotted_name(call.func)) == expected


def test_primitive_table_covers_the_densifiers():
    assert PRIMITIVE_COSTS["to_dense"] == OD
    assert PRIMITIVE_COSTS["hstack_from_partitions"] == OD
    assert PRIMITIVE_COSTS["dot"] == ONNZ
    # ambiguous names must stay out (dict.items(), np.empty collisions)
    assert "items" not in PRIMITIVE_COSTS
    assert "empty" not in PRIMITIVE_COSTS


def test_trip_class():
    def trip(source):
        return CostInference._trip_class(ast.parse(source, mode="eval").body)

    assert trip("range(self.dim)") == OD
    assert trip("range(n_workers)") == O1
    assert trip("batch.iter_rows()") == ONNZ
    assert trip("enumerate(range(self.dim))") == OD
    assert trip("some_list") == OB


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", SPARSITY_RULES)
def test_trigger_fixture_fires(rule_id):
    name = "{}_trigger.py".format(rule_id.lower())
    findings = lint_program_fixture(name, rule_id)
    assert findings, "{} produced no {} findings".format(name, rule_id)
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", SPARSITY_RULES)
def test_pass_fixture_is_clean(rule_id):
    name = "{}_pass.py".format(rule_id.lower())
    assert lint_program_fixture(name, rule_id) == []


def test_trigger_counts():
    """Pin the exact violation count each trigger fixture encodes."""
    expected = {"R015": 3, "R016": 1}
    for rule_id, count in expected.items():
        name = "{}_trigger.py".format(rule_id.lower())
        findings = lint_program_fixture(name, rule_id)
        assert len(findings) == count, (rule_id, [f.render() for f in findings])


def test_r015_messages_carry_witness_chains():
    findings = lint_program_fixture("r015_trigger.py", "R015")
    assert all("via " in f.message for f in findings)
    coercions = [f for f in findings if "coerced dense" in f.message]
    assert len(coercions) == 1
    # the coercion sits in a helper, so its chain crosses a call edge
    assert "_phase_update -> _merge" in coercions[0].message


def test_r016_message_names_both_classes():
    (finding,) = lint_program_fixture("r016_trigger.py", "R016")
    assert "O(d)" in finding.message and "O(nnz)" in finding.message


def test_source_tree_is_sparsity_clean():
    """The real tree passes R015-R016 (reviewed sites carry noqa)."""
    engine = LintEngine(select=list(SPARSITY_RULES))
    assert engine.lint_paths([str(SRC)]) == []


# ----------------------------------------------------------------------
# CLI: ranges and --stats
# ----------------------------------------------------------------------
def test_split_ids_expands_ranges():
    assert _split_ids("R012-R014") == ["R012", "R013", "R014"]
    assert _split_ids("R001,R015-R016") == ["R001", "R015", "R016"]
    assert _split_ids("R012-14") == ["R012", "R013", "R014"]
    # malformed ranges pass through and hit the unknown-id usage error
    assert _split_ids("R014-R012") == ["R014-R012"]
    assert _split_ids("R012-E014") == ["R012-E014"]
    assert _split_ids(None) is None


def test_cli_accepts_rule_ranges(capsys):
    rc = lint_main(
        [str(PROGRAM_FIXTURES / "r016_pass.py"), "--select", "R015-R016"]
    )
    capsys.readouterr()
    assert rc == 0


def test_cli_rejects_malformed_range(capsys):
    rc = lint_main(
        [str(PROGRAM_FIXTURES / "r016_pass.py"), "--select", "R016-R015"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown rule id" in captured.err


def test_cli_stats_prints_per_rule_timings(capsys):
    rc = lint_main(
        [
            str(PROGRAM_FIXTURES / "r016_pass.py"),
            "--select", "R015,R016",
            "--stats",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "rule timings" in captured.err
    assert "R015" in captured.err and "R016" in captured.err
    assert "total" in captured.err
    # stdout stays clean for machine formats
    assert "rule timings" not in captured.out


def test_stats_off_by_default():
    engine = LintEngine(select=["R015"])
    engine.lint_paths([str(PROGRAM_FIXTURES / "r015_pass.py")])
    assert engine.stats == {}
