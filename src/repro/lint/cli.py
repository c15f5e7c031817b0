"""``python -m repro.lint`` — run the project linter.

Examples::

    python -m repro.lint src                      # whole tree, text output
    python -m repro.lint src --select R001,R005   # only those rules
    python -m repro.lint src --ignore R004        # all but R004
    python -m repro.lint src --ignore R011        # per-file rules only
    python -m repro.lint src --format=json        # machine-readable
    python -m repro.lint src --format=sarif       # GitHub code scanning
    python -m repro.lint --list-rules             # what exists

Exit status: ``0`` clean, ``1`` findings reported, ``2`` usage error
(unknown rule id, missing path), ``3`` internal analysis crash (a rule
raised — a linter bug, not a usage mistake; distinguishable so CI does
not mistype it).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from repro.lint.engine import LintEngine, registered_rules
from repro.lint.findings import Finding
from repro.lint.program import IMPORT_LAYERING

_RANGE_RE = re.compile(r"^([A-Za-z]+)(\d+)-([A-Za-z]+)?(\d+)$")

#: CLI exit statuses, by name.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _expand_range(part: str) -> List[str]:
    """``R004-R006`` -> ``[R004, R005, R006]`` (both prefixes must agree
    when the second is spelled; ``R004-06`` works too).  Anything that
    is not a well-formed ascending range passes through verbatim, so it
    hits the engine's unknown-rule-id usage error instead of silently
    selecting nothing."""
    match = _RANGE_RE.match(part)
    if not match:
        return [part]
    prefix, start_digits, prefix2, end_digits = match.groups()
    if prefix2 is not None and prefix2 != prefix:
        return [part]
    start, end = int(start_digits), int(end_digits)
    if start > end:
        return [part]
    width = len(start_digits)
    return ["{}{:0{}d}".format(prefix, n, width) for n in range(start, end + 1)]


def _split_ids(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    ids: List[str] = []
    for part in value.split(","):
        part = part.strip()
        if part:
            ids.extend(_expand_range(part))
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis for the ColumnSGD reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids or ranges to run, e.g. "
        "R001,R004-R006 (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids or ranges to skip",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule wall time to stderr after linting",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _render_text(findings: List[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        "{} finding(s): {} error(s), {} warning(s)".format(
            len(findings), errors, warnings
        )
    )
    return "\n".join(lines)


def _render_stats(engine: LintEngine) -> str:
    lines = ["rule timings (wall):"]
    for rule_id, seconds in sorted(
        engine.stats.items(), key=lambda kv: kv[1], reverse=True
    ):
        lines.append("  {:<16} {:>9.3f}s".format(rule_id, seconds))
    lines.append("  {:<16} {:>9.3f}s".format("total", sum(engine.stats.values())))
    return "\n".join(lines)


def _executed_rules(engine: LintEngine) -> list:
    """What ``engine`` runs: its per-file rule classes, then R011."""
    return engine.rule_classes + ([IMPORT_LAYERING] if engine.layering else [])


def _render_json(findings: List[Finding], engine: LintEngine) -> str:
    return json.dumps(
        {
            "findings": [f.as_dict() for f in findings],
            "count": len(findings),
            "rules": sorted(rule.rule_id for rule in _executed_rules(engine)),
        },
        indent=2,
        sort_keys=True,
    )


def _render_sarif(findings: List[Finding], engine: LintEngine) -> str:
    """SARIF 2.1.0 for GitHub code scanning (lines and columns 1-based)."""
    rules = sorted(_executed_rules(engine), key=lambda rule: rule.rule_id)
    results = []
    for f in findings:
        text = f.message if not f.fix_hint else "{} (fix: {})".format(
            f.message, f.fix_hint
        )
        results.append(
            {
                "ruleId": f.rule_id,
                "level": f.severity,
                "message": {"text": text},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": max(f.line, 1),
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "docs/linting.md",
                        "rules": [
                            {
                                "id": rule.rule_id,
                                "shortDescription": {"text": rule.title},
                                "defaultConfiguration": {"level": rule.severity},
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in sorted(registered_rules().items()):
            print("{}  {:<50} [{}]".format(rule_id, cls.title, cls.severity))
        rule = IMPORT_LAYERING
        print("{}  {:<50} [{}, program]".format(rule.rule_id, rule.title, rule.severity))
        return EXIT_CLEAN

    try:
        engine = LintEngine(
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            stats=args.stats,
        )
    except ValueError as exc:
        print("usage error: {}".format(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        findings = engine.lint_paths(args.paths)
    except OSError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a rule crashed: linter bug, not usage error
        print(
            "internal error: {}: {}".format(type(exc).__name__, exc),
            file=sys.stderr,
        )
        return EXIT_INTERNAL

    if args.format == "json":
        print(_render_json(findings, engine))
    elif args.format == "sarif":
        print(_render_sarif(findings, engine))
    elif findings:
        print(_render_text(findings))
    else:
        print("clean: no findings")
    if args.stats:
        # stderr, so json/sarif on stdout stay machine-parseable
        print(_render_stats(engine), file=sys.stderr)
    return EXIT_FINDINGS if findings else EXIT_CLEAN
