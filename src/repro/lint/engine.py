"""AST visitor engine, rule registry, and suppression handling.

The engine parses each file once and walks the tree once, dispatching
every node to all registered rules that declare a ``visit_<NodeType>``
method — the same dispatch scheme as :class:`ast.NodeVisitor`, but
shared across rules so N rules cost one traversal.

Suppression follows the ``noqa`` convention, namespaced to this linter:
a ``# lint: noqa`` comment on the flagged line suppresses every rule,
``# lint: noqa[R001,R004]`` suppresses only the listed rules.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
# --stats bills each rule in real time; lint tooling never runs under
# the simulated clock.
from time import perf_counter  # lint: noqa[R001]
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.lint.findings import Finding

#: Directories a training round runs through: the "no swallowed
#: errors" rule (R005) applies here (and to any file outside the
#: ``repro`` package, so rule fixtures self-apply).
PROTOCOL_DIRS = (
    "sim", "core", "net", "baselines", "partition", "storage", "store",
    "engine", "runtime", "extensions",
)

#: Directory names discovery never recurses into.  ``lint_fixtures``
#: trees deliberately violate the rules, so they are linted only when
#: named explicitly on the command line (as their tests do).
EXCLUDED_DIR_NAMES = ("__pycache__", "build", "dist", "lint_fixtures", "node_modules")

#: Marker (in the first few lines) identifying machine-written files
#: that discovery should skip.
GENERATED_MARKER = "@generated"

_NOQA_RE = re.compile(r"#\s*lint:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")


class FileContext:
    """Everything a rule may want to know about the file being linted."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        parts = Path(path).parts
        if "repro" in parts:
            # Position within the installed package, e.g.
            # src/repro/sim/clock.py -> ("sim", "clock").
            tail = parts[parts.index("repro") + 1:]
        else:
            tail = (parts[-1],) if parts else ()
        self.package_parts: Tuple[str, ...] = tuple(
            p[:-3] if p.endswith(".py") else p for p in tail
        )

    # ------------------------------------------------------------------
    def in_repro_package(self) -> bool:
        """True when the file sits inside the ``repro`` package tree."""
        return "repro" in Path(self.path).parts

    def is_test_code(self) -> bool:
        """Test modules and benchmark code get relaxed numeric rules.

        Files under a ``lint_fixtures`` directory are *not* test code,
        even when that directory lives inside ``tests/`` — fixtures must
        exercise the full rule set.
        """
        parts = Path(self.path).parts
        if "lint_fixtures" in parts:
            return False
        return any(p in ("tests", "benchmarks") for p in parts) or bool(
            self.package_parts and self.package_parts[-1].startswith("test_")
        )

    def is_module(self, *parts: str) -> bool:
        """True when the file is exactly ``repro/<parts...>.py``."""
        return self.package_parts == tuple(parts)

    def in_protocol_path(self) -> bool:
        """R005 applies inside :data:`PROTOCOL_DIRS` — and to files
        outside the package, so fixtures exercise it."""
        if not self.in_repro_package():
            return not self.is_test_code()
        return bool(self.package_parts) and self.package_parts[0] in PROTOCOL_DIRS

    # ------------------------------------------------------------------
    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``line`` carries a ``# lint: noqa`` for ``rule_id``.

        A line may carry several noqa comments; a bare ``noqa`` wins,
        and bracketed lists are unioned.  Unknown ids inside a bracket
        are inert — they suppress nothing and break nothing.
        """
        if not 1 <= line <= len(self.lines):
            return False
        for match in _NOQA_RE.finditer(self.lines[line - 1]):
            listed = match.group(1)
            if listed is None:
                return True
            if rule_id in {r.strip() for r in listed.split(",")}:
                return True
        return False


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement any combination of
    ``visit_<NodeType>(node)`` methods (dispatched by the engine's single
    traversal).  Findings are emitted with :meth:`report`.
    """

    rule_id = "R000"
    title = "untitled rule"
    severity = "error"
    fix_hint = ""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: List[Finding] = []

    def applies(self) -> bool:
        """Whether the rule runs on this file at all (default: yes)."""
        return True

    def report(self, node: ast.AST, message: str, fix_hint: Optional[str] = None) -> None:
        """Record a finding anchored at ``node`` unless suppressed."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.ctx.suppressed(self.rule_id, line):
            return
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=line,
                col=col,
                rule_id=self.rule_id,
                severity=self.severity,
                message=message,
                fix_hint=self.fix_hint if fix_hint is None else fix_hint,
            )
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError("duplicate rule id {}".format(cls.rule_id))
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Copy of the registry, keyed by rule id."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# file discovery
# ----------------------------------------------------------------------
def _excluded_dir(name: str) -> bool:
    return (
        name in EXCLUDED_DIR_NAMES
        or name.endswith(".egg-info")
        or (name.startswith(".") and name not in (".", ".."))
    )


def _load_source(path: Path) -> Optional[str]:
    """Read one candidate file; None means *skip it* (binary, non-UTF-8,
    or machine-generated).  I/O errors propagate as ``OSError``."""
    data = path.read_bytes()
    if b"\x00" in data:
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head = text.splitlines()[:5]
    if any(GENERATED_MARKER in line for line in head):
        return None
    return text


def discover_sources(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand files/directories into ``(path, source)`` pairs.

    Recursion skips ``__pycache__``, hidden and packaging directories,
    fixture trees, binary/non-UTF-8 payloads masquerading as ``.py``,
    and ``@generated`` files — discovery is robust by construction
    rather than by whatever happens to litter the working tree.  Paths
    named explicitly always get a read attempt; a missing one raises
    ``FileNotFoundError`` (a usage error, not a crash).
    """
    sources: List[Tuple[str, str]] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for child in sorted(p.rglob("*.py")):
                if any(_excluded_dir(d) for d in child.relative_to(p).parts[:-1]):
                    continue
                source = _load_source(child)
                if source is not None:
                    sources.append((str(child), source))
        elif p.exists():
            source = _load_source(p)
            if source is not None:
                sources.append((str(p), source))
        else:
            raise FileNotFoundError("no such file or directory: {}".format(path))
    return sources


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class LintEngine:
    """Run a selected set of rules over files, sources, or directories.

    The whole-program rule R011 (:mod:`repro.lint.program`) runs over
    the full file set of each :meth:`lint_paths` call, unless the
    selection leaves it out; per-file entry points (:meth:`lint_source`,
    :meth:`lint_file`) never run it.
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        stats: bool = False,
    ):
        from repro.lint.program import IMPORT_LAYERING

        #: per-rule wall-clock seconds, filled only when ``stats=True``
        #: (the default path adds no timing overhead)
        self.collect_stats = stats
        self.stats: Dict[str, float] = {}

        rules = registered_rules()
        program_id = IMPORT_LAYERING.rule_id
        ignored = set(ignore or ())
        if select:
            unknown = set(select) - set(rules) - {program_id}
            if unknown:
                raise ValueError("unknown rule id(s): {}".format(sorted(unknown)))
            rules = {rid: rules[rid] for rid in select if rid in rules}
        self.rule_classes = [rules[rid] for rid in sorted(rules) if rid not in ignored]
        #: whether :meth:`lint_paths` runs R011
        self.layering = (not select or program_id in select) and program_id not in ignored

    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Lint one source string; syntax errors become E001 findings."""
        return self._lint_source(source, path)[0]

    def _lint_source(
        self, source: str, path: str
    ) -> Tuple[List[Finding], Optional[ast.Module]]:
        """``(findings, tree)``; the tree is None on a syntax error."""
        ctx = FileContext(path, source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule_id="E001",
                    severity="error",
                    message="syntax error: {}".format(exc.msg),
                )
            ], None
        rules = [cls(ctx) for cls in self.rule_classes]
        active = [rule for rule in rules if rule.applies()]
        # Single shared traversal: dispatch each node to every rule that
        # declares a visitor for its type.
        handlers: Dict[str, List] = {}
        for rule in active:
            for name in dir(rule):
                if name.startswith("visit_"):
                    handlers.setdefault(name[len("visit_"):], []).append(
                        (rule.rule_id, getattr(rule, name))
                    )
        if handlers:
            if self.collect_stats:
                for node in ast.walk(tree):
                    for rule_id, handler in handlers.get(type(node).__name__, ()):
                        self._timed(rule_id, handler, node)
            else:
                for node in ast.walk(tree):
                    for _, handler in handlers.get(type(node).__name__, ()):
                        handler(node)
        findings: List[Finding] = []
        for rule in active:
            findings.extend(rule.findings)
        return sorted(findings), tree

    def lint_file(self, path: str) -> List[Finding]:
        """Lint one file from disk."""
        source = Path(path).read_text(encoding="utf-8")
        return self.lint_source(source, str(path))

    def lint_paths(self, paths: Sequence[str]) -> List[Finding]:
        """Lint files and/or directories (recursing into ``*.py``),
        then run the whole-program rule over the same file set."""
        findings: List[Finding] = []
        parsed: List[Tuple[str, str, ast.Module]] = []
        for path, source in discover_sources(paths):
            file_findings, tree = self._lint_source(source, path)
            findings.extend(file_findings)
            if tree is not None:
                parsed.append((path, source, tree))
        if self.layering:
            from repro.lint import program

            findings.extend(
                self._timed(
                    program.IMPORT_LAYERING.rule_id, program.check_import_layering, parsed
                )
            )
        return sorted(findings)

    def _timed(self, rule_id: str, fn, *fn_args):
        """Call ``fn``; when stats are on, bill its wall time to
        ``rule_id``."""
        if not self.collect_stats:
            return fn(*fn_args)
        start = perf_counter()
        try:
            return fn(*fn_args)
        finally:
            elapsed = perf_counter() - start
            self.stats[rule_id] = self.stats.get(rule_id, 0.0) + elapsed


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Resolve ``a.b.c`` attribute chains to a name tuple, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
