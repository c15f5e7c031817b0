"""The project-specific per-file rules (R001, R004-R006, R019).

Each rule enforces one invariant the reproduction's correctness
arguments rest on; ``docs/linting.md`` explains the why of each.  Rules
are small AST checks registered with the engine; add a new one by
subclassing :class:`~repro.lint.engine.Rule` and decorating it with
:func:`~repro.lint.engine.register`.
"""

from __future__ import annotations

import ast
from pathlib import Path as _Path
from typing import Dict, Optional

from repro.lint.engine import Rule, dotted_name, register

#: Wall-clock entry points of the ``time`` module.
WALLCLOCK_TIME_FUNCS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "clock",
    "sleep",
}

#: ``np.random`` members that are types, not entropy sources.
ALLOWED_NP_RANDOM = {"Generator", "BitGenerator", "SeedSequence"}

DATETIME_NOW_FUNCS = {"now", "utcnow", "today", "fromtimestamp"}

#: Modules whose whole product is unseeded entropy.
ENTROPY_MODULES = ("random", "secrets")

#: OS-level entropy reads, as full call chains.
OS_ENTROPY_CALLS = (("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4"))

#: Modules that read the host clock; outside ``runtime/local.py`` even
#: the import is flagged, so an alias (``import time as t``) cannot hide
#: the calls.
WALLCLOCK_MODULES = ("time", "datetime")


@register
class DeterminismRule(Rule):
    """R001: all randomness must flow through ``repro.utils.rng``.

    The driver's exactness invariant (identical trajectory to
    single-machine SGD) only holds if every stochastic draw is derived
    from the job seed.  Global-state RNGs (``random``, ``np.random.*``),
    OS entropy (``os.urandom``, ``uuid``, ``secrets``) and wall-clock
    reads break replay — and simulated time is the *output* of the cost
    models, so a host clock must not leak into it either.

    The rule runs on every non-test file except ``utils/rng.py``, so a
    helper that hides a draw or a clock read from its protocol-path
    caller is itself reported: no reachability analysis is needed.
    """

    rule_id = "R001"
    title = "non-deterministic entropy source"
    severity = "error"
    fix_hint = "derive generators via repro.utils.rng (rng_from_seed / iteration_seed)"
    clock_hint = (
        "advance repro.sim.clock.SimClock with cost-model durations, or "
        "measure through repro.runtime.local (the one wall-clock boundary)"
    )

    def applies(self) -> bool:
        return not self.ctx.is_module("utils", "rng") and not self.ctx.is_test_code()

    def _measures_wallclock(self) -> bool:
        """The local execution backend times real worker processes —
        wall-clock measurement is its contract (the RNG checks still
        apply to it)."""
        return self.ctx.is_module("runtime", "local")

    def _report_clock(self, node: ast.AST, message: str) -> None:
        self.report(node, message, fix_hint=self.clock_hint)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ENTROPY_MODULES:
                self.report(node, "import of the entropy module '{}'".format(root))
            elif root in WALLCLOCK_MODULES and not self._measures_wallclock():
                self._report_clock(node, "import of the wall-clock module '{}'".format(root))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module in ENTROPY_MODULES:
            self.report(node, "import from the entropy module '{}'".format(module))
        elif module == "numpy.random":
            bad = [a.name for a in node.names if a.name not in ALLOWED_NP_RANDOM]
            if bad:
                self.report(
                    node,
                    "import of numpy.random entropy source(s) {}".format(bad),
                )
        elif module == "time" and not self._measures_wallclock():
            bad = [a.name for a in node.names if a.name in WALLCLOCK_TIME_FUNCS]
            if bad:
                self._report_clock(node, "import of wall-clock function(s) {}".format(bad))

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if not chain:
            return
        if chain[0] in ("np", "numpy") and len(chain) >= 3 and chain[1] == "random":
            if chain[2] not in ALLOWED_NP_RANDOM:
                self.report(
                    node,
                    "call to {} — global/unseeded numpy entropy".format(".".join(chain)),
                )
        elif chain[0] in ENTROPY_MODULES and len(chain) >= 2:
            self.report(node, "call to {} — unseeded entropy".format(".".join(chain)))
        elif chain in OS_ENTROPY_CALLS:
            self.report(node, "call to {} — OS entropy".format(".".join(chain)))
        elif (
            (chain[0] == "time" and len(chain) == 2 and chain[1] in WALLCLOCK_TIME_FUNCS)
            or (chain[0] in ("datetime", "date") and chain[-1] in DATETIME_NOW_FUNCS)
        ) and not self._measures_wallclock():
            self._report_clock(node, "call to {} — wall-clock entropy".format(".".join(chain)))


@register
class FloatEqualityRule(Rule):
    """R004: no ``==``/``!=`` against inexact float literals.

    Statistics cross the simulated wire through rounding (fp32 mode), so
    exact equality against values like ``0.1`` that have no exact binary
    representation is a latent bug.  Comparisons against integral floats
    (``0.0``, ``1.0``, ``-1.0``) are exact in IEEE-754 and stay legal
    (sentinel and mask checks); everything else needs ``math.isclose`` /
    ``np.isclose``.  ``== nan`` is always False and is flagged too.
    """

    rule_id = "R004"
    title = "exact equality against inexact float"
    severity = "error"
    fix_hint = "use math.isclose / np.isclose (or compare against an integral sentinel)"

    def applies(self) -> bool:
        return not self.ctx.is_test_code()

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[i], operands[i + 1]):
                problem = self._inexact(side)
                if problem:
                    self.report(node, problem)
                    break

    @staticmethod
    def _inexact(expr: ast.AST) -> Optional[str]:
        value = None
        if isinstance(expr, ast.Constant):
            value = expr.value
        elif (
            isinstance(expr, ast.UnaryOp)
            and isinstance(expr.op, ast.USub)
            and isinstance(expr.operand, ast.Constant)
        ):
            value = expr.operand.value
        chain = dotted_name(expr)
        if chain and chain[-1] == "nan":
            return "equality against NaN is always False"
        if isinstance(value, float) and value != int(value):
            return "exact equality against inexact float literal {!r}".format(value)
        return None


@register
class SwallowedErrorRule(Rule):
    """R005: protocol paths must not swallow exceptions.

    A bare/over-broad ``except`` in the driver, network, or simulator
    can hide a protocol violation (a dropped message, a failed barrier)
    and let a run complete with silently wrong accounting.
    """

    rule_id = "R005"
    title = "bare or over-broad exception handler"
    severity = "error"
    fix_hint = "catch a specific repro.errors type, or re-raise"

    def applies(self) -> bool:
        return self.ctx.in_protocol_path()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' swallows every error including protocol bugs")
            return
        names = []
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for t in types:
            chain = dotted_name(t)
            if chain:
                names.append(chain[-1])
        if any(n in ("Exception", "BaseException") for n in names):
            if not any(isinstance(child, ast.Raise) for child in ast.walk(node)):
                self.report(
                    node,
                    "'except {}' without re-raise swallows protocol errors".format(
                        "/".join(names)
                    ),
                )


@register
class ConfigValidationRule(Rule):
    """R006: public config dataclasses must validate numeric fields.

    Config objects are the user-facing surface; an unvalidated field
    (negative seed, zero bandwidth) surfaces as a confusing numeric
    error deep inside a run.  Every public ``*Config`` / ``*Spec``
    dataclass must reference each numeric field in ``__post_init__``
    (normally via a ``repro.utils.validation`` checker).
    """

    rule_id = "R006"
    title = "unvalidated config field"
    severity = "error"
    fix_hint = "add a repro.utils.validation check for the field in __post_init__"

    def applies(self) -> bool:
        return not self.ctx.is_test_code()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name.startswith("_"):
            return
        if not (node.name.endswith("Config") or node.name.endswith("Spec")):
            return
        if not self._is_dataclass(node):
            return
        numeric_fields = self._numeric_fields(node)
        if not numeric_fields:
            return
        post_init = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
            ),
            None,
        )
        if post_init is None:
            self.report(
                node,
                "config dataclass {} has numeric fields {} but no __post_init__ "
                "validation".format(node.name, sorted(numeric_fields)),
            )
            return
        referenced = {
            child.attr
            for child in ast.walk(post_init)
            if isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        }
        for name, field_node in sorted(numeric_fields.items()):
            if name not in referenced:
                self.report(
                    field_node,
                    "{}.{} is never validated in __post_init__".format(node.name, name),
                )

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            chain = dotted_name(target)
            if chain and chain[-1] == "dataclass":
                return True
        return False

    @staticmethod
    def _numeric_fields(node: ast.ClassDef) -> Dict[str, ast.AnnAssign]:
        fields: Dict[str, ast.AnnAssign] = {}
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            annotation = stmt.annotation
            is_numeric = isinstance(annotation, ast.Name) and annotation.id in (
                "int",
                "float",
            )
            default = stmt.value
            if (
                not is_numeric
                and isinstance(default, ast.Constant)
                and isinstance(default.value, (int, float))
                and not isinstance(default.value, bool)
            ):
                is_numeric = True
            if is_numeric:
                fields[stmt.target.id] = stmt
        return fields


@register
class StoreZeroCopyRule(Rule):
    """R019: ``repro.store`` must stay zero-copy and out-of-core.

    The store's contract (docs/storage.md) is that a shard read is a
    view of the page-cache-backed mapping and a batch copies out only
    the rows it names — nothing else.  Two classes of call silently
    break that:

    * densification/copy helpers (``.toarray()``, ``.todense()``,
      ``np.asarray``, ``np.ascontiguousarray``) turn a zero-copy view
      into a resident copy the size of a block or a shard; and
    * whole-file reads (``.read()`` / ``.readlines()`` with no size)
      pull an entire shard into memory, defeating out-of-core loading.

    Record access must slice the mmap view; byte-bounded ``read(n)``
    calls (headers, footers) are sanctioned.
    """

    rule_id = "R019"
    title = "copy or whole-file read in the zero-copy store"
    severity = "error"
    fix_hint = (
        "slice the mmap view (ShardReader.record) and decode with "
        "np.frombuffer; bound file reads with an explicit size"
    )

    #: attribute calls that materialize a dense or contiguous copy
    DENSIFY = {"toarray", "todense", "to_dense"}
    #: numpy module-level helpers that copy their argument
    NUMPY_COPY = {"asarray", "ascontiguousarray"}
    #: file reads that slurp everything when called without a size
    WHOLE_FILE = {"read", "readlines"}

    def applies(self) -> bool:
        if "lint_fixtures" in _Path(self.ctx.path).parts:
            return True
        parts = self.ctx.package_parts
        return len(parts) >= 1 and parts[0] == "store"

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if not chain:
            return
        name = chain[-1]
        if len(chain) >= 2 and name in self.DENSIFY:
            self.report(
                node,
                ".{}() densifies a shard payload — the store must stay "
                "sparse and zero-copy".format(name),
            )
        elif (
            len(chain) >= 2
            and name in self.NUMPY_COPY
            and chain[-2] in ("np", "numpy")
        ):
            self.report(
                node,
                "{}.{}() copies its argument; decode shard records with "
                "np.frombuffer views instead".format(chain[-2], name),
            )
        elif (
            len(chain) >= 2
            and name in self.WHOLE_FILE
            and not node.args
            and not node.keywords
        ):
            self.report(
                node,
                ".{}() with no size reads the whole file into memory — "
                "pass an explicit byte count".format(name),
            )
