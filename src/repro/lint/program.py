"""The whole-program view: the import graph of the file set.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time.
This module indexes every ``repro`` module of the lint run — the trees
the per-file pass parsed — into a :class:`ProgramIndex`, the module
import graph, for the one rule that needs more than one file:

* **R011** (here) — import layering: ``models``/``linalg``/``optim``
  must never import (directly or transitively) the executing system,
  and ``runtime`` must never import the trainers it serves.

What the index is *not* used for any more (docs/linting.md, "Retired"):
entropy and wall-clock reachability (R007/R008 — R001 lints the helper
itself), ``Message`` byte provenance (R009 — the codec-length and
Table-I tests pin the bytes), static protocol extraction (R010 —
:class:`~repro.net.protocol.ProtocolChecker` raises on any undeclared
kind at runtime) and cost-class inference over a call graph (R015/R016
— the wall-clock width gate times the round itself).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.engine import FileContext
from repro.lint.findings import Finding

#: Import-layering contract (R011): modules in a pure layer must never
#: reach a simulator layer through the import graph, and execution
#: backends (the ``runtime`` layer) must never reach the trainers they
#: serve — the runtime moves opaque bytes and measures time; knowing
#: *whose* bytes would invert the plug-in relationship.
PURE_LAYERS = ("models", "linalg", "optim")
SIMULATOR_LAYERS = ("sim", "net", "core", "engine", "runtime")
TRAINER_LAYERS = ("core", "baselines", "extensions")


def _module_name_for(path: str) -> Optional[str]:
    """Dotted module name of a ``repro`` file, else None."""
    parts = Path(path).parts
    if "repro" not in parts:
        return None
    tail = [p[:-3] if p.endswith(".py") else p for p in parts[parts.index("repro") + 1:]]
    if tail and tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(["repro"] + tail)


class ModuleInfo:
    """One ``repro`` module: where it is and what it imports."""

    def __init__(self, path: str, name: str, source: str, tree: ast.Module):
        self.path = str(path)
        self.name = name
        self.ctx = FileContext(self.path, source)
        #: (target module, import statement node) for every repro import
        self.import_edges: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        self.import_edges.append((alias.name, node))
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    self.import_edges.append((node.module, node))


class ProgramIndex:
    """The whole-program view: modules by dotted name."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}


# ----------------------------------------------------------------------
# program rule base + registry
# ----------------------------------------------------------------------
class ProgramRule:
    """Base class for one whole-program rule."""

    rule_id = "P000"
    title = "untitled program rule"
    severity = "error"
    fix_hint = ""

    def __init__(self, index: ProgramIndex):
        self.index = index
        self.findings: List[Finding] = []

    def run(self) -> None:
        raise NotImplementedError

    def report(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if module.ctx.suppressed(self.rule_id, line):
            return
        self.findings.append(
            Finding(
                path=module.path,
                line=line,
                col=col,
                rule_id=self.rule_id,
                severity=self.severity,
                message=message,
                fix_hint=self.fix_hint if fix_hint is None else fix_hint,
            )
        )


_PROGRAM_REGISTRY: Dict[str, Type[ProgramRule]] = {}


def register_program(cls: Type[ProgramRule]) -> Type[ProgramRule]:
    """Class decorator adding a whole-program rule to the registry."""
    from repro.lint.engine import registered_rules

    if cls.rule_id in _PROGRAM_REGISTRY or cls.rule_id in registered_rules():
        raise ValueError("duplicate rule id {}".format(cls.rule_id))
    _PROGRAM_REGISTRY[cls.rule_id] = cls
    return cls


def registered_program_rules() -> Dict[str, Type[ProgramRule]]:
    """Copy of the program-rule registry, keyed by rule id."""
    return dict(_PROGRAM_REGISTRY)


# ----------------------------------------------------------------------
# R011: import layering
# ----------------------------------------------------------------------
@register_program
class ImportLayeringRule(ProgramRule):
    """R011: the import graph must respect the layer contracts.

    Two contracts, both checked transitively over the import graph of
    the analysed file set:

    * **pure -> simulator**: ``models``/``linalg``/``optim`` hold the
      paper's *math*; ``sim``/``net``/``core``/``engine``/``runtime``
      hold the executing *system*.  The exactness tests compare the
      two, which is only meaningful while the math cannot observe the
      machinery it is compared against.
    * **runtime -> trainer**: execution backends (``runtime``) move
      opaque bytes and measure time for *any* trainer; importing
      ``core``/``baselines``/``extensions`` would weld a backend to one
      algorithm and break the plug-in boundary in the other direction.
    """

    rule_id = "R011"
    title = "module import crosses a layer boundary"
    severity = "error"
    fix_hint = "invert the dependency: sim/net/core may import models/linalg/optim, never the reverse"

    @staticmethod
    def _layer_of(module_name: str) -> Optional[str]:
        parts = module_name.split(".")
        return parts[1] if parts[0] == "repro" and len(parts) > 1 else None

    def run(self) -> None:
        self._check(
            PURE_LAYERS,
            SIMULATOR_LAYERS,
            self.fix_hint,
        )
        self._check(
            ("runtime",),
            TRAINER_LAYERS,
            "keep the backend algorithm-agnostic: trainers import "
            "repro.runtime, never the reverse",
        )

    def _check(
        self,
        from_layers: Sequence[str],
        to_layers: Sequence[str],
        fix_hint: str,
    ) -> None:
        for module in self.index.modules:
            if self._layer_of(module.name) not in from_layers:
                continue
            for target, node in module.import_edges:
                chain = self._path_to_layer(target, to_layers)
                if chain is not None:
                    via = " -> ".join([module.name] + chain)
                    self.report(
                        module,
                        node,
                        "{} layer module reaches {} layer: {}".format(
                            self._layer_of(module.name), self._layer_of(chain[-1]), via
                        ),
                        fix_hint=fix_hint,
                    )

    def _path_to_layer(
        self, target: str, layers: Sequence[str]
    ) -> Optional[List[str]]:
        """Shortest import chain from ``target`` into one of ``layers``."""
        queue: List[Tuple[str, List[str]]] = [(target, [target])]
        seen: Set[str] = set()
        while queue:
            name, chain = queue.pop(0)
            if name in seen or len(chain) > 10:
                continue
            seen.add(name)
            if self._layer_of(name) in layers:
                return chain
            module = self.index.by_name.get(name)
            if module is None:
                # imported names resolve to their defining module when
                # the exact target is not a module in the file set
                module = self.index.by_name.get(name.rsplit(".", 1)[0])
            if module is None:
                continue
            for nxt, _ in module.import_edges:
                if nxt not in seen:
                    queue.append((nxt, chain + [nxt]))
        return None


# ----------------------------------------------------------------------
# the analyzer facade
# ----------------------------------------------------------------------
class ProgramAnalyzer:
    """Index parsed files once and run whole-program rules over them.

    Only ``repro`` modules are indexed: nothing else can import into a
    layer or be reached from one.  Test modules are excluded too (they
    are exempt from the invariants).
    """

    def __init__(self, parsed: Sequence[Tuple[str, str, ast.Module]]):
        modules: List[ModuleInfo] = []
        for path, source, tree in parsed:
            name = _module_name_for(str(path))
            if name is None or FileContext(str(path), source).is_test_code():
                continue
            modules.append(ModuleInfo(str(path), name, source, tree))
        self.index = ProgramIndex(modules)

    def run(self, rule_classes: Sequence[Type[ProgramRule]]) -> List[Finding]:
        findings: List[Finding] = []
        for cls in rule_classes:
            rule = cls(self.index)
            rule.run()
            findings.extend(rule.findings)
        return sorted(findings)
