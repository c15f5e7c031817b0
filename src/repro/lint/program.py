"""The whole-program view: one parse, a call graph and an import graph.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time.
This module parses every file of the lint run once into a
:class:`ProgramIndex` — a module import graph plus an *approximate*
call graph — for the rules that need more than one file:

* **R011** (here) — import layering: ``models``/``linalg``/``optim``
  must never import (directly or transitively) the executing system,
  and ``runtime`` must never import the trainers it serves;
* **R015/R016** (:mod:`repro.lint.sparsity`) — cost-class inference
  over the executors of every statically reconstructed ``RoundSpec``
  (:mod:`repro.lint.specs`).

The call graph is deliberately approximate: bare names resolve within
the defining module and its imports, ``self.method()`` resolves through
a statically-derived MRO, and other attribute calls fall back to a
global match on the method name (capped, to bound over-linking).

What the index is *not* used for any more (docs/linting.md, "Retired"):
entropy and wall-clock reachability (R007/R008 — R001 lints the helper
itself), ``Message`` byte provenance (R009 — the codec-length and
Table-I tests pin the bytes) and static protocol extraction (R010 —
:class:`~repro.net.protocol.ProtocolChecker` raises on any undeclared
kind at runtime).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.engine import FileContext, dotted_name
from repro.lint.findings import Finding

#: Import-layering contract (R011): modules in a pure layer must never
#: reach a simulator layer through the import graph, and execution
#: backends (the ``runtime`` layer) must never reach the trainers they
#: serve — the runtime moves opaque bytes and measures time; knowing
#: *whose* bytes would invert the plug-in relationship.
PURE_LAYERS = ("models", "linalg", "optim")
SIMULATOR_LAYERS = ("sim", "net", "core", "engine", "runtime")
TRAINER_LAYERS = ("core", "baselines", "extensions")

#: Attribute-call fallback resolution gives up beyond this many
#: same-named candidates — over-linking ubiquitous names would make the
#: cost inference meaninglessly broad.
MAX_NAME_CANDIDATES = 8


def _shallow_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested def/class bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _module_name_for(path: str) -> str:
    """Dotted module name: real for ``repro`` files, stem otherwise."""
    parts = Path(path).parts
    if "repro" in parts:
        tail = [p[:-3] if p.endswith(".py") else p for p in parts[parts.index("repro") + 1:]]
        if tail and tail[-1] == "__init__":
            tail = tail[:-1]
        return ".".join(["repro"] + tail)
    stem = Path(path).stem
    return stem


class FunctionInfo:
    """One function or method: its AST, calls, and returns."""

    def __init__(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        class_name: Optional[str] = None,
    ):
        self.module = module
        self.node = node
        self.name = node.name
        self.class_name = class_name
        self.is_method = class_name is not None
        #: every Call in the body (including nested defs), with its chain
        self.calls: List[Tuple[ast.Call, Tuple[str, ...]]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                chain = dotted_name(sub.func)
                if chain:
                    self.calls.append((sub, chain))
        #: return-value expressions of *this* function (not nested defs)
        self.returns: List[ast.AST] = [
            sub.value
            for sub in _shallow_walk(node)
            if isinstance(sub, ast.Return) and sub.value is not None
        ]
        self._env: Optional[Dict[str, List[ast.AST]]] = None

    # ------------------------------------------------------------------
    def env(self) -> Dict[str, List[ast.AST]]:
        """Local name -> assigned value expressions (incl. loop targets)."""
        if self._env is None:
            env: Dict[str, List[ast.AST]] = {}
            for sub in ast.walk(self.node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        _bind_target(env, target, sub.value)
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    _bind_target(env, sub.target, sub.value)
                elif isinstance(sub, ast.AugAssign):
                    _bind_target(env, sub.target, sub.value)
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    _bind_target(env, sub.target, sub.iter)
            self._env = env
        return self._env


def _bind_target(env: Dict[str, List[ast.AST]], target: ast.AST, value: ast.AST) -> None:
    if isinstance(target, ast.Name):
        env.setdefault(target.id, []).append(value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        elts = getattr(value, "elts", None)
        if elts is not None and len(elts) == len(target.elts):
            for t, v in zip(target.elts, elts):
                _bind_target(env, t, v)
        else:
            for t in target.elts:
                _bind_target(env, t, value)
    elif isinstance(target, (ast.Subscript, ast.Starred)):
        _bind_target(env, target.value, value)


class ClassInfo:
    """One class: its methods and base-class names (for the static MRO)."""

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = "{}.{}".format(module.name, node.name)
        self.bases: List[str] = []
        for base in node.bases:
            chain = dotted_name(base)
            if chain:
                self.bases.append(chain[-1])
        self.methods: Dict[str, FunctionInfo] = {}


class ModuleInfo:
    """Everything the program analyses need to know about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = str(path)
        self.source = source
        self.tree = tree
        self.ctx = FileContext(self.path, source)
        self.name = _module_name_for(self.path)
        #: local alias -> fully dotted imported name
        self.imports: Dict[str, str] = {}
        #: (target module, import statement node) for every repro import
        self.import_edges: List[Tuple[str, ast.AST]] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._collect()

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
                    if alias.name.split(".")[0] == "repro":
                        self.import_edges.append((alias.name, node))
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = "{}.{}".format(node.module, alias.name)
                if node.module.split(".")[0] == "repro":
                    self.import_edges.append((node.module, node))
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(self, stmt)
                self.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(self, stmt)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods[sub.name] = FunctionInfo(self, sub, class_name=stmt.name)
                self.classes[stmt.name] = cls

    def all_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()


class ProgramIndex:
    """The whole-program view: modules and call resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        self.functions: List[FunctionInfo] = []
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        for module in self.modules:
            for func in module.all_functions():
                self.functions.append(func)
                self.functions_by_name.setdefault(func.name, []).append(func)
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def external_name(self, chain: Tuple[str, ...], module: ModuleInfo) -> Optional[str]:
        """Fully-dotted name of a call chain, resolved through imports."""
        root = chain[0]
        if root in module.imports:
            return ".".join([module.imports[root]] + list(chain[1:]))
        if len(chain) > 1:
            return ".".join(chain)
        return None

    def resolve_internal(self, dotted: str) -> List[FunctionInfo]:
        """Resolve ``repro.pkg.mod.func`` by longest module-name prefix."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.by_name.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1 and rest[0] in module.functions:
                return [module.functions[rest[0]]]
            if len(rest) == 2 and rest[0] in module.classes:
                method = module.classes[rest[0]].methods.get(rest[1])
                return [method] if method else []
            return []
        return []

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Static linearisation: the class, then bases by declared order."""
        order: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            order.append(current)
            for base_name in current.bases:
                for candidate in self.classes_by_name.get(base_name, ()):
                    queue.append(candidate)
        return order

    def resolve_self_method(self, name: str, mro: Sequence[ClassInfo]) -> Optional[FunctionInfo]:
        for cls in mro:
            if name in cls.methods:
                return cls.methods[name]
        return None

    def resolve_call(
        self,
        chain: Tuple[str, ...],
        func: Optional[FunctionInfo],
        module: ModuleInfo,
        view_class: Optional[ClassInfo] = None,
    ) -> List[FunctionInfo]:
        """Candidate targets of one call, in the context of ``func``.

        ``view_class`` selects the MRO used for ``self.method()`` calls
        (the analysed trainer subclass for the sparsity rules' per-class
        walks; the defining class otherwise).
        """
        if chain[0] == "self" and len(chain) == 2:
            klass = view_class
            if klass is None and func is not None and func.class_name:
                klass = module.classes.get(func.class_name)
                if klass is None:
                    for candidate in self.classes_by_name.get(func.class_name, ()):
                        klass = candidate
                        break
            if klass is not None:
                target = self.resolve_self_method(chain[1], self.mro(klass))
                if target is not None:
                    return [target]
            return []
        if len(chain) == 1:
            name = chain[0]
            if name in module.imports:
                dotted = module.imports[name]
                if dotted.split(".")[0] == "repro":
                    return self.resolve_internal(dotted)
                return []
            local = module.functions.get(name)
            return [local] if local is not None else []
        # attribute call: imported-module chains are external ...
        if chain[0] in module.imports:
            dotted = self.external_name(chain, module)
            if dotted and dotted.split(".")[0] == "repro":
                return self.resolve_internal(dotted)
            return []
        # ... everything else falls back to a capped global name match.
        candidates = self.functions_by_name.get(chain[-1], [])
        methods = [c for c in candidates if c.is_method]
        pool = methods if methods else candidates
        if 0 < len(pool) <= MAX_NAME_CANDIDATES:
            return list(pool)
        return []


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
    """Parse a file set once and run whole-program rules over it.

    Test modules are excluded from the index: they are exempt from the
    invariants and their helpers would otherwise bleed into the
    approximate call graph.  Files with syntax errors are skipped —
    the per-file pass already reports them as E001.
    """

    def __init__(self, sources: Sequence[Tuple[str, str]]):
        modules: List[ModuleInfo] = []
        for path, source in sources:
            ctx = FileContext(str(path), source)
            if ctx.is_test_code():
                continue
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            modules.append(ModuleInfo(str(path), source, tree))
        self.index = ProgramIndex(modules)

    def run(self, rule_classes: Sequence[Type[ProgramRule]]) -> List[Finding]:
        findings: List[Finding] = []
        for cls in rule_classes:
            rule = cls(self.index)
            rule.run()
            findings.extend(rule.findings)
        return sorted(findings)
