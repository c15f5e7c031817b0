"""R011, the one whole-program rule: import layering over the file set.

The per-file rules in :mod:`repro.lint.rules` see one AST at a time.
:func:`check_import_layering` indexes every ``repro`` module of the lint
run — the trees the per-file pass parsed — into the module import graph
and checks two contracts over it, transitively:

* **pure -> simulator**: ``models``/``linalg``/``optim`` hold the
  paper's *math*; ``sim``/``net``/``core``/``engine``/``runtime`` hold
  the executing *system*.  The exactness tests compare the two, which
  is only meaningful while the math cannot observe the machinery it is
  compared against.
* **runtime -> trainer**: execution backends (``runtime``) move opaque
  bytes and measure time for *any* trainer; importing
  ``core``/``baselines``/``extensions`` would weld a backend to one
  algorithm and break the plug-in boundary in the other direction.

What the import graph is *not* used for any more (docs/linting.md,
"Retired"): entropy and wall-clock reachability (R007/R008 — R001 lints
the helper itself), ``Message`` byte provenance (R009 — the
codec-length and Table-I tests pin the bytes), static protocol
extraction (R010 — :class:`~repro.net.protocol.ProtocolChecker` raises
on any undeclared kind at runtime) and cost-class inference over a call
graph (R015/R016 — the wall-clock width gate times the round itself).
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Set, Tuple

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

#: R011 as ``--list-rules`` and SARIF describe it
IMPORT_LAYERING = SimpleNamespace(
    rule_id="R011",
    title="module import crosses a layer boundary",
    severity="error",
)

#: ``(from layers, to layers, fix hint)`` of each contract
_CONTRACTS = (
    (
        PURE_LAYERS,
        SIMULATOR_LAYERS,
        "invert the dependency: sim/net/core may import models/linalg/optim, "
        "never the reverse",
    ),
    (
        ("runtime",),
        TRAINER_LAYERS,
        "keep the backend algorithm-agnostic: trainers import "
        "repro.runtime, never the reverse",
    ),
)

#: one module of the file set: (dotted name, its file, its repro imports)
_Module = Tuple[str, FileContext, List[Tuple[str, ast.AST]]]


def _module_name_for(path: str) -> Optional[str]:
    """Dotted module name of a ``repro`` file, else None."""
    parts = Path(path).parts
    if "repro" not in parts:
        return None
    tail = [p[:-3] if p.endswith(".py") else p for p in parts[parts.index("repro") + 1:]]
    if tail and tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(["repro"] + tail)


def _layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


def _import_edges(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """(target module, import statement node) for every repro import."""
    edges: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    edges.append((alias.name, node))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                edges.append((node.module, node))
    return edges


def check_import_layering(parsed: Sequence[Tuple[str, str, ast.Module]]) -> List[Finding]:
    """R011 over the ``(path, source, tree)`` triples of one lint run.

    Only ``repro`` modules are indexed: nothing else can import into a
    layer or be reached from one.  Test modules are excluded too (they
    are exempt from the invariants).
    """
    modules: List[_Module] = []
    for path, source, tree in parsed:
        name = _module_name_for(str(path))
        ctx = FileContext(str(path), source)
        if name is not None and not ctx.is_test_code():
            modules.append((name, ctx, _import_edges(tree)))
    edges_of = {name: edges for name, _, edges in modules}
    findings: List[Finding] = []
    for from_layers, to_layers, fix_hint in _CONTRACTS:
        for name, ctx, edges in modules:
            if _layer_of(name) not in from_layers:
                continue
            for target, node in edges:
                chain = _path_to_layer(edges_of, target, to_layers)
                line = getattr(node, "lineno", 1)
                if chain is None or ctx.suppressed(IMPORT_LAYERING.rule_id, line):
                    continue
                findings.append(
                    Finding(
                        path=ctx.path,
                        line=line,
                        col=getattr(node, "col_offset", 0),
                        rule_id=IMPORT_LAYERING.rule_id,
                        severity=IMPORT_LAYERING.severity,
                        message="{} layer module reaches {} layer: {}".format(
                            _layer_of(name),
                            _layer_of(chain[-1]),
                            " -> ".join([name] + chain),
                        ),
                        fix_hint=fix_hint,
                    )
                )
    return sorted(findings)


def _path_to_layer(
    edges_of: Dict[str, List[Tuple[str, ast.AST]]],
    target: str,
    layers: Sequence[str],
) -> Optional[List[str]]:
    """Shortest import chain from ``target`` into one of ``layers``."""
    queue: List[Tuple[str, List[str]]] = [(target, [target])]
    seen: Set[str] = set()
    while queue:
        name, chain = queue.pop(0)
        if name in seen or len(chain) > 10:
            continue
        seen.add(name)
        if _layer_of(name) in layers:
            return chain
        edges = edges_of.get(name)
        if edges is None:
            # imported names resolve to their defining module when
            # the exact target is not a module in the file set
            edges = edges_of.get(name.rsplit(".", 1)[0])
        if edges is None:
            continue
        for nxt, _ in edges:
            if nxt not in seen:
                queue.append((nxt, chain + [nxt]))
    return None
