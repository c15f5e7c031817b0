"""Static reconstruction of trainers' ``RoundSpec`` declarations.

Every ``RoundSpec`` constructor reachable from a trainer's
``round_spec`` method is reconstructed structurally from the AST (tuple
literals, ``+`` concatenation, ``tuple(self._helper())`` composition,
single-binding locals), one :class:`SpecDecl` per ``(class, call)``
under that class's MRO view.  Each phase keeps the executor names it
declares (``run=`` / ``sizes=`` / ``servers=``), which is what the
sparsity rules (R015-R016 in :mod:`repro.lint.sparsity`) resolve and
abstractly interpret.

Reconstruction *bails silently* on spec expressions it cannot evaluate,
so it never invents phases — a spec too dynamic to analyze is simply
not checked.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint.engine import dotted_name
from repro.lint.program import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProgramIndex,
)

#: phase constructor names, matched by the trailing call-chain segment
#: (so fixtures need no resolvable import)
PHASE_CTORS = ("ComputePhase", "CommPhase", "MasterPhase")

#: dataclass field order per constructor, for positional arguments
_CTOR_FIELDS = {
    "ComputePhase": ("name", "run", "synchronized"),
    "CommPhase": ("name", "kind", "pattern", "sizes", "servers"),
    "MasterPhase": ("name", "run"),
}

_INLINE_DEPTH = 5


class PhaseDecl:
    """One phase constructor call, statically evaluated."""

    def __init__(self, ctor: str):
        self.ctor = ctor
        self.name: Optional[str] = None
        self.run: Optional[str] = None
        self.sizes: Optional[str] = None
        self.servers: Optional[str] = None


class SpecDecl:
    """One ``RoundSpec(...)`` call under one trainer class's MRO view."""

    def __init__(self, cls: ClassInfo, method: FunctionInfo,
                 phases: List[PhaseDecl]):
        self.cls = cls
        self.method = method
        self.phases = phases

    @property
    def module(self) -> ModuleInfo:
        return self.method.module

    def phase_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.phases)


def _call_kwarg(call: ast.Call, name: str) -> Optional[ast.AST]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _string_value(expr: Optional[ast.AST]) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _ctor_arg(call: ast.Call, ctor: str, field: str) -> Optional[ast.AST]:
    kw = _call_kwarg(call, field)
    if kw is not None:
        return kw
    index = _CTOR_FIELDS[ctor].index(field)
    if index < len(call.args):
        return call.args[index]
    return None


def _parse_phase(call: ast.Call, ctor: str) -> Optional[PhaseDecl]:
    decl = PhaseDecl(ctor)
    decl.name = _string_value(_ctor_arg(call, ctor, "name"))
    if decl.name is None:
        return None
    if ctor == "CommPhase":
        decl.sizes = _string_value(_ctor_arg(call, ctor, "sizes"))
        decl.servers = _string_value(_ctor_arg(call, ctor, "servers"))
    else:
        decl.run = _string_value(_ctor_arg(call, ctor, "run"))
    return decl


def _phase_calls(
    index: ProgramIndex,
    expr: ast.AST,
    method: FunctionInfo,
    mro: Sequence[ClassInfo],
    depth: int = 0,
) -> Optional[List[ast.Call]]:
    """Structurally evaluate a ``phases=`` expression to ctor calls.

    Handles tuple/list literals, ``+`` concatenation, ``tuple(...)`` /
    ``list(...)`` wrappers, single-return ``self._helper()`` composition
    and single-binding locals.  Returns None when any part is opaque.
    """
    if depth > _INLINE_DEPTH:
        return None
    if isinstance(expr, (ast.Tuple, ast.List)):
        out: List[ast.Call] = []
        for elt in expr.elts:
            if isinstance(elt, ast.Starred):
                sub = _phase_calls(index, elt.value, method, mro, depth + 1)
            elif isinstance(elt, ast.Call) and (dotted_name(elt.func) or ("?",))[-1] in PHASE_CTORS:
                out.append(elt)
                continue
            else:
                sub = _phase_calls(index, elt, method, mro, depth + 1)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left = _phase_calls(index, expr.left, method, mro, depth + 1)
        right = _phase_calls(index, expr.right, method, mro, depth + 1)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(expr, ast.Call):
        chain = dotted_name(expr.func)
        if chain and chain[-1] in PHASE_CTORS:
            return [expr]
        if chain in (("tuple",), ("list",)) and len(expr.args) == 1:
            return _phase_calls(index, expr.args[0], method, mro, depth + 1)
        if chain and chain[0] == "self" and len(chain) == 2:
            target = index.resolve_self_method(chain[1], mro)
            if target is not None and len(target.returns) == 1:
                return _phase_calls(index, target.returns[0], target, mro, depth + 1)
        return None
    if isinstance(expr, ast.Name):
        bindings = method.env().get(expr.id)
        if bindings and len(bindings) == 1:
            return _phase_calls(index, bindings[0], method, mro, depth + 1)
        return None
    return None


def extract_round_specs(index: ProgramIndex) -> List[SpecDecl]:
    """Every statically-evaluable RoundSpec, one entry per (class, call).

    A class contributes when ``round_spec`` is in its MRO; every
    ``RoundSpec(...)`` call in any MRO method is evaluated under that
    class's view (config-dependent spec variants each get their own
    entry).  Unevaluable specs and phases are skipped silently.
    """
    specs: List[SpecDecl] = []
    for module in index.modules:
        for cls in module.classes.values():
            mro = index.mro(cls)
            if index.resolve_self_method("round_spec", mro) is None:
                continue
            names: Set[str] = set()
            for klass in mro:
                names.update(klass.methods)
            for name in sorted(names):
                method = index.resolve_self_method(name, mro)
                if method is None:
                    continue
                for call, chain in method.calls:
                    if chain[-1] != "RoundSpec":
                        continue
                    phases_expr = _call_kwarg(call, "phases")
                    if phases_expr is None and len(call.args) > 1:
                        phases_expr = call.args[1]
                    if phases_expr is None:
                        continue
                    ctor_calls = _phase_calls(index, phases_expr, method, mro)
                    if ctor_calls is None:
                        continue
                    decls: List[PhaseDecl] = []
                    for ctor_call in ctor_calls:
                        ctor = dotted_name(ctor_call.func)[-1]
                        decl = _parse_phase(ctor_call, ctor)
                        if decl is None:
                            decls = []
                            break
                        decls.append(decl)
                    if not decls:
                        continue
                    declared = [decl.name for decl in decls]
                    # RoundSpec itself rejects a duplicate phase name
                    if len(set(declared)) == len(declared):
                        specs.append(SpecDecl(cls, method, decls))
    return specs
