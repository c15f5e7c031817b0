"""Sparsity-safety abstract interpretation (rules R015-R016).

ColumnSGD's headline claim is that per-iteration work is O(nnz of the
mini-batch), not O(d) — the simulator *charges* time accordingly via
``ComputeCostModel.sparse_work``/``dense_work``, but nothing stops a
regression from densifying a gradient or looping over ``dim`` inside a
hot path while the charges (and therefore every reproduced figure)
still claim sparse cost.  This module closes that gap statically:

* every RoundSpec executor (reconstructed by
  :func:`repro.lint.specs.extract_round_specs` under each trainer's
  MRO view) is abstractly interpreted over a **cost-class lattice**

      O(1)  ⊑  O(B)  ⊑  O(nnz)  ⊑  O(d)

  where B is the mini-batch size, nnz the batch's stored entries, and
  d the model dimension.  A function's class is the join of its loop
  trip classes (``range(dim)`` is O(d), ``iter_rows()`` is O(nnz)),
  the axiomatized classes of the ``SparseVector``/``CSRMatrix``/ops
  primitives it calls, the size classes of its dense numpy allocations,
  and the classes of the project functions it calls (via the
  :class:`~repro.lint.program.ProgramIndex` call graph, depth-capped);
* a small **sparsity lattice** (sparse / dense / scalar) classifies
  value expressions, so sparse→dense coercions (``np.asarray`` of a
  ``SparseVector``-producing expression) are recognised as
  densification even without a ``to_dense`` call.

The ``repro.linalg`` kernels themselves are *axioms*: the analysis
never descends into their bodies (their internal ``np.zeros`` is what
"O(nnz) kernel" means), and their implementation is checked dynamically
instead, by the op counters in :mod:`repro.linalg.counters` and the
engine's ``check_cost`` audit.

Two rules consume the result:

* **R015** — hot-path densification: a ``to_dense()`` call, an
  O(d)-sized dense allocation, or a sparse→dense coercion reachable
  from a per-round executor, reported at the site with the witness
  call chain from the executor;
* **R016** — charged-vs-actual cost drift: an executor whose inferred
  cost class exceeds the class of its ``sparse_work``/``dense_work``
  charges (one free class of O(B) bookkeeping is allowed), reported at
  every top-class contributing site.

Everything here over-approximates: unknown loop bounds default to O(B),
unknown allocations to O(B), and findings anchor at concrete syntactic
sites so a reviewed site is silenced with one
``# lint: noqa[R015,R016]`` comment that documents the reasoning.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.lint.program import (
    FunctionInfo,
    ModuleInfo,
    ProgramIndex,
    ProgramRule,
    register_program,
)
from repro.lint.specs import SpecDecl, extract_round_specs

# ----------------------------------------------------------------------
# the cost-class lattice
# ----------------------------------------------------------------------
O1, OB, ONNZ, OD = 0, 1, 2, 3

CLASS_NAMES = {O1: "O(1)", OB: "O(B)", ONNZ: "O(nnz)", OD: "O(d)"}

#: Modules whose complexity is axiomatized by :data:`PRIMITIVE_COSTS`.
#: The analysis never descends into them and never flags their bodies;
#: the runtime op counters check their implementation instead.
PRIMITIVE_MODULES = (
    "repro.linalg.sparse_vector",
    "repro.linalg.csr",
    "repro.linalg.ops",
    "repro.linalg.counters",
)

#: Axiomatized cost classes of the sparse primitives, keyed by the
#: trailing call-chain segment.  Only names distinctive enough not to
#: collide with stdlib/numpy idioms appear here (``items``/``empty``
#: would match dict iteration and ``np.empty``).
PRIMITIVE_COSTS: Dict[str, int] = {
    # densifying primitives
    "to_dense": OD,
    "from_dense": OD,
    "hstack_from_partitions": OD,
    # O(nnz) kernels and constructors
    "dot": ONNZ,
    "scale": ONNZ,
    "norm_sq": ONNZ,
    "restrict": ONNZ,
    "from_dict": ONNZ,
    "from_rows": ONNZ,
    "take_rows": ONNZ,
    "select_columns": ONNZ,
    "split_columns": ONNZ,
    "vstack": ONNZ,
    "iter_rows": ONNZ,
    "column_scale": ONNZ,
    "row_dots": ONNZ,
    "row_dots_squared": ONNZ,
    "accumulate_rows": ONNZ,
    "accumulate_rows_squared": ONNZ,
    "touched_columns": ONNZ,
    "add_to": ONNZ,  # RowGradient: one row per touched column
    # cheap accessors
    "slice_rows": OB,
    "row_nnz": OB,
    "row_segments": OB,
}

#: numpy allocation functions whose first argument is a shape/size.
NP_SIZED_ALLOCS = ("zeros", "empty", "ones", "full", "arange")

#: numpy allocation functions shaped like their array argument.
NP_LIKE_ALLOCS = ("zeros_like", "empty_like", "ones_like", "full_like")

#: numpy roots — excluded from primitive-table matching (``np.dot`` is
#: not ``SparseVector.dot``) and recognised for allocation/coercion.
_NP_ROOTS = ("np", "numpy")

#: Call-chain names producing sparse values, for coercion detection.
SPARSE_PRODUCERS = frozenset(
    {
        "SparseVector", "CSRMatrix", "from_dict", "from_rows", "restrict",
        "row", "take_rows", "select_columns", "column_scale", "slice_rows",
        "vstack",
    }
)

#: Names never classified as size terms (receivers, builtins, modules).
_SKIP_NAMES = frozenset(
    {
        "self", "ctx", "cls", "np", "numpy", "len", "min", "max", "int",
        "float", "abs", "sum", "range", "enumerate", "zip", "sorted",
        "list", "tuple", "dict", "set", "reversed",
    }
)

_NNZ_TOKENS = ("nnz", "indices")
_DIM_TOKENS = ("dim", "n_cols", "n_features", "n_params", "model_elements",
               "n_columns", "num_features")
_CONST_TOKENS = ("n_workers", "width", "n_groups", "n_classes", "n_factors",
                 "n_servers", "group_size", "hidden", "n_layers", "backup",
                 "n_partitions", "staleness")
#: dense model-shaped arrays, for ``*_like`` allocation sizing
_MODEL_TOKENS = ("param", "model", "weight", "theta", "velocity")
_MODEL_EXACT = re.compile(r"^_?[wv]\d?$", re.IGNORECASE)

#: Recursion budget for the interprocedural cost walk; matches the
#: effect inference's inline depth.
COST_DEPTH = 6

#: At most this many top-class witness sites are kept per function, so
#: one noqa'd site cannot hide an unbounded tail of others while the
#: findings stay readable.
MAX_WITNESSES = 8


# ----------------------------------------------------------------------
# size-term and sparsity classification
# ----------------------------------------------------------------------
def classify_size_name(name: str) -> int:
    """Cost class of one identifier used as a size/trip-count term."""
    low = name.lower()
    if low in _SKIP_NAMES:
        return O1
    if any(token in low for token in _NNZ_TOKENS):
        return ONNZ
    if low in ("d", "m") or any(token in low for token in _DIM_TOKENS):
        return OD
    if any(token in low for token in _CONST_TOKENS):
        return O1
    return OB


def classify_size_expr(expr: ast.AST) -> int:
    """Join of the size classes of every identifier in ``expr``.

    Constants and skipped names contribute O(1); an expression with no
    classifiable name at all (``len(batch)``) defaults to O(B) via the
    identifiers it does mention, or O(1) for a pure literal.
    """
    best = O1
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            best = max(best, classify_size_name(node.id))
        elif isinstance(node, ast.Attribute):
            best = max(best, classify_size_name(node.attr))
    return best


def _is_model_shaped(expr: ast.AST) -> bool:
    """Whether a ``*_like`` template expression names a model-sized array."""
    for node in ast.walk(expr):
        names = []
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        for name in names:
            low = name.lower()
            if any(token in low for token in _MODEL_TOKENS):
                return True
            if _MODEL_EXACT.match(name):
                return True
    return False


def np_alloc_class(call: ast.Call, chain: Tuple[str, ...]) -> Optional[int]:
    """Size class of a numpy allocation call, or None if not one."""
    if chain[0] not in _NP_ROOTS or len(chain) != 2:
        return None
    name = chain[-1]
    if name in NP_SIZED_ALLOCS:
        if not call.args:
            return O1
        return classify_size_expr(call.args[0])
    if name in NP_LIKE_ALLOCS:
        if not call.args:
            return O1
        return OD if _is_model_shaped(call.args[0]) else OB
    return None


def is_sparse_expr(expr: ast.AST, func: FunctionInfo) -> bool:
    """Sparsity lattice, shallowly: does ``expr`` produce a sparse value?

    A call whose chain ends in a sparse producer, or a local name whose
    every binding does.  Anything else is dense/scalar/unknown.
    """
    if isinstance(expr, ast.Call):
        chain = _chain(expr)
        return bool(chain) and chain[0] not in _NP_ROOTS and chain[-1] in SPARSE_PRODUCERS
    if isinstance(expr, ast.Name):
        bindings = func.env().get(expr.id, [])
        return bool(bindings) and all(
            isinstance(b, ast.Call) and is_sparse_expr(b, func) for b in bindings
        )
    return False


def _chain(call: ast.Call) -> Optional[Tuple[str, ...]]:
    from repro.lint.engine import dotted_name

    return dotted_name(call.func)


# ----------------------------------------------------------------------
# direct densification sites (R015's per-function scan)
# ----------------------------------------------------------------------
class DensifySite(NamedTuple):
    node: ast.Call
    desc: str


def densify_sites(func: FunctionInfo) -> List[DensifySite]:
    """Syntactic densification sites in one (non-primitive) function."""
    sites: List[DensifySite] = []
    for call, chain in func.calls:
        if chain[0] in _NP_ROOTS:
            alloc = np_alloc_class(call, chain)
            if alloc is not None and alloc >= OD:
                sites.append(DensifySite(
                    call,
                    "O(d)-sized dense allocation {}".format(_render(call)),
                ))
            elif chain[-1] in ("array", "asarray") and call.args and is_sparse_expr(
                call.args[0], func
            ):
                sites.append(DensifySite(
                    call,
                    "sparse value coerced dense via {}".format(".".join(chain)),
                ))
            continue
        if chain[-1] == "to_dense":
            sites.append(DensifySite(
                call, "{}() densification".format(".".join(chain))
            ))
    return sites


def _render(node: ast.AST, limit: int = 60) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed ASTs
        return "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ----------------------------------------------------------------------
# interprocedural cost inference
# ----------------------------------------------------------------------
class Contribution(NamedTuple):
    """One concrete site contributing a cost class, with its call path."""

    cls: int
    desc: str
    node: ast.AST
    module: ModuleInfo
    path: Tuple[str, ...]


class FunctionCost(NamedTuple):
    cls: int
    contribs: Tuple[Contribution, ...]  # witnesses at exactly ``cls``


_EMPTY_COST = FunctionCost(O1, ())


class CostInference:
    """Memoized cost-class join over the approximate call graph.

    A function's class is the *join* (max) of every contribution —
    loop trips, primitive calls, dense allocations, and callee classes.
    Join rather than product is deliberate: per-worker loops over
    disjoint shards multiply an O(1) worker count into per-shard work,
    and modelling that precisely would drown the lattice in false O(d)
    products.  Asymptotic drift (a ``range(dim)`` loop, a ``to_dense``)
    still lands in the right class, which is all R015/R016 need.
    """

    def __init__(self, index: ProgramIndex):
        self.index = index
        self._memo: Dict[Tuple[int, Optional[str]], FunctionCost] = {}

    # ------------------------------------------------------------------
    def cost(self, func: FunctionInfo, view=None, depth: int = 0) -> FunctionCost:
        key = (id(func), view.qualname if view is not None else None)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._memo[key] = _EMPTY_COST  # cycle guard
        result = self._infer(func, view, depth)
        self._memo[key] = result
        return result

    def _infer(self, func: FunctionInfo, view, depth: int) -> FunctionCost:
        contribs: List[Contribution] = []
        module = func.module

        for node in ast.walk(func.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                cls = self._trip_class(node.iter)
                if cls > O1:
                    contribs.append(Contribution(
                        cls,
                        "loop over {}".format(_render(node.iter)),
                        node,
                        module,
                        (func.name,),
                    ))
            elif isinstance(node, ast.While):
                contribs.append(Contribution(
                    OB, "while loop", node, module, (func.name,)
                ))

        for call, chain in func.calls:
            targets = self._targets(call, chain, func, view)
            project = [
                t for t in targets if t.module.name not in PRIMITIVE_MODULES
            ]
            primitives = [
                t for t in targets if t.module.name in PRIMITIVE_MODULES
            ]
            if project and depth < COST_DEPTH:
                for callee in project:
                    callee_view = view if chain[0] == "self" else None
                    sub = self.cost(callee, callee_view, depth + 1)
                    for contrib in sub.contribs:
                        contribs.append(contrib._replace(
                            path=(func.name,) + contrib.path
                        ))
                continue
            if chain[0] in _NP_ROOTS:
                alloc = np_alloc_class(call, chain)
                if alloc is not None and alloc > O1:
                    contribs.append(Contribution(
                        alloc,
                        "dense allocation {}".format(_render(call)),
                        call,
                        module,
                        (func.name,),
                    ))
                continue
            if primitives or chain[-1] in PRIMITIVE_COSTS:
                cls = PRIMITIVE_COSTS.get(chain[-1])
                if cls is not None and cls > O1:
                    contribs.append(Contribution(
                        cls,
                        "{}() [{} primitive]".format(
                            ".".join(chain), CLASS_NAMES[cls]
                        ),
                        call,
                        module,
                        (func.name,),
                    ))

        if not contribs:
            return _EMPTY_COST
        cls = max(c.cls for c in contribs)
        top = tuple(c for c in contribs if c.cls == cls)[:MAX_WITNESSES]
        return FunctionCost(cls, top)

    # ------------------------------------------------------------------
    def _targets(self, call, chain, func, view) -> List[FunctionInfo]:
        view_class = view if chain[0] == "self" else None
        return self.index.resolve_call(chain, func, func.module, view_class=view_class)

    @staticmethod
    def _trip_class(iter_expr: ast.AST) -> int:
        if isinstance(iter_expr, ast.Call):
            chain = _chain(iter_expr)
            if chain:
                name = chain[-1]
                if name == "range":
                    best = O1
                    for arg in iter_expr.args:
                        best = max(best, classify_size_expr(arg))
                    return best
                if name == "iter_rows":
                    return ONNZ  # B trips, O(row nnz) bodies: O(nnz) total
                if name in ("enumerate", "zip", "reversed", "sorted"):
                    best = O1
                    for arg in iter_expr.args:
                        best = max(best, CostInference._trip_class(arg))
                    return max(best, OB)
            return OB
        if isinstance(iter_expr, (ast.Name, ast.Attribute)):
            name = iter_expr.id if isinstance(iter_expr, ast.Name) else iter_expr.attr
            return max(classify_size_name(name), OB)
        return OB

    # ------------------------------------------------------------------
    def charge_class(self, func: FunctionInfo, view=None) -> int:
        """Join of the size classes this function (transitively) charges
        through ``sparse_work``/``dense_work`` calls."""
        best = O1
        for reached, _ in self.reachable([func], view).items():
            for call, chain in reached.calls:
                if chain[-1] == "sparse_work":
                    best = max(best, self._charge_arg(call, "nnz"))
                elif chain[-1] == "dense_work":
                    best = max(best, self._charge_arg(call, "n_elements"))
        return best

    @staticmethod
    def _charge_arg(call: ast.Call, kwarg: str) -> int:
        for keyword in call.keywords:
            if keyword.arg == kwarg:
                return classify_size_expr(keyword.value)
        if call.args:
            return classify_size_expr(call.args[0])
        return O1

    # ------------------------------------------------------------------
    def reachable(
        self, roots: Sequence[FunctionInfo], view
    ) -> Dict[FunctionInfo, Tuple[str, ...]]:
        """Project functions reachable from ``roots`` (depth-capped),
        each with the first-discovered call path; primitive modules are
        the frontier and are not entered."""
        out: Dict[FunctionInfo, Tuple[str, ...]] = {}
        stack: List[Tuple[FunctionInfo, Tuple[str, ...]]] = [
            (root, (root.name,)) for root in roots
        ]
        while stack:
            func, path = stack.pop()
            if func in out or func.module.name in PRIMITIVE_MODULES:
                continue
            out[func] = path
            if len(path) > COST_DEPTH:
                continue
            for call, chain in func.calls:
                for callee in self._targets(call, chain, func, view):
                    if callee not in out:
                        stack.append((callee, path + (callee.name,)))
        return out


# ----------------------------------------------------------------------
# executor enumeration shared by R015/R016
# ----------------------------------------------------------------------
def _spec_executors(index: ProgramIndex, spec: SpecDecl):
    """Yield ``(phase, role, method)`` for every resolvable executor of
    one reconstructed spec, under the trainer's MRO view."""
    mro = index.mro(spec.cls)
    for decl in spec.phases:
        for role in ("run", "sizes", "servers"):
            name = getattr(decl, role)
            if not isinstance(name, str):
                continue
            method = index.resolve_self_method(name, mro)
            if method is not None:
                yield decl, role, method


# ----------------------------------------------------------------------
# R015: hot-path densification
# ----------------------------------------------------------------------
@register_program
class HotPathDensificationRule(ProgramRule):
    """R015: no densification reachable from a per-round executor.

    ``to_dense()`` calls, O(d)-sized dense allocations, and sparse→dense
    coercions are reported at their site, with the executor and witness
    call chain in the message.  Sites shared by several trainers (base
    class executors) are reported once.
    """

    rule_id = "R015"
    title = "densification reachable from a per-round executor"
    severity = "error"
    fix_hint = (
        "keep the hot path sparse (SparseVector/CSRMatrix kernels); if the "
        "dense form is the simulated system's real behavior, justify with "
        "# lint: noqa[R015] and a comment"
    )

    def run(self) -> None:
        inference = CostInference(self.index)
        reported: Set[Tuple[str, int, int]] = set()
        for spec in extract_round_specs(self.index):
            if spec.module.ctx.is_test_code():
                continue
            roots = [
                (decl, method)
                for decl, role, method in _spec_executors(self.index, spec)
            ]
            for decl, method in roots:
                for func, path in inference.reachable([method], spec.cls).items():
                    if func.module.ctx.is_test_code():
                        continue
                    for site in densify_sites(func):
                        key = (func.module.path, site.node.lineno,
                               site.node.col_offset)
                        if key in reported:
                            continue
                        reported.add(key)
                        self.report(
                            func.module,
                            site.node,
                            "{} on the hot path of executor {}.{} "
                            "(via {})".format(
                                site.desc,
                                spec.cls.name,
                                method.name,
                                " -> ".join(path),
                            ),
                        )


# ----------------------------------------------------------------------
# R016: charged-vs-actual cost drift
# ----------------------------------------------------------------------
@register_program
class CostDriftRule(ProgramRule):
    """R016: an executor's inferred cost class must not exceed the class
    of its cost-model charges.

    Checked for every ComputePhase/MasterPhase ``run=`` executor; the
    allowed class is the join of the executor's transitively charged
    ``sparse_work``/``dense_work`` size classes and O(B) (per-round
    bookkeeping over batch-sized buffers is free).  Findings anchor at
    every top-class contributing site, so one noqa cannot hide an
    independent contributor, and shared base-class sites are reported
    once.  The runtime twin is the engine's ``check_cost`` audit.
    """

    rule_id = "R016"
    title = "executor cost class exceeds its charged work class"
    severity = "error"
    fix_hint = (
        "charge the work (cost.sparse_work/dense_work with the right size "
        "term) or push the computation down to an O(nnz) kernel; if the "
        "simulator intentionally does dense math the real system avoids, "
        "justify with # lint: noqa[R016] and a comment"
    )

    def run(self) -> None:
        inference = CostInference(self.index)
        reported: Set[Tuple[str, int, int]] = set()
        for spec in extract_round_specs(self.index):
            if spec.module.ctx.is_test_code():
                continue
            for decl, role, method in _spec_executors(self.index, spec):
                if role != "run" or decl.ctor not in ("ComputePhase", "MasterPhase"):
                    continue
                fc = inference.cost(method, view=spec.cls)
                allowed = max(inference.charge_class(method, view=spec.cls), OB)
                if fc.cls <= allowed:
                    continue
                for contrib in fc.contribs:
                    if contrib.module.ctx.is_test_code():
                        continue
                    key = (contrib.module.path, contrib.node.lineno,
                           contrib.node.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    self.report(
                        contrib.module,
                        contrib.node,
                        "executor {}.{} does {} work but charges only {}: "
                        "{} (via {})".format(
                            spec.cls.name,
                            method.name,
                            CLASS_NAMES[fc.cls],
                            CLASS_NAMES[allowed],
                            contrib.desc,
                            " -> ".join(contrib.path),
                        ),
                    )
