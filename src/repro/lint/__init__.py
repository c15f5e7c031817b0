"""Project-specific static analysis for the ColumnSGD reproduction.

The paper's audited claims — Table I's byte formulas and the exactness
of two-phase index sampling — are held by things that *run*
(:class:`repro.net.protocol.ProtocolChecker`, the codec-length and
Table-I tests, the golden trajectories).  This package keeps only the
static rules that catch something those checks cannot, or catch it
before a run exists.  Five per-file AST rules:

* **R001** — all randomness flows through :mod:`repro.utils.rng`; no
  OS entropy, and no host clock outside ``runtime/local.py``;
* **R004** — no exact equality against inexact float literals;
* **R005** — no bare/over-broad ``except`` on the round's path;
* **R006** — public config dataclasses validate their numeric fields;
* **R019** — no copy or whole-file read in ``repro.store``;

and three whole-program rules over one
:class:`~repro.lint.program.ProgramIndex` (call graph + import graph):

* **R011** — ``models``/``linalg``/``optim`` never import (even
  transitively) the executing system, nor ``runtime`` the trainers;
* **R015** — no densification (``to_dense``, O(d) allocations,
  sparse→dense coercion) reachable from a per-round executor of a
  statically reconstructed ``RoundSpec`` (:mod:`repro.lint.specs`);
* **R016** — an executor's inferred cost class, on the lattice
  O(1) ⊑ O(B) ⊑ O(nnz) ⊑ O(d), never exceeds the class of its
  ``sparse_work``/``dense_work`` charges (dynamic twin: the engine's
  ``check_cost`` audit).

Run it with ``python -m repro.lint src``; ``docs/linting.md`` has one
row per rule id ever issued — what it caught, what enforces the same
thing at runtime, and why R002/R003/R007-R010/R012-R014/R017/R018 are
retired.
"""

from repro.lint.engine import (
    FileContext,
    LintEngine,
    Rule,
    discover_sources,
    register,
    registered_rules,
)
from repro.lint.findings import Finding

# Importing the rule modules populates both registries.
from repro.lint import rules as _rules  # noqa: F401
from repro.lint import program as _program  # noqa: F401
from repro.lint import sparsity as _sparsity  # noqa: F401
from repro.lint.program import (
    ProgramAnalyzer,
    ProgramRule,
    register_program,
    registered_program_rules,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "ProgramAnalyzer",
    "ProgramRule",
    "Rule",
    "discover_sources",
    "register",
    "register_program",
    "registered_rules",
    "registered_program_rules",
]
