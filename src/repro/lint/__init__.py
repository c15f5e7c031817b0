"""Project-specific static analysis for the ColumnSGD reproduction.

The reproduction's headline claims rest on two promises: byte-exact
communication accounting (Table I validation) and deterministic replay
(the driver's exactness invariant).  This package enforces the coding
invariants behind those promises with six per-file AST rules:

* **R001** — all randomness flows through :mod:`repro.utils.rng`;
* **R002** — every :class:`~repro.net.message.Message` size comes from
  :mod:`repro.storage.serialization` helpers or named constants;
* **R003** — no wall-clock time or sleeping in simulated-time code;
* **R004** — no exact equality against inexact float literals;
* **R005** — no bare/over-broad ``except`` in protocol paths;
* **R006** — public config dataclasses validate their numeric fields;

and five whole-program rules (:mod:`repro.lint.program`) that see the
same invariants *across* function and module boundaries:

* **R007** — no entropy source reachable from protocol-path code
  through any chain of project calls;
* **R008** — no wall-clock source reachable from protocol-path code;
* **R009** — ``Message`` byte sizes trace back to serialization helpers
  or named constants across function boundaries;
* **R010** — each trainer's statically-extracted per-round message
  kinds match its declared ``_round_expected`` traffic;
* **R011** — ``models``/``linalg``/``optim`` never import (even
  transitively) ``sim``/``net``/``core``;

plus three sparsity-safety rules (:mod:`repro.lint.sparsity`) that
abstractly interpret every executor of every statically reconstructed
``RoundSpec`` (:mod:`repro.lint.specs`) over a cost-class lattice
O(1) ⊑ O(B) ⊑ O(nnz) ⊑ O(d):

* **R015** — no densification (``to_dense``, O(d) allocations,
  sparse→dense coercion) reachable from a per-round executor;
* **R016** — an executor's inferred cost class never exceeds the class
  of its ``sparse_work``/``dense_work`` charges (dynamic twin: the
  engine's ``check_cost`` audit);
* **R017** — no immutable ``SparseVector`` rebuilt from itself inside
  a loop (O(nnz²) accumulation).

Run it with ``python -m repro.lint src``; see ``docs/linting.md``.
The runtime complement — BSP invariants checked against the live event
log — is :class:`repro.net.protocol.ProtocolChecker`; R010 is its
static shadow.
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
    extract_round_protocol,
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
    "extract_round_protocol",
    "register",
    "register_program",
    "registered_rules",
    "registered_program_rules",
]
