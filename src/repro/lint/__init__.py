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

and one whole-program rule over the import graph of the file set
(:func:`~repro.lint.program.check_import_layering`):

* **R011** — ``models``/``linalg``/``optim`` never import (even
  transitively) the executing system, nor ``runtime`` the trainers.

Run it with ``python -m repro.lint src``; ``docs/linting.md`` has one
row per rule id ever issued — what it caught, what enforces the same
thing at runtime, and why R002/R003/R007-R010/R012-R018 are retired
(an O(m) slip on a round's path, R015/R016's bug class, is caught by
the wall-clock width gate, ``docs/sparsity.md``).
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

# Importing the rule module populates the registry.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "Rule",
    "discover_sources",
    "register",
    "registered_rules",
]
