"""Scaled-down profiles of the paper's evaluation datasets.

Table II of the paper lists five datasets.  We cannot ship them (size, and
WX is proprietary), so each profile carries two things:

* the *paper-scale* statistics (instances, features, bytes) — used by the
  analytic cost model so per-iteration time predictions are evaluated at
  the paper's true scale, and printed in Table II reports;
* *generator parameters* for a laptop-scale synthetic stand-in with the
  same sparsity structure (features-per-row, power-law feature popularity,
  one-hot values for the CTR datasets) — used wherever real gradients and
  convergence curves are needed.

Learning rates follow the paper's Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.datasets.dataset import Dataset
from repro.datasets.synthetic import make_classification


@dataclass(frozen=True)
class DatasetProfile:
    """One evaluation dataset: paper-scale stats + scaled generator knobs."""

    name: str
    # --- paper scale (Table II) ---
    paper_instances: int
    paper_features: int
    paper_size_bytes: int
    avg_nnz_per_row: float
    # --- scaled-down generator parameters ---
    scaled_rows: int
    scaled_features: int
    scaled_nnz_per_row: int
    zipf_exponent: float = 1.1
    binary_features: bool = True
    # --- Table III learning rates, keyed by model name ---
    learning_rates: Dict[str, float] = field(default_factory=dict)

    @property
    def paper_sparsity(self) -> float:
        """Paper-scale fraction of zero cells (rho in the analysis)."""
        return 1.0 - self.avg_nnz_per_row / self.paper_features

    def generate(self, seed=0, rows: Optional[int] = None, features: Optional[int] = None) -> Dataset:
        """Materialise the scaled synthetic stand-in (deterministic per seed)."""
        return make_classification(
            n_rows=rows if rows is not None else self.scaled_rows,
            n_features=features if features is not None else self.scaled_features,
            nnz_per_row=self.scaled_nnz_per_row,
            zipf_exponent=self.zipf_exponent,
            binary_features=self.binary_features,
            seed=seed,
            name=self.name,
        )

    def learning_rate(self, model: str) -> float:
        """Table III learning rate for ``model`` ('lr', 'svm', 'fm')."""
        key = model.lower()
        if key not in self.learning_rates:
            raise KeyError(
                "no Table III learning rate for model {!r} on {}".format(model, self.name)
            )
        return self.learning_rates[key]


PROFILES: Dict[str, DatasetProfile] = {
    "avazu": DatasetProfile(
        name="avazu",
        paper_instances=40_428_967,
        paper_features=1_000_000,
        paper_size_bytes=int(7.4e9),
        avg_nnz_per_row=15.0,
        scaled_rows=20_000,
        scaled_features=10_000,
        scaled_nnz_per_row=15,
        learning_rates={"lr": 10.0, "fm": 10.0, "svm": 1.0},
    ),
    "kddb": DatasetProfile(
        name="kddb",
        paper_instances=19_264_097,
        paper_features=29_890_095,
        paper_size_bytes=int(4.8e9),
        avg_nnz_per_row=29.0,
        scaled_rows=10_000,
        scaled_features=200_000,
        scaled_nnz_per_row=29,
        learning_rates={"lr": 10.0, "fm": 10.0, "svm": 1.0},
    ),
    "kdd12": DatasetProfile(
        name="kdd12",
        paper_instances=149_639_105,
        paper_features=54_686_452,
        paper_size_bytes=int(21e9),
        avg_nnz_per_row=11.0,
        scaled_rows=30_000,
        scaled_features=400_000,
        scaled_nnz_per_row=11,
        learning_rates={"lr": 100.0, "fm": 100.0, "svm": 1.0},
    ),
    "criteo": DatasetProfile(
        name="criteo",
        paper_instances=45_840_617,
        paper_features=39,
        paper_size_bytes=int(11e9),
        avg_nnz_per_row=39.0,
        scaled_rows=20_000,
        scaled_features=39,
        scaled_nnz_per_row=39,
        zipf_exponent=0.0,
        binary_features=False,
        learning_rates={"lr": 1.0, "fm": 1.0, "svm": 0.1},
    ),
    "wx": DatasetProfile(
        name="wx",
        paper_instances=69_581_214,
        paper_features=51_121_518,
        paper_size_bytes=int(130e9),
        avg_nnz_per_row=100.0,
        scaled_rows=20_000,
        scaled_features=300_000,
        scaled_nnz_per_row=100,
        learning_rates={"lr": 0.1, "fm": 0.1, "svm": 0.01},
    ),
}


def load_profile(name: str) -> DatasetProfile:
    """Look up a profile by (case-insensitive) dataset name."""
    key = name.lower()
    if key not in PROFILES:
        raise KeyError(
            "unknown dataset profile {!r}; available: {}".format(name, sorted(PROFILES))
        )
    return PROFILES[key]
