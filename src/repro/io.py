"""Model checkpointing: save/load parameter arrays with metadata.

The paper's system deliberately runs without checkpoints (Section X:
SGD's robustness substitutes for them), but a library user still wants
to persist a trained model and score it later (``repro evaluate``).
Checkpoints are ``.npz`` files carrying the parameter array plus a small metadata
record (model name, dimensions, arbitrary user fields).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import DataError

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_model(
    path: PathLike,
    model_name: str,
    params: np.ndarray,
    metadata: Optional[Dict] = None,
) -> None:
    """Write a checkpoint.

    ``metadata`` must be JSON-serialisable; dimensions and the format
    version are recorded automatically.
    """
    params = np.asarray(params, dtype=np.float64)
    record = {
        "format_version": _FORMAT_VERSION,
        "model_name": str(model_name),
        "shape": list(params.shape),
    }
    if metadata:
        overlap = set(metadata) & set(record)
        if overlap:
            raise ValueError("metadata keys {} are reserved".format(sorted(overlap)))
        record.update(metadata)
    np.savez(
        str(path),
        params=params,
        metadata=np.frombuffer(json.dumps(record).encode("utf-8"), dtype=np.uint8),
    )


def load_model(path: PathLike) -> Tuple[str, np.ndarray, Dict]:
    """Read a checkpoint; returns ``(model_name, params, metadata)``."""
    path = Path(str(path))
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(str(path)) as archive:
        if "params" not in archive or "metadata" not in archive:
            raise DataError("{} is not a repro checkpoint".format(path))
        params = np.asarray(archive["params"], dtype=np.float64)
        record = json.loads(bytes(archive["metadata"].tobytes()).decode("utf-8"))
    if record.get("format_version") != _FORMAT_VERSION:
        raise DataError(
            "unsupported checkpoint version {!r}".format(record.get("format_version"))
        )
    if list(params.shape) != record["shape"]:
        raise DataError("checkpoint shape metadata disagrees with the array")
    model_name = record.pop("model_name")
    record.pop("format_version")
    record.pop("shape")
    return model_name, params, record
