"""LIBSVM text format reader/writer.

The format the paper's public datasets ship in: one example per line,

    <label> <index>:<value> <index>:<value> ...

with 1-based or 0-based indices (auto-detected on read; LIBSVM upstream is
1-based).  Comments after ``#`` are ignored, as in the reference tools.

Paths ending in ``.gz`` are read and written through gzip transparently —
the public datasets distribute compressed, and streaming consumers
(:func:`iter_libsvm`, the store's out-of-core shuffle) decompress on the
fly without an intermediate plain-text copy.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.datasets.dataset import Dataset
from repro.errors import LibsvmFormatError
from repro.linalg import CSRMatrix, SparseVector

PathOrStream = Union[str, Path, io.TextIOBase]


def _open_text(path: Union[str, Path], mode: str):
    """Open a LIBSVM path for text I/O, decompressing ``.gz`` on the fly."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def iter_libsvm(source: PathOrStream) -> Iterator[Tuple[float, np.ndarray, np.ndarray]]:
    """Yield ``(label, indices, values)`` per line, indices as given in the file.

    Raises :class:`LibsvmFormatError` on malformed records.  Blank lines
    are skipped.
    """
    close = False
    if isinstance(source, (str, Path)):
        stream = _open_text(source, "r")
        close = True
    else:
        stream = source
    try:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise LibsvmFormatError(line_no, raw, "label is not a number") from None
            indices = np.empty(len(parts) - 1, dtype=np.int64)
            values = np.empty(len(parts) - 1, dtype=np.float64)
            for j, token in enumerate(parts[1:]):
                idx_str, sep, val_str = token.partition(":")
                if not sep:
                    raise LibsvmFormatError(line_no, raw, "feature token missing ':'")
                try:
                    indices[j] = int(idx_str)
                    values[j] = float(val_str)
                except ValueError:
                    raise LibsvmFormatError(
                        line_no, raw, "bad feature token {!r}".format(token)
                    ) from None
            if indices.size and np.any(indices < 0):
                raise LibsvmFormatError(line_no, raw, "negative feature index")
            yield label, indices, values
    finally:
        if close:
            stream.close()


def read_libsvm(
    source: PathOrStream,
    n_features: Optional[int] = None,
    name: str = "libsvm",
) -> Dataset:
    """Read a whole LIBSVM file into a :class:`Dataset`.

    Parameters
    ----------
    n_features:
        Model dimension; inferred as ``max index + 1`` when omitted.
    """
    labels = []
    rows = []
    min_index = None
    max_index = -1
    for label, indices, values in iter_libsvm(source):
        labels.append(label)
        rows.append((indices, values))
        if indices.size:
            low = int(indices.min())
            min_index = low if min_index is None else min(min_index, low)
            max_index = max(max_index, int(indices.max()))

    # a file whose minimum index is 0 is zero-based; otherwise indices
    # shift down by one (LIBSVM's 1-based convention)
    zero_based = min_index == 0 if min_index is not None else True
    shift = 0 if zero_based else 1
    inferred_dim = max_index + 1 - shift if max_index >= 0 else 0
    dim = n_features if n_features is not None else max(inferred_dim, 0)
    if dim < inferred_dim:
        raise ValueError(
            "n_features={} is smaller than max index {} in file".format(dim, inferred_dim - 1)
        )

    vectors = [SparseVector(idx - shift, val, dim) for idx, val in rows]
    features = (
        CSRMatrix.from_rows(vectors, n_cols=dim)
        if vectors
        else CSRMatrix.empty(0, dim)
    )
    return Dataset(features, np.asarray(labels, dtype=np.float64), name=name)


def write_libsvm(dataset: Dataset, target: PathOrStream) -> None:
    """Write a dataset in LIBSVM text format (1-based indices)."""
    close = False
    if isinstance(target, (str, Path)):
        stream = _open_text(target, "w")
        close = True
    else:
        stream = target
    try:
        for i in range(dataset.n_rows):
            row = dataset.features.row(i)
            tokens = ["{:g}".format(dataset.labels[i])]
            tokens.extend(
                "{}:{:g}".format(int(idx) + 1, val) for idx, val in row.items()
            )
            stream.write(" ".join(tokens))
            stream.write("\n")
    finally:
        if close:
            stream.close()
