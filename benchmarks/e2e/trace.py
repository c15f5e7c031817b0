"""In-memory span tracer installed from outside the program.

The traced run wraps public callables of ``repro`` (see
:func:`install_round_targets` / :func:`install_setup_targets`) so that every call
records a span — name, start, end, parent span, round id — without a
single edit under ``src/``.  Spans stay in memory until the run ends,
then :meth:`Tracer.write` dumps them as JSON-lines plus a Chrome-trace
file (open it in ``chrome://tracing`` or https://ui.perfetto.dev).

A span's *self time* is its duration minus its direct children's
durations, so the self times of a tree sum to the root's duration.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

_MISSING = object()


class Tracer:
    """Span store + monkeypatch bookkeeping (single-threaded)."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rounds: List[int] = []
        self.attrs: Dict[int, dict] = {}
        #: round id stamped on new spans; wrappers with ``round_of`` set it
        self.round = -1
        #: added to the iteration numbers the local runtime reports, which
        #: restart at 0 with every ``run_local_columnsgd`` call
        self.round_base = 0
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name,
        round_of: Optional[Callable] = None,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``;
        ``round_of(args, kwargs)`` sets the tracer's current round;
        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (numbers the layer itself reports: bytes, nnz, seconds).
        """
        tracer = self

        def traced(*args, **kwargs):
            if round_of is not None:
                tracer.round = round_of(args, kwargs)
            sid = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
                if extra:
                    tracer.attrs[sid] = extra
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installing / removing wrappers
    # ------------------------------------------------------------------
    def install(self, owner, attr: str, name, **hooks) -> None:
        """Replace ``owner.attr`` (module function, method, classmethod)."""
        own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else _MISSING
        current = own if own is not _MISSING else getattr(owner, attr)
        if isinstance(current, classmethod):
            patched = classmethod(self.wrap(current.__func__, name, **hooks))
        else:
            patched = self.wrap(current, name, **hooks)
        # an inherited method is shadowed on the subclass and the shadow
        # deleted on uninstall, so the base class is never touched
        inherited = isinstance(owner, type) and own is _MISSING
        self._installed.append((owner, attr, _MISSING if inherited else current))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        return [
            {
                "id": sid,
                "name": self.names[sid],
                "start": self.starts[sid],
                "end": self.ends[sid],
                "parent": self.parents[sid],
                "round": self.rounds[sid],
                **self.attrs.get(sid, {}),
            }
            for sid in range(len(self.names))
        ]

    def write(self, directory: Path, stem: str) -> None:
        """``<stem>.spans.jsonl`` + ``<stem>.chrome.json`` under ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        records = self.records()
        with open(directory / (stem + ".spans.jsonl"), "w", encoding="utf-8") as out:
            for record in records:
                out.write(json.dumps(record) + "\n")
        origin = min(self.starts, default=0.0)
        events = [
            {
                "name": r["name"], "ph": "X", "pid": 0, "tid": 0,
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "args": {k: v for k, v in r.items()
                         if k not in ("name", "start", "end")},
            }
            for r in records
        ]
        with open(directory / (stem + ".chrome.json"), "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Duration minus the direct children's durations, per span."""
    own = durations.copy()
    has_parent = parents >= 0
    np.subtract.at(own, parents[has_parent], durations[has_parent])
    return own


class Summary:
    """Per-round aggregates over a tracer's spans, in milliseconds.

    Statistics run over the rounds in ``round_ids``; a round in which a
    name recorded no span counts as zero.
    """

    def __init__(self, tracer: Tracer, round_ids: List[int]):
        self.tracer = tracer
        self.n_rounds = len(round_ids)
        self._names = np.asarray(tracer.names, dtype=object)
        self._dur = (np.asarray(tracer.ends) - np.asarray(tracer.starts)) * 1e3
        self._self = self_times(self._dur, np.asarray(tracer.parents, dtype=np.int64))
        position = {round_id: i for i, round_id in enumerate(round_ids)}
        #: per span, the position of its round in ``round_ids`` (-1 = outside)
        self.slots = np.asarray(
            [position.get(r, -1) for r in tracer.rounds], dtype=np.int64)

    def spans(self, name: str) -> np.ndarray:
        """Ids of the in-round spans called ``name``."""
        return np.flatnonzero((self._names == name) & (self.slots >= 0))

    def per_round(self, name: str, value: str = "dur") -> np.ndarray:
        """Per-round sum of ``dur``, ``self`` or a span attribute of ``name``."""
        idx = self.spans(name)
        if value == "dur":
            weights = self._dur[idx]
        elif value == "self":
            weights = self._self[idx]
        else:
            weights = np.asarray(
                [self.tracer.attrs.get(int(i), {}).get(value, 0.0) for i in idx],
                dtype=float,
            )
        return np.bincount(self.slots[idx], weights=weights, minlength=self.n_rounds)

    def per_round_max(self, name: str) -> np.ndarray:
        """Per-round duration of the longest ``name`` span."""
        idx = self.spans(name)
        longest = np.zeros(self.n_rounds)
        np.maximum.at(longest, self.slots[idx], self._dur[idx])
        return longest

    def calls(self, name: str, first_rounds: int) -> float:
        """Exact calls per round over the first ``first_rounds`` rounds."""
        idx = self.spans(name)
        return float(np.count_nonzero(self.slots[idx] < first_rounds)) / first_rounds

    def total_ms(self, name: str, value: str = "dur") -> float:
        """Total (self) time of every ``name`` span, inside a round or not."""
        values = self._self if value == "self" else self._dur
        return float(values[self._names == name].sum())


# ----------------------------------------------------------------------
# the wrapped callables (span names are this repo's module paths)
# ----------------------------------------------------------------------
KERNELS = ("row_dots", "row_dots_squared", "accumulate_rows", "accumulate_rows_squared")


def install_setup_targets(tracer: Tracer, stores: list) -> None:
    """Wrap what ``driver.load`` runs; created shard stores land in ``stores``."""
    import repro.core.driver as driver_module
    import repro.store as store_package
    from repro.store import ColumnShardStore

    def keep_store(args, kwargs, result):
        stores.append(result)

    tracer.install(driver_module.ColumnSGDDriver, "load", "core.driver.load")
    tracer.install(driver_module, "dispatch_block_based", "partition.dispatch.block_based")
    tracer.install(store_package, "store_backed_dispatch", "store.store_backed_dispatch")
    tracer.install(ColumnShardStore, "from_dataset", "store.from_dataset")
    tracer.install(ColumnShardStore, "open", "store.open")
    tracer.install(ColumnShardStore, "worker_store", "store.worker_store", attrs=keep_store)


def install_round_targets(tracer: Tracer, model, optimizer) -> None:
    """Wrap every layer boundary a training round crosses."""
    import repro.core.localexec as localexec
    import repro.models.fm as fm_module
    import repro.models.linear as linear_module
    from repro.core.driver import ColumnSGDDriver
    from repro.core.master import ColumnMaster
    from repro.core.worker import ColumnWorker
    from repro.linalg import CSRMatrix
    from repro.partition.indexing import TwoPhaseIndex
    from repro.partition.workset import WorksetStore
    from repro.runtime.local import LocalRuntime
    from repro.store.reader import ShardReader, ShardWorksetStore

    def worker_id(args, kwargs, result):
        return {"worker": args[0].worker_id}

    def exchange(args, kwargs, result):
        seconds = [result.replies[w].seconds for w in sorted(result.replies)]
        return {"worker_s": seconds, "retries": result.retries}

    install = tracer.install
    install(ColumnSGDDriver, "run_round", "core.driver.run_round",
            round_of=lambda args, kwargs: args[1])
    install(TwoPhaseIndex, "sample", "partition.indexing.sample")
    install(WorksetStore, "assemble_batch", "partition.workset.assemble",
            attrs=lambda args, kwargs, result: {"rows": int(result[1].size)})
    install(CSRMatrix, "take_rows", "linalg.csr.take_rows")
    install(CSRMatrix, "vstack", "linalg.csr.vstack")
    # models bind the kernels by name at import, so patch those bindings
    for module in (fm_module, linear_module):
        for kernel in KERNELS:
            if hasattr(module, kernel):
                install(module, kernel, "linalg.ops." + kernel,
                        attrs=lambda args, kwargs, result: {"nnz": args[0].nnz})
    install(type(model), "compute_statistics", "models.statistics")
    install(type(model), "gradient_from_statistics", "models.gradient")
    install(type(optimizer), "step", "optim.step")
    install(ColumnWorker, "compute_statistics", "core.worker.compute", attrs=worker_id)
    install(ColumnWorker, "update_model", "core.worker.update", attrs=worker_id)
    install(ColumnMaster, "reduce", "core.master.reduce")
    install(localexec, "encode_payload", "storage.serialization.encode",
            attrs=lambda args, kwargs, result: {"bytes": len(result)})
    install(localexec, "decode_payload", "storage.serialization.decode",
            attrs=lambda args, kwargs, result: {"bytes": len(args[0])})
    install(LocalRuntime, "run_all",
            lambda args, kwargs: "runtime.local.run_all." + args[1],
            round_of=lambda args, kwargs: (
                -1 if kwargs.get("iteration") is None
                else tracer.round_base + kwargs["iteration"]),
            attrs=exchange)
    install(LocalRuntime, "measure", "runtime.local.measure")
    install(ShardWorksetStore, "get", "store.get")
    install(ShardReader, "csr_block", "store.reader.csr_block")
    install(ShardReader, "labels", "store.reader.labels")
