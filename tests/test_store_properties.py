"""Generated edge shapes: training from the column-shard store equals
training in memory on the simulator, on both backends.

The hand-picked store cases (``tests/test_store.py``) found K = 1 and
uneven splits only after review; here hypothesis draws the shapes: 1 to
8 workers, batches larger than the data, one-row blocks, columns no row
touches, both wire precisions, and graded, one-hot or all-but-one
one-hot values, for LR and a 2-factor FM.  A column piece whose values
are all 1.0 is a pattern record on disk and every other piece a valued
one, so both record kinds are drawn (and the stores copy no values out
of a pattern block).  Either both paths train the same model to the
bit, or both refuse with a structured :class:`~repro.errors.ReproError`.  The ``local`` leg draws
fewer and smaller shapes (at most 4 workers on at most 2 processes),
each bounded in wall time so a wedged process fails instead of hanging.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets.dataset import Dataset
from repro.errors import ReproError
from repro.linalg import CSRMatrix
from repro.models import FactorizationMachine, LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.store import ColumnShardStore
from tests.conftest import hard_bound

#: wall-clock bound of one ``local`` example (seconds)
LOCAL_BOUND_S = 10.0


@st.composite
def edge_shapes(draw, max_workers=8):
    workers = draw(st.integers(1, max_workers))
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 24))
    # columns outside ``touched`` have no entries in any row
    touched = draw(
        st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features,
                 unique=True)
    )
    rows = [
        sorted(draw(st.lists(st.sampled_from(touched), max_size=4, unique=True)))
        for _ in range(n_rows)
    ]
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_rows,
                           max_size=n_rows))
    config = dict(
        batch_size=draw(st.integers(1, 2 * n_rows + 3)),
        block_size=draw(st.sampled_from([1, 2, 3, 16])),
        wire_precision=draw(st.sampled_from(["fp64", "fp32"])),
    )
    # unit and mixed blocks take the stores' no-value-copy path
    values = draw(st.sampled_from(VALUE_KINDS)), draw(st.integers(0, 160))
    model_name = draw(st.sampled_from(["lr", "fm"]))
    return workers, rows, labels, n_features, values, model_name, config


#: the stored values: graded, all 1.0 (one-hot), or all 1.0 but one 2.0
VALUE_KINDS = ("linspace", "unit", "one 2.0")


def dataset(rows, labels, n_features, values) -> Dataset:
    """``values`` is a kind of :data:`VALUE_KINDS` and where a 2.0 goes."""
    kind, two_at = values
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([col for row in rows for col in row], dtype=np.int64)
    if kind == "linspace":
        data = np.linspace(0.5, 1.5, indices.size)
    else:
        data = np.ones(indices.size)
        if kind == "one 2.0" and indices.size:
            data[two_at % indices.size] = 2.0
    return Dataset(CSRMatrix(indptr, indices, data, n_features), labels)


def train(data, workers, model_name, config, store_dir="", **backend):
    """Final parameters of three rounds, or the ReproError raised."""
    model = LogisticRegression() if model_name == "lr" else FactorizationMachine(2)
    driver = ColumnSGDDriver(
        model, SGD(0.5), SimulatedCluster(CLUSTER1.with_workers(workers)),
        config=ColumnSGDConfig(iterations=3, eval_every=0, seed=3,
                               store_dir=store_dir, **config, **backend),
    )
    try:
        driver.load(data)
        return driver.fit().final_params
    except ReproError as exc:
        return exc


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_shapes())
def test_store_trains_the_in_memory_model(shape):
    workers, rows, labels, n_features, values, model_name, config = shape
    data = dataset(rows, labels, n_features, values)
    in_memory = train(data, workers, model_name, config)
    with tempfile.TemporaryDirectory() as store_dir:
        from_store = train(data, workers, model_name, config, store_dir)
        if ColumnShardStore.exists(store_dir):
            assert_record_kinds(ColumnShardStore.open(store_dir), data)
    assert_same_outcome(in_memory, from_store)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_shapes(max_workers=4))
def test_store_on_local_trains_the_in_memory_sim_model(shape):
    workers, rows, labels, n_features, values, model_name, config = shape
    data = dataset(rows, labels, n_features, values)
    in_memory = train(data, workers, model_name, config)
    with tempfile.TemporaryDirectory() as store_dir, hard_bound(LOCAL_BOUND_S):
        from_store = train(
            data, workers, model_name, config, store_dir,
            backend="local", local_processes=min(workers, 2),
        )
    assert_same_outcome(in_memory, from_store)


def assert_record_kinds(store, data):
    """Every shard record is a pattern record exactly when its column
    piece of the dataset holds only 1.0s."""
    sizes = store.sidecar_index.table[:, 2]
    for b, (lo, hi) in enumerate(zip(np.cumsum(sizes) - sizes, np.cumsum(sizes))):
        pieces = store.assignment().split(data.features.slice_rows(int(lo), int(hi)))
        for index, piece in zip(store.shard_indexes, pieces):
            assert index.pattern(b) == bool(np.all(piece.values() == 1.0))


def assert_same_outcome(reference, candidate):
    """The same parameters to the bit, or a ReproError on both sides."""
    if isinstance(reference, ReproError) or isinstance(candidate, ReproError):
        assert isinstance(reference, ReproError), candidate
        assert isinstance(candidate, ReproError), reference
    else:
        assert np.abs(reference - candidate).max() == 0.0
