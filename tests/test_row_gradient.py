"""One compact gradient form — and still the dense code's bits.

``gradient_from_statistics`` returns a :class:`~repro.linalg.RowGradient`
over the columns a batch touches, ``Optimizer.step`` applies it in place,
and the kernels run the whole width of a model in one pass.  The code
this replaced — per-factor kernel calls scattering with ``np.add.at``
into partition-sized arrays, dense model bodies, dense optimizer steps —
lives on here as the oracle: statistics, densified gradients and
post-step parameters must reproduce it bit for bit, signed zeros
included.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.worker import ColumnWorker
from repro.datasets.dataset import Dataset
from repro.errors import DimensionMismatchError
from repro.extensions import ColumnMLP
from repro.linalg import (
    EVERY_ROW,
    OP_COUNTERS,
    CSRMatrix,
    RowGradient,
    accumulate_rows,
    accumulate_rows_squared,
    row_dots,
    row_dots_squared,
)
from repro.linalg.ops import BLOCK_ELEMENTS
from repro.models import (
    FactorizationMachine,
    FieldAwareFM,
    LinearSVM,
    LogisticRegression,
    MultinomialLogisticRegression,
)
from repro.models.losses import HingeLoss, LogisticLoss
from repro.optim import SGD, AdaGrad, Adam
from repro.sim import CLUSTER1, SimulatedCluster
from tests.conftest import dense_gradient

N_FIELDS = 2


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal as IEEE-754 bit patterns (so ``-0.0 != +0.0``)."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and (
        got.tobytes() == want.tobytes()
    )


# ----------------------------------------------------------------------
# the oracle: the kernels, model bodies and steps this PR removed
# ----------------------------------------------------------------------
def old_reduce_rows(matrix, per_entry):
    out = np.zeros(matrix.n_rows, dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(matrix.indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(per_entry, matrix.indptr[nonempty])
    return out


def old_row_dots(matrix, model):
    if matrix.nnz == 0:
        return np.zeros(matrix.n_rows, dtype=np.float64)
    return old_reduce_rows(matrix, matrix.data * model[matrix.indices])


def old_row_dots_squared(matrix, model):
    """Per-row ``sum_j x_ij^2 * model_j`` (callers passed ``v_f ** 2``)."""
    if matrix.nnz == 0:
        return np.zeros(matrix.n_rows, dtype=np.float64)
    return old_reduce_rows(matrix, (matrix.data ** 2) * model[matrix.indices])


def old_accumulate_rows(matrix, coefficients, squared=False):
    out = np.zeros(matrix.n_cols, dtype=np.float64)
    if matrix.nnz == 0:
        return out
    data = matrix.data ** 2 if squared else matrix.data
    np.add.at(out, matrix.indices, data * np.repeat(coefficients, np.diff(matrix.indptr)))
    return out


class OldGLM:
    def __init__(self, loss):
        self.loss_fn = loss

    def statistics(self, model, features, params):
        return old_row_dots(features, params).reshape(-1, 1)

    def gradient(self, model, features, labels, statistics, params):
        coefficients = self.loss_fn.derivative(statistics[:, 0], labels)
        grad = old_accumulate_rows(features, coefficients) / max(len(labels), 1)
        return grad


class OldMLR:
    def statistics(self, model, features, params):
        return np.column_stack(
            [old_row_dots(features, params[:, c]) for c in range(model.n_classes)]
        )

    def gradient(self, model, features, labels, statistics, params):
        residual = model._probabilities(statistics) - model._one_hot(labels, len(labels))
        grad = np.column_stack(
            [old_accumulate_rows(features, residual[:, c]) for c in range(model.n_classes)]
        )
        return grad / max(len(labels), 1)


class OldFM:
    def statistics(self, model, features, params):
        stats = np.empty((features.n_rows, 1 + model.n_factors), dtype=np.float64)
        bracket = old_row_dots(features, params[:, 0])
        for f in range(model.n_factors):
            v_f = params[:, 1 + f]
            stats[:, 1 + f] = old_row_dots(features, v_f)
            bracket -= 0.5 * old_row_dots_squared(features, v_f ** 2)
        stats[:, 0] = bracket
        return stats

    def gradient(self, model, features, labels, statistics, params):
        coefficients = model._loss.derivative(model._raw_scores(statistics), labels)
        grad = np.empty_like(params)
        grad[:, 0] = old_accumulate_rows(features, coefficients)
        sq_acc = old_accumulate_rows(features, coefficients, squared=True)
        for f in range(model.n_factors):
            grad[:, 1 + f] = (
                old_accumulate_rows(features, coefficients * statistics[:, 1 + f])
                - params[:, 1 + f] * sq_acc
            )
        return grad / max(len(labels), 1)


class OldFFM:
    def statistics(self, model, features, params):
        fields = params[:, 0].astype(np.int64)
        stats = np.zeros((features.n_rows, model.statistics_width), dtype=np.float64)
        s0 = old_row_dots(features, params[:, 1])
        for a in range(model.n_fields):
            mask = (fields == a).astype(np.float64)
            for f in range(model.n_factors):
                q_col = (params[:, 2 + a * model.n_factors + f] ** 2) * mask
                s0 -= 0.5 * old_row_dots_squared(features, q_col)
                for b in range(model.n_fields):
                    t_col = params[:, 2 + b * model.n_factors + f] * mask
                    stats[:, model._t_index(a, b, f)] = old_row_dots(features, t_col)
        stats[:, 0] = s0
        return stats

    def gradient(self, model, features, labels, statistics, params):
        c = model._loss.derivative(model._raw_scores(statistics), labels)
        fields = params[:, 0].astype(np.int64)
        grad = np.zeros_like(params)
        grad[:, 1] = old_accumulate_rows(features, c)
        sq_acc = old_accumulate_rows(features, c, squared=True)
        for a in range(model.n_fields):
            mask = fields == a
            if not mask.any():
                continue
            for f in range(model.n_factors):
                for b in range(model.n_fields):
                    coeff = c * statistics[:, model._t_index(b, a, f)]
                    col = 2 + b * model.n_factors + f
                    grad[mask, col] = old_accumulate_rows(features, coeff)[mask]
                    if b == a:
                        grad[mask, col] -= params[:, col][mask] * sq_acc[mask]
        grad /= max(len(labels), 1)
        grad[:, 0] = 0.0
        return grad


class OldSGD:
    """The dense steps as they were; ``state`` mirrors ``state_arrays()``."""

    def __init__(self, rate):
        self.rate = rate

    def step(self, params, gradient):
        params -= self.rate * gradient

    def state(self):
        return []


class OldAdaGrad:
    def __init__(self, rate, epsilon=1e-8):
        self.rate, self.epsilon, self.accumulator = rate, epsilon, None

    def step(self, params, gradient):
        if self.accumulator is None:
            self.accumulator = np.zeros_like(params)
        self.accumulator += gradient ** 2
        params -= self.rate * gradient / (np.sqrt(self.accumulator) + self.epsilon)

    def state(self):
        return [] if self.accumulator is None else [self.accumulator]


class OldAdam:
    def __init__(self, rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.rate, self.beta1, self.beta2, self.epsilon = rate, beta1, beta2, epsilon
        self.m = self.v = None
        self.t = 0

    def step(self, params, gradient):
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * gradient
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * gradient ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        params -= self.rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def state(self):
        if self.m is None:
            return []
        return [self.m, self.v, np.array([self.t], dtype=np.float64)]


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def binary(rng, n):
    return np.where(rng.random(n) < 0.5, 1.0, -1.0)


def classes(rng, n):
    return rng.integers(0, 3, size=n).astype(np.float64)


def make_case(name, n_cols):
    """``(model, oracle, label sampler)`` for one model family."""
    if name == "lr":
        return LogisticRegression(), OldGLM(LogisticLoss()), binary
    if name == "svm":
        return LinearSVM(), OldGLM(HingeLoss()), binary
    if name == "mlr":
        return MultinomialLogisticRegression(3), OldMLR(), classes
    if name == "fm":
        return FactorizationMachine(3), OldFM(), binary
    field_of = np.arange(n_cols) % N_FIELDS
    return FieldAwareFM(field_of, n_factors=2), OldFFM(), binary


MODEL_NAMES = ("lr", "svm", "mlr", "fm", "ffm")


def random_params(model, n_cols, rng):
    params = model.init_params(n_cols, seed=int(rng.integers(1 << 30)))
    noise = rng.normal(0.0, 0.5, size=params.shape)
    if isinstance(model, FieldAwareFM):
        noise[:, 0] = 0.0  # the field-id column is metadata
    return params + noise


@st.composite
def batches(draw):
    """CSR batches covering the shapes the kernels special-case.

    Empty batches, all-empty rows, one-column shards, columns repeated
    across rows, explicit zeros in ``data``, all-cancelling columns, and
    rows long enough (>= 8, >= 128 entries) to reach both branches of
    numpy's pairwise summation.
    """
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(
        ["empty", "empty_rows", "one_column", "small", "cancelling", "long", "very_long"]
    ))
    if shape == "empty":
        return CSRMatrix.empty(0, draw(st.integers(1, 6))), seed
    if shape == "empty_rows":
        return CSRMatrix.empty(draw(st.integers(1, 5)), draw(st.integers(1, 6))), seed
    n_rows = draw(st.integers(1, 7))
    if shape == "one_column":
        n_cols, lengths = 1, rng.integers(0, 2, size=n_rows)
    elif shape in ("small", "cancelling"):
        n_cols = draw(st.integers(2, 9))
        lengths = rng.integers(0, n_cols + 1, size=n_rows)
    else:
        n_cols = 40 if shape == "long" else 300
        floor = 8 if shape == "long" else 128
        lengths = rng.integers(floor, n_cols + 1, size=n_rows)
        lengths[rng.integers(n_rows)] = 0  # an empty row among long ones
    indices = [np.sort(rng.choice(n_cols, size=int(k), replace=False)) for k in lengths]
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    indices = np.concatenate(indices + [np.empty(0, dtype=np.int64)]).astype(np.int64)
    data = rng.normal(size=indices.size)
    data[rng.random(indices.size) < 0.2] = 0.0  # explicit zeros
    data[rng.random(indices.size) < 0.1] *= -0.0  # and negative ones
    if shape == "cancelling" and n_rows >= 2:
        # rows 0 and 1 hold the same columns with opposite values, so
        # with equal coefficients every one of those columns sums to 0
        lo, hi = indptr[0], indptr[1]
        indptr = np.concatenate(([0, hi - lo], indptr[1:] + (hi - lo))).astype(np.int64)
        indices = np.concatenate((indices[lo:hi], indices))
        data = np.concatenate((-data[lo:hi], data))
    return CSRMatrix(indptr, indices, data, n_cols), seed


# ----------------------------------------------------------------------
# (a) kernels, statistics, gradients and steps against the oracle
# ----------------------------------------------------------------------
class TestKernelsMatchPerColumnOracle:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batches(), st.integers(1, 5))
    def test_row_kernels(self, batch, width):
        """2-D reduceat == one 1-D reduceat per column, bit for bit."""
        matrix, seed = batch
        model = np.random.default_rng(seed).normal(size=(matrix.n_cols, width))
        wide = row_dots(matrix, model)
        wide_sq = row_dots_squared(matrix, model)
        assert wide.shape == wide_sq.shape == (matrix.n_rows, width)
        for k in range(width):
            assert same_bits(wide[:, k], old_row_dots(matrix, model[:, k]))
            assert same_bits(row_dots(matrix, model[:, k]), wide[:, k])
            assert same_bits(wide_sq[:, k], old_row_dots_squared(matrix, model[:, k] ** 2))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batches(), st.integers(1, 5))
    def test_column_kernels(self, batch, width):
        """bincount in the compact space == np.add.at into zeros(n_cols)."""
        matrix, seed = batch
        coefficients = np.random.default_rng(seed).normal(size=(matrix.n_rows, width))
        coefficients[:2] = coefficients[:1]  # lets 'cancelling' columns cancel
        for kernel, squared in ((accumulate_rows, False), (accumulate_rows_squared, True)):
            wide = kernel(matrix, coefficients)
            assert np.unique(wide.cols).size == wide.cols.size
            assert set(wide.cols.tolist()) == set(matrix.indices.tolist())
            assert wide.values.shape == (wide.cols.size, width)
            dense = wide.to_dense()
            for k in range(width):
                want = old_accumulate_rows(matrix, coefficients[:, k], squared)
                assert same_bits(dense[:, k], want)
                assert same_bits(kernel(matrix, coefficients[:, k]).to_dense(), want)

    def test_row_blocks_do_not_change_a_bit(self, monkeypatch):
        """Row sums are the same whatever the kernel's block size."""
        import repro.linalg.ops as ops

        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 60, size=200)
        lengths[[0, 57, 199]] = 0
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = np.concatenate([np.sort(rng.choice(80, size=k, replace=False)) for k in lengths])
        model = rng.normal(size=(80, 3))
        # Gaussian values, and the ones whose multiplies are skipped
        for data in (rng.normal(size=indices.size), np.ones(indices.size)):
            matrix = CSRMatrix(indptr, indices, data, 80)
            whole, whole_squared = row_dots(matrix, model), ops.row_dots_squared(matrix, model)
            assert matrix.nnz * 3 * 2 < BLOCK_ELEMENTS  # those were one block
            for block in (1, 7, 64, 1000):
                monkeypatch.setattr(ops, "BLOCK_ELEMENTS", block)
                assert same_bits(row_dots(matrix, model), whole)
                assert same_bits(ops.row_dots_squared(matrix, model), whole_squared)
                dots, squares = row_dots(matrix, model, squares_from=1)
                assert same_bits(dots, whole)
                assert same_bits(squares, ops.row_dots_squared(matrix, model[:, 1:]))
            monkeypatch.undo()


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestModelsMatchDenseOracle:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batch=batches())
    def test_statistics_gradient_and_step(self, name, batch):
        features, seed = batch
        rng = np.random.default_rng(seed + 1)
        model, oracle, sample_labels = make_case(name, features.n_cols)
        params = random_params(model, features.n_cols, rng)
        labels = sample_labels(rng, features.n_rows)
        labels[:2] = labels[:1]

        statistics = model.compute_statistics(features, params)
        want_stats = oracle.statistics(model, features, params)
        assert same_bits(statistics, want_stats)

        # complete statistics = this shard's plus "the other workers'"
        complete = statistics + rng.normal(0.0, 0.3, size=statistics.shape)
        complete[:2] = complete[:1]
        gradient = model.gradient_from_statistics(
            features, labels, model.coefficients(complete, labels), params
        )
        want_grad = oracle.gradient(model, features, labels, complete, params)
        assert isinstance(gradient, RowGradient)
        assert gradient.shape == params.shape
        assert same_bits(gradient.to_dense(), want_grad)
        assert same_bits(model.gradient(features, labels, params),
                         oracle.gradient(model, features, labels, want_stats, params))

        for ours, theirs in ((SGD(0.3), OldSGD(0.3)), (AdaGrad(0.3), OldAdaGrad(0.3))):
            stepped, want = params.copy(), params.copy()
            # a step may consume the block, so each optimizer gets its own
            ours.step(stepped, RowGradient(gradient.cols, gradient.values.copy(), gradient.shape))
            theirs.step(want, want_grad)
            assert same_bits(stepped, want)


# ----------------------------------------------------------------------
# (b) sparse step == dense step, five rounds, state included
# ----------------------------------------------------------------------
def training_rounds(name, rounds=5, seed=7):
    """Batches of one shard with the params both sides start from."""
    rng = np.random.default_rng(seed)
    n_cols = 30
    model, oracle, sample_labels = make_case(name, n_cols)
    params = random_params(model, n_cols, rng)
    batches_ = []
    for _ in range(rounds):
        lengths = rng.integers(0, 6, size=12)
        indices = np.concatenate(
            [np.sort(rng.choice(n_cols // 2, size=k, replace=False)) for k in lengths]
        ).astype(np.int64)  # half the columns are never touched
        features = CSRMatrix(
            np.concatenate(([0], np.cumsum(lengths))), indices,
            rng.normal(size=indices.size), n_cols,
        )
        batches_.append((features, sample_labels(rng, 12)))
    return model, oracle, params, batches_


def run_both(model, oracle, params, rounds, ours, theirs, trained=None):
    """Step ``trained`` (``model`` unless given) with ``ours`` and the
    oracle with ``theirs``; both must agree to the bit every round."""
    trained = model if trained is None else trained
    got, want = params.copy(), params.copy()
    for t, (features, labels) in enumerate(rounds):
        statistics = trained.compute_statistics(features, got)
        gradient = trained.gradient_from_statistics(
            features, labels, trained.coefficients(statistics, labels), got
        )
        ours.step(got, gradient)
        want_stats = oracle.statistics(model, features, want)
        theirs.step(want, oracle.gradient(model, features, labels, want_stats, want))
        assert same_bits(got, want), "round {}".format(t)
        state, want_state = ours.state_arrays(), theirs.state()
        assert len(state) == len(want_state)
        for a, b in zip(state, want_state):
            assert same_bits(a, b), "round {} state".format(t)
    return gradient


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestStepMatchesDenseStep:
    @pytest.mark.parametrize("make", [
        lambda: (SGD(0.2), OldSGD(0.2)),
        lambda: (AdaGrad(0.2), OldAdaGrad(0.2)),
    ], ids=["sgd", "adagrad"])
    def test_sparse_step_is_the_dense_step(self, name, make):
        model, oracle, params, rounds = training_rounds(name)
        last = run_both(model, oracle, params, rounds, *make())
        # the gradient really was compact: untouched columns never appear
        assert last.cols.size < params.shape[0]
        assert last.cols.max() < params.shape[0] // 2

    @pytest.mark.parametrize("make", [
        lambda: (Adam(0.05), OldAdam(0.05)),
    ], ids=["adam"])
    def test_decaying_state_takes_the_dense_fallback(self, name, make):
        model, oracle, params, rounds = training_rounds(name)
        run_both(model, oracle, params, rounds, *make())

    @pytest.mark.parametrize("make", [
        lambda: (SGD(0.2), OldSGD(0.2)),
        lambda: (AdaGrad(0.2), OldAdaGrad(0.2)),
        lambda: (Adam(0.05), OldAdam(0.05)),
    ], ids=["sgd", "adagrad", "adam"])
    def test_dense_user_gradient_steps_every_row(self, name, make):
        model, oracle, params, rounds = training_rounds(name)
        last = run_both(
            model, oracle, params, rounds, *make(), trained=dense_gradient(model)
        )
        assert last.cols is EVERY_ROW  # a dense return covers every row


class TestStepValidatesRowGradients:
    @pytest.mark.parametrize("optimizer", [SGD(0.1), AdaGrad(0.1), Adam(0.1)],
                             ids=["sgd", "adagrad", "adam"])
    def test_bad_row_gradients_are_rejected(self, optimizer):
        params = np.zeros((6, 3))
        cols = np.array([1, 4])
        for bad in (
            RowGradient(cols, np.zeros((2, 3)), (7, 3)),   # another array's gradient
            RowGradient(cols, np.zeros((2, 5)), (6, 3)),   # wrong value width
            RowGradient(cols, np.zeros((3, 3)), (6, 3)),   # rows and values disagree
            RowGradient(cols, np.zeros(2), (6, 3)),
            RowGradient(EVERY_ROW, np.zeros((5, 3)), (6, 3)),  # "every row", one short
        ):
            with pytest.raises(ValueError, match=r"gradient shape .* != params shape"):
                optimizer.step(params, bad)
        for rows in (np.array([1, 6]), np.array([-1, 2])):
            with pytest.raises(ValueError, match="outside params rows"):
                optimizer.step(params, RowGradient(rows, np.zeros((2, 3)), (6, 3)))
        assert not params.any() and optimizer.state_arrays() == []

    def test_dense_gradients_still_step(self):
        params = np.ones(4)
        SGD(0.5).step(params, np.array([1.0, 0.0, -1.0, 2.0]))
        assert params.tolist() == [0.5, 1.0, 1.5, 0.0]
        with pytest.raises(ValueError, match=r"gradient shape \(3,\) != params shape \(4,\)"):
            SGD(0.5).step(params, np.zeros(3))


class TestRowGradient:
    def test_add_to_and_to_dense(self):
        gradient = RowGradient(np.array([3, 0]), np.array([[1.0, -0.0], [2.0, 5.0]]), (4, 2))
        dense = gradient.to_dense()
        assert same_bits(dense, np.array([[2.0, 5.0], [0.0, 0.0], [0.0, 0.0], [1.0, -0.0]]))
        total = np.ones((4, 2))
        assert gradient.add_to(total) is total
        assert total.tolist() == [[3.0, 6.0], [1.0, 1.0], [1.0, 1.0], [2.0, 1.0]]


# ----------------------------------------------------------------------
# structured shape errors (satellite bugfix)
# ----------------------------------------------------------------------
class TestShapeValidation:
    FEATURES = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    LABELS = np.array([1.0, -1.0])

    def wide_models(self):
        return [
            (FactorizationMachine(n_factors=2), (3, 3), 3),
            (MultinomialLogisticRegression(4), (3, 4), 4),
            (FieldAwareFM(np.array([0, 1, 0]), n_factors=2), (3, 6), 9),
        ]

    def test_params_shape_is_checked(self):
        for model, shape, _ in self.wide_models():
            for bad in ((3, shape[1] + 2), (3, shape[1] - 1), (4, shape[1]), (3,)):
                with pytest.raises(DimensionMismatchError, match="params shape") as err:
                    model.compute_statistics(self.FEATURES, np.ones(bad))
                assert err.value.expected == shape and err.value.actual == bad
        with pytest.raises(DimensionMismatchError, match="params shape"):
            LogisticRegression().compute_statistics(self.FEATURES, np.ones((3, 2)))

    def test_statistics_and_labels_shapes_are_checked(self):
        for model, shape, width in self.wide_models():
            params = model.init_params(3, seed=0)
            good = np.zeros((2, width))
            label = 0.0 if isinstance(model, MultinomialLogisticRegression) else 1.0
            labels = np.full(2, label)
            coefficients = model.coefficients(good, labels)
            model.gradient_from_statistics(self.FEATURES, labels, coefficients, params)
            for bad in ((2, width + 2), (2, width - 1), (3, width)):
                with pytest.raises(DimensionMismatchError, match="statistics shape") as err:
                    model.coefficients(np.zeros(bad), labels)
                assert err.value.expected == (2, width) and err.value.actual == bad
            with pytest.raises(DimensionMismatchError, match="labels shape") as err:
                model.gradient_from_statistics(
                    self.FEATURES, np.full(3, label), coefficients, params)
            assert err.value.expected == (2,) and err.value.actual == (3,)
        fm = FactorizationMachine(n_factors=2)
        with pytest.raises(DimensionMismatchError, match="params shape"):
            fm.gradient_from_statistics(
                self.FEATURES, self.LABELS, fm.coefficients(np.zeros((2, 3)), self.LABELS),
                np.ones((3, 5)))


# ----------------------------------------------------------------------
# (c) Fig 10 as a count and as a time: a round's work does not depend on m
# ----------------------------------------------------------------------
NARROW, WIDE = 100_000, 10_000_000

#: the wall-clock gate: a round at m = 1e7 may take at most this many
#: times the same round at m = 1e5 (p05 over ``GATE_ROUNDS`` rounds)
WIDTH_RATIO_BOUND = 2.0
GATE_ROUNDS = 100


def flat_in_m_dataset(n_features: int, zero_one_labels: bool = False) -> Dataset:
    """The same 400 rows whatever m is: columns drawn once, below 1e5."""
    rng = np.random.default_rng(11)
    n_rows, per_row = 400, 12
    indices = np.concatenate(
        [np.sort(rng.choice(100_000, size=per_row, replace=False)) for _ in range(n_rows)]
    )
    features = CSRMatrix(
        np.arange(0, n_rows * per_row + 1, per_row), indices,
        rng.normal(size=indices.size), n_features,
    )
    labels = np.where(rng.random(n_rows) < 0.5, 1.0, -1.0)
    if zero_one_labels:
        labels = (labels > 0).astype(np.float64)
    return Dataset(features, labels, name="flat-in-m")


def column_driver(make_model, backend="sim"):
    def build():
        return ColumnSGDDriver(
            make_model(), SGD(0.1), SimulatedCluster(CLUSTER1.with_workers(4)),
            config=ColumnSGDConfig(
                batch_size=100, eval_every=0, seed=3, backend=backend,
                local_processes=2 if backend == "local" else 0,
            ),
        )
    return build


#: every ColumnSGD trainer that claims O(batch) rounds, each at <= 2
#: params per column: id -> (build, labels in {0, 1}, backend)
FLAT_IN_M = {
    "lr": (column_driver(LogisticRegression), False, "sim"),
    "fm": (column_driver(lambda: FactorizationMachine(n_factors=1)), False, "sim"),
    "mlr": (column_driver(lambda: MultinomialLogisticRegression(2)), True, "sim"),
    "mlp": (column_driver(lambda: ColumnMLP([1])), False, "sim"),
    "lr-local": (column_driver(LogisticRegression, backend="local"), False, "local"),
    "mlp-local": (column_driver(lambda: ColumnMLP([1]), backend="local"), False, "local"),
}


@contextmanager
def loaded(name: str, n_features: int):
    """One trainer of ``FLAT_IN_M`` loaded at width m, with its worker
    processes started when it runs on ``local``."""
    build, zero_one_labels, backend = FLAT_IN_M[name]
    trainer = build()
    trainer.load(flat_in_m_dataset(n_features, zero_one_labels))
    if backend != "local":
        yield trainer
        return
    runtime, programs = trainer._make_local_runtime()
    runtime.start(programs)
    try:
        trainer.local_runtime = runtime
        yield trainer
    finally:
        runtime.close()


def counted_round(trainer):
    """Op counters of round 1, after round 0 sized the per-process
    column scratch (they count this process only: zeros on ``local``)."""
    trainer.run_round(0)
    OP_COUNTERS.reset()
    OP_COUNTERS.enable()
    try:
        trainer.run_round(1)
    finally:
        OP_COUNTERS.disable()
    return OP_COUNTERS.snapshot()


def round_p05(trainers, rounds: int = GATE_ROUNDS, first: int = 2):
    """p05 ``run_round`` wall seconds of each trainer, interleaved round
    by round so that every width sees the same load on the box."""
    seconds = [[] for _ in trainers]
    for t in range(first, first + rounds):
        for trainer, times in zip(trainers, seconds):
            start = perf_counter()
            trainer.run_round(t)
            times.append(perf_counter() - start)
    return [float(np.percentile(times, 5)) for times in seconds]


def flat_in_m_readings(name: str):
    """``(counters, p05 seconds)`` of one trainer, each as
    ``(narrow, wide)``."""
    with loaded(name, NARROW) as narrow, loaded(name, WIDE) as wide:
        counts = [counted_round(trainer) for trainer in (narrow, wide)]
        seconds = round_p05([narrow, wide])
    return counts, seconds


@pytest.mark.parametrize("name", list(FLAT_IN_M))
def test_round_work_is_flat_in_m(name):
    (narrow, wide), (narrow_s, wide_s) = flat_in_m_readings(name)
    if FLAT_IN_M[name][2] == "sim":
        assert narrow["flops"] > 0
        assert wide["flops"] == narrow["flops"]
        assert wide["alloc_elements"] == narrow["alloc_elements"]
        assert wide["peak_alloc_elements"] == narrow["peak_alloc_elements"]
        assert wide["densify_events"] == narrow["densify_events"] == 0
        # nothing partition-sized (m / K = 25,000 columns at the narrow end)
        assert narrow["peak_alloc_elements"] < 25_000
    assert wide_s <= WIDTH_RATIO_BOUND * narrow_s, (
        "round p05 {:.3f} ms at m = 1e7 vs {:.3f} ms at m = 1e5".format(
            wide_s * 1e3, narrow_s * 1e3)
    )


def test_flat_in_m_gate_fires_on_a_partition_sized_allocation(monkeypatch):
    """A slip the op counters cannot see — one ``np.zeros(params.shape)``
    per partition per round — fails the wall-clock half."""
    update_model = ColumnWorker.update_model

    def seeded(self, coefficients, only_partitions=None):
        for partition in self.partitions.values():
            np.zeros(partition.params.shape)
        return update_model(self, coefficients, only_partitions)

    monkeypatch.setattr(ColumnWorker, "update_model", seeded)
    _, (narrow_s, wide_s) = flat_in_m_readings("lr")
    assert wide_s > WIDTH_RATIO_BOUND * narrow_s


# ----------------------------------------------------------------------
# (d) full-dataset statistics stay within the row-block bound
# ----------------------------------------------------------------------
def test_wide_statistics_are_computed_in_bounded_row_blocks():
    rng = np.random.default_rng(5)
    n_rows, per_row, n_cols, n_factors = 20_000, 100, 50_000, 16
    indices = np.sort(rng.integers(0, n_cols, size=(n_rows, per_row)), axis=1).ravel()
    features = CSRMatrix(
        np.arange(0, n_rows * per_row + 1, per_row), indices,
        np.ones(indices.size), n_cols,
    )
    model = FactorizationMachine(n_factors)
    params = model.init_params(n_cols, seed=1)
    labels = np.where(rng.random(n_rows) < 0.5, 1.0, -1.0)
    width = 1 + n_factors
    OP_COUNTERS.reset()
    OP_COUNTERS.enable()
    try:
        loss = model.loss(features, labels, params)
    finally:
        OP_COUNTERS.disable()
    assert np.isfinite(loss)
    assert features.nnz * width > 30 * BLOCK_ELEMENTS  # unblocked: 34M temporaries
    bound = max(n_rows * width, BLOCK_ELEMENTS + per_row * width)
    assert OP_COUNTERS.peak_alloc_elements <= bound
    assert features._touched is None  # and no compaction was cached on the dataset
