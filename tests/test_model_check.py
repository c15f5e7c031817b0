"""Tests for the public model-verification helpers."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.linalg import accumulate_rows, row_dots
from repro.core import UserDefinedModel
from repro.models import LogisticRegression
from repro.models.check import ModelCheckError, check_decomposition, check_gradients
from repro.models.ffm import FieldAwareFM


@pytest.fixture
def data():
    return make_classification(40, 18, nnz_per_row=5, binary_features=False, seed=60)


class TestCheckGradients:
    def test_correct_model_passes(self, data):
        check_gradients(LogisticRegression(), data)

    def test_ffm_with_skip_columns(self, data):
        rng = np.random.default_rng(0)
        model = FieldAwareFM(rng.integers(0, 2, size=18), n_factors=2)
        check_gradients(model, data, skip_columns=(0,))

    def test_buggy_gradient_caught(self, data):
        buggy = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            compute_stat=lambda batch, params: row_dots(batch, params),
            # off by a factor of 2
            compute_gradient=lambda b, y, s, p: 2.0
            * accumulate_rows(b, -y / (1 + np.exp(y * s[:, 0]))).to_dense()
            / max(len(y), 1),
            loss=lambda s, y: float(np.mean(np.log1p(np.exp(-y * s[:, 0])))),
        )
        with pytest.raises(ModelCheckError, match="gradient check failed"):
            check_gradients(buggy, data)

    def test_sign_flip_caught(self, data):
        buggy = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            compute_stat=lambda batch, params: row_dots(batch, params),
            compute_gradient=lambda b, y, s, p: -accumulate_rows(
                b, -y / (1 + np.exp(y * s[:, 0]))
            ).to_dense() / max(len(y), 1),
            loss=lambda s, y: float(np.mean(np.log1p(np.exp(-y * s[:, 0])))),
        )
        with pytest.raises(ModelCheckError):
            check_gradients(buggy, data)

    def test_coordinate_sampling_cap(self, data):
        # should not take minutes even with a cap smaller than params
        check_gradients(LogisticRegression(), data, max_coordinates=5)


class TestCheckDecomposition:
    def test_correct_model_passes(self, data):
        check_decomposition(LogisticRegression(), data)

    def test_all_schemes(self, data):
        for scheme in ("round_robin", "range", "hash"):
            check_decomposition(LogisticRegression(), data, scheme=scheme)

    def test_non_additive_statistics_caught(self, data):
        broken = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            # squaring the dots breaks additivity across shards
            compute_stat=lambda batch, params: row_dots(batch, params) ** 2 + 1.0,
            compute_gradient=lambda b, y, s, p: np.zeros_like(p),
            loss=lambda s, y: 0.0,
        )
        with pytest.raises(ModelCheckError, match="not additive"):
            check_decomposition(broken, data)

    def test_nonlocal_gradient_caught(self, data):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=1000)

        def bad_gradient(batch, labels, stats, params):
            # depends on the *local dimension*, so partitions disagree
            return np.full_like(params, float(params.size)) * 1e-3 + noise[: params.size] * 0

        broken = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            compute_stat=lambda batch, params: row_dots(batch, params),
            compute_gradient=bad_gradient,
            loss=lambda s, y: 0.0,
        )
        with pytest.raises(ModelCheckError, match="partition"):
            check_decomposition(broken, data)
