"""Property-based tests on losses and metrics (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import accuracy, log_loss, roc_auc
from repro.models import HingeLoss, HuberLoss, LogisticLoss, SquaredHingeLoss, SquaredLoss
from repro.models.losses import HUBER_DELTA, _sigmoid

FINITE = st.floats(-50, 50, allow_nan=False)


@st.composite
def scored_batches(draw, regression=False, min_size=2):
    n = draw(st.integers(min_size, 40))
    scores = np.asarray(draw(st.lists(FINITE, min_size=n, max_size=n)))
    if regression:
        labels = np.asarray(draw(st.lists(FINITE, min_size=n, max_size=n)))
    else:
        labels = np.asarray(
            draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        )
    return scores, labels


CLASSIFICATION_LOSSES = [LogisticLoss(), HingeLoss(), SquaredHingeLoss()]
REGRESSION_LOSSES = [SquaredLoss(), HuberLoss()]


class TestLossProperties:
    @given(scored_batches())
    @settings(max_examples=60)
    def test_classification_losses_nonnegative(self, batch):
        scores, labels = batch
        for loss in CLASSIFICATION_LOSSES:
            assert np.all(loss.loss(scores, labels) >= 0.0)

    @given(scored_batches(regression=True))
    @settings(max_examples=60)
    def test_regression_losses_nonnegative(self, batch):
        scores, labels = batch
        for loss in REGRESSION_LOSSES:
            assert np.all(loss.loss(scores, labels) >= 0.0)

    @given(scored_batches())
    @settings(max_examples=60)
    def test_losses_decrease_in_margin(self, batch):
        """Classification losses are non-increasing in y*s."""
        scores, labels = batch
        for loss in CLASSIFICATION_LOSSES:
            better = loss.loss(scores + labels * 0.5, labels)
            worse = loss.loss(scores, labels)
            assert np.all(better <= worse + 1e-9)

    @given(scored_batches(), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_convexity_midpoint(self, batch, w):
        """l(w a + (1-w) b) <= w l(a) + (1-w) l(b) for every loss."""
        scores, labels = batch
        other = -scores
        for loss in CLASSIFICATION_LOSSES:
            mid = loss.loss(w * scores + (1 - w) * other, labels)
            chord = w * loss.loss(scores, labels) + (1 - w) * loss.loss(other, labels)
            assert np.all(mid <= chord + 1e-8)

    @given(scored_batches())
    @settings(max_examples=60)
    def test_logistic_derivative_bounded_by_one(self, batch):
        scores, labels = batch
        assert np.all(np.abs(LogisticLoss().derivative(scores, labels)) <= 1.0)

    @given(scored_batches(regression=True))
    @settings(max_examples=60)
    def test_huber_derivative_bounded_by_delta(self, batch):
        scores, labels = batch
        loss = HuberLoss()
        assert np.all(np.abs(loss.derivative(scores, labels)) <= HUBER_DELTA + 1e-12)


def two_mask_sigmoid(x):
    """The two boolean-mask passes ``_sigmoid`` replaced: the oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 1e-300, -1e-300, np.nan, -np.nan]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=300))
    @settings(max_examples=200)
    def test_one_pass_has_the_two_mask_bits(self, values):
        x = np.asarray(values + self.EDGES, dtype=np.float64)
        want = two_mask_sigmoid(x).view(np.int64)
        assert np.array_equal(_sigmoid(x).view(np.int64), want)


class TestMetricProperties:
    @given(scored_batches(min_size=4))
    @settings(max_examples=60)
    def test_accuracy_in_unit_interval(self, batch):
        scores, labels = batch
        probs = 1.0 / (1.0 + np.exp(-scores))
        assert 0.0 <= accuracy(labels, probs) <= 1.0

    @given(scored_batches(min_size=4))
    @settings(max_examples=60)
    def test_log_loss_nonnegative(self, batch):
        scores, labels = batch
        probs = 1.0 / (1.0 + np.exp(-scores))
        assert log_loss(labels, probs) >= 0.0

    @given(scored_batches(min_size=4))
    @settings(max_examples=60)
    def test_auc_flip_symmetry(self, batch):
        """AUC(labels, s) + AUC(labels, -s) == 1 (up to tie handling)."""
        scores, labels = batch
        if len(set(labels.tolist())) < 2:
            return
        forward = roc_auc(labels, scores)
        backward = roc_auc(labels, -scores)
        # ties land at 0.5 either way, so the identity is exact
        assert forward + backward == np.float64(1.0) or abs(
            forward + backward - 1.0
        ) < 1e-9

    @given(scored_batches(min_size=4))
    @settings(max_examples=60)
    def test_auc_label_flip_complements(self, batch):
        scores, labels = batch
        if len(set(labels.tolist())) < 2:
            return
        assert abs(roc_auc(labels, scores) + roc_auc(-labels, scores) - 1.0) < 1e-9
