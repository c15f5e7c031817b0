"""Unit tests for optimizers."""

import numpy as np
import pytest

from repro.optim import SGD, AdaGrad, Adam, make_optimizer, OPTIMIZER_REGISTRY


def quadratic_descends(optimizer, steps=200):
    """Minimise ||w||^2 / 2; gradient is w itself."""
    w = np.array([5.0, -3.0, 2.0])
    start = float(np.dot(w, w))
    for t in range(steps):
        optimizer.step(w, w.copy())
    return float(np.dot(w, w)) < start * 0.01


class TestSGD:
    def test_plain_update(self):
        opt = SGD(0.1)
        w = np.array([1.0, 2.0])
        opt.step(w, np.array([1.0, -1.0]))
        assert np.allclose(w, [0.9, 2.1])

    def test_updates_in_place(self):
        opt = SGD(0.1)
        w = np.zeros(2)
        out = opt.step(w, np.ones(2))
        assert out is w

    def test_converges_on_quadratic(self):
        assert quadratic_descends(SGD(0.1))

    def test_spawn_is_fresh(self):
        opt = SGD(0.1)
        opt.step(np.zeros(1), np.ones(1))
        clone = opt.spawn()
        assert clone is not opt and clone.learning_rate == 0.1
        # SGD is stateless: nothing for a checkpoint to carry
        assert opt.state_arrays() == [] and clone.state_arrays() == []

    def test_shape_check(self):
        with pytest.raises(ValueError):
            SGD(0.1).step(np.zeros(2), np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(0.0)


class TestAdaGrad:
    def test_converges_on_quadratic(self):
        assert quadratic_descends(AdaGrad(1.0))

    def test_per_coordinate_adaptivity(self):
        opt = AdaGrad(1.0)
        w = np.zeros(2)
        opt.step(w, np.array([10.0, 0.1]))
        # both coordinates move ~learning_rate on the first step
        assert abs(w[0]) == pytest.approx(abs(w[1]), rel=1e-4)

    def test_reset(self):
        opt = AdaGrad(1.0)
        opt.step(np.zeros(1), np.ones(1))
        opt.reset()
        assert opt._accumulator is None


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_descends(Adam(0.3))

    def test_first_step_size_is_learning_rate(self):
        opt = Adam(0.1)
        w = np.zeros(1)
        opt.step(w, np.array([42.0]))
        assert abs(w[0]) == pytest.approx(0.1, rel=1e-4)

    def test_spawn_preserves_hypers(self):
        opt = Adam(0.1)
        opt.step(np.zeros(1), np.ones(1))
        clone = opt.spawn()
        assert clone.learning_rate == 0.1
        assert clone._t == 0 and clone.state_arrays() == []

    def test_reset(self):
        opt = Adam(0.1)
        opt.step(np.zeros(1), np.ones(1))
        opt.reset()
        assert opt._t == 0 and opt._m is None


class TestPartitionedEquivalence:
    """Coordinate-wise optimizers updated per partition match the full
    update — the property that lets each worker run its own instance."""

    @pytest.mark.parametrize("factory", [
        lambda: SGD(0.1),
        lambda: AdaGrad(0.5),
        lambda: Adam(0.2),
    ])
    def test_partitioned_matches_full(self, factory, rng):
        full_opt = factory()
        part_opts = [factory(), factory()]
        w_full = rng.normal(size=10)
        w_parts = [w_full[0::2].copy(), w_full[1::2].copy()]
        for _ in range(20):
            g = rng.normal(size=10)
            full_opt.step(w_full, g)
            part_opts[0].step(w_parts[0], g[0::2])
            part_opts[1].step(w_parts[1], g[1::2])
        assert np.allclose(w_full[0::2], w_parts[0], atol=1e-12)
        assert np.allclose(w_full[1::2], w_parts[1], atol=1e-12)


class TestRegistry:
    def test_all_constructible(self):
        for name in OPTIMIZER_REGISTRY:
            assert make_optimizer(name, 0.1).learning_rate == 0.1

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_optimizer("lbfgs", 0.1)
