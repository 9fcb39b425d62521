import numpy as np
import pytest

from awwsvm.objective import ObjectiveConfig, WeightMode, loss, subgradient

REG = ObjectiveConfig(C=1.0, weight_mode=WeightMode.REGULARIZER)
HIN = ObjectiveConfig(C=1.0, weight_mode=WeightMode.HINGE)


def finite_difference(w, X, y, alpha, cfg, h=1e-5):
    g = np.zeros_like(w)
    for j in range(len(w)):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (loss(w + e, X, y, alpha, cfg) - loss(w - e, X, y, alpha, cfg)) / (2 * h)
    return g


def random_fixture(rng, n=6, d=4, margin_gap=1e-3):
    """Batch whose margins stay clear of the hinge kink at 1."""
    while True:
        X = rng.uniform(-2.0, 2.0, size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        w = rng.normal(size=d)
        alpha = rng.uniform(0.0, 1.0, size=n)
        margins = y * (X @ w)
        if np.all(np.abs(margins - 1.0) > margin_gap):
            return w, X, y, alpha


class TestLoss:
    def test_zero_weight_vector_gives_mean_hinge_one(self):
        # every hinge term is exactly 1 at w = 0 and the norm term vanishes
        X = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([1.0, -1.0])
        alpha = np.array([0.3, 0.9])
        assert loss(np.zeros(2), X, y, alpha, REG) == pytest.approx(1.0)
        assert loss(np.zeros(2), X, y, alpha, HIN) == pytest.approx(alpha.mean())
        assert loss(np.zeros(2), X, y, np.ones(2), HIN) == pytest.approx(1.0)

    def test_hand_value_regularizer(self):
        X = np.array([[2.0, 0.0]])
        y = np.array([1.0])
        alpha = np.array([1.0])
        w = np.array([1.0, 0.0])
        assert loss(w, X, y, alpha, REG) == pytest.approx(0.5)

    def test_modes_agree_at_unit_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            w, X, y, _ = random_fixture(rng)
            alpha = np.ones(len(y))
            assert loss(w, X, y, alpha, REG) == pytest.approx(loss(w, X, y, alpha, HIN))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w, X, y, alpha = random_fixture(rng)
            for cfg in (REG, HIN):
                assert loss(w, X, y, alpha, cfg) >= 0.0

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(C=0.0)


class TestSubgradient:
    def test_inactive_hinge_regularizer(self):
        # all margins > 1: only the weighted norm term remains
        X = np.array([[2.0, 0.0], [0.0, 2.0]])
        y = np.array([1.0, 1.0])
        w = np.array([2.0, 2.0])
        alpha = np.array([0.5, 0.1])
        g = subgradient(w, X, y, alpha, REG)
        np.testing.assert_allclose(g, alpha.mean() * 1.0 * w)

    def test_active_hinge_at_origin(self):
        X = np.array([[1.0, 2.0]])
        y = np.array([1.0])
        g = subgradient(np.zeros(2), X, y, np.array([0.7]), REG)
        np.testing.assert_allclose(g, [-1.0, -2.0])

    def test_kink_contributes_nothing(self):
        # margin exactly 1: hinge term dropped by convention
        X = np.array([[1.0, 0.0]])
        y = np.array([1.0])
        w = np.array([1.0, 0.0])
        g = subgradient(w, X, y, np.array([1.0]), HIN)
        np.testing.assert_allclose(g, 1.0 * w)

    @pytest.mark.parametrize("cfg", [REG, HIN], ids=["regularizer", "hinge"])
    def test_matches_finite_differences(self, cfg):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w, X, y, alpha = random_fixture(rng)
            g = subgradient(w, X, y, alpha, cfg)
            g_fd = finite_difference(w, X, y, alpha, cfg)
            err = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g), 1e-12)
            assert err < 1e-6

    def test_hinge_mode_weights_scale_pull(self):
        X = np.array([[1.0, 1.0]])
        y = np.array([1.0])
        g_full = subgradient(np.zeros(2), X, y, np.array([1.0]), HIN)
        g_half = subgradient(np.zeros(2), X, y, np.array([0.5]), HIN)
        np.testing.assert_allclose(g_half, 0.5 * g_full)
