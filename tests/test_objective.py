from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from awwsvm.data import RowBatch
from awwsvm.objective import WeightMode, loss, subgradient
from awwsvm.trainer import TrainConfig

REG = TrainConfig(C=1.0, weight_mode=WeightMode.REGULARIZER)
HIN = TrainConfig(C=1.0, weight_mode=WeightMode.HINGE)


def finite_difference(w, X, y, alpha, cfg, h=1e-5):
    g = np.zeros_like(w)
    for j in range(len(w)):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (loss(w + e, X @ (w + e), y, alpha, cfg)
                - loss(w - e, X @ (w - e), y, alpha, cfg)) / (2 * h)
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
        w = np.zeros(2)
        assert loss(w, X @ w, y, alpha, REG) == pytest.approx(1.0)
        assert loss(w, X @ w, y, alpha, HIN) == pytest.approx(alpha.mean())
        assert loss(w, X @ w, y, np.ones(2), HIN) == pytest.approx(1.0)

    def test_hand_value_regularizer(self):
        X = np.array([[2.0, 0.0]])
        y = np.array([1.0])
        alpha = np.array([1.0])
        w = np.array([1.0, 0.0])
        assert loss(w, X @ w, y, alpha, REG) == pytest.approx(0.5)

    def test_modes_agree_at_unit_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            w, X, y, _ = random_fixture(rng)
            alpha = np.ones(len(y))
            assert loss(w, X @ w, y, alpha, REG) == pytest.approx(loss(w, X @ w, y, alpha, HIN))

    def test_modes_agree_bitwise_at_unit_weights(self):
        # sum(ones) / k is exactly 1.0, and 1.0 * C == C
        rng = np.random.default_rng(8)
        for _ in range(50):
            w, X, y, _ = random_fixture(rng, n=int(rng.integers(1, 70)))
            alpha = np.ones(len(y))
            C = float(rng.uniform(1e-3, 1e3))
            reg, hin = replace(REG, C=C), replace(HIN, C=C)
            assert np.float64(loss(w, X @ w, y, alpha, reg)).tobytes() == \
                np.float64(loss(w, X @ w, y, alpha, hin)).tobytes()
            assert subgradient(w, X, y, alpha, reg).tobytes() == \
                subgradient(w, X, y, alpha, hin).tobytes()

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w, X, y, alpha = random_fixture(rng)
            for cfg in (REG, HIN):
                assert loss(w, X @ w, y, alpha, cfg) >= 0.0

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(C=0.0)


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


def _kind(name, X, rng):
    """(X as ``name``, its CSR reference rows)."""
    if name == "csr":
        return X, X
    if name == "dense":
        return X.toarray(), X
    idx = rng.integers(0, X.shape[0], size=int(rng.integers(1, 2 * X.shape[0] + 1)))
    return RowBatch.gather(X, idx), X[idx]


class TestInputContract:
    """Every X the library passes gives the objective the bytes of its CSR
    rows, and ``X @ w`` (and ``X.T @ v``) is a fresh 1-D float64 array. The
    features are small integers and w and the weights lie on a 1/16 grid, so
    every sum is exact and the dense BLAS product, which adds in another
    order, must match too."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["csr", "dense", "row_batch"]),
           st.integers(1, 12), st.integers(1, 20), st.integers(0, 2**32 - 1),
           st.sampled_from(list(WeightMode)), st.sampled_from([0.5, 1.0, 3.0]))
    def test_kind_matches_csr_bytes(self, kind, n, d, seed, mode, C):
        rng = np.random.default_rng(seed)
        dense = rng.integers(-4, 5, size=(n, d)).astype(float)
        dense[rng.random((n, d)) < 0.5] = 0.0
        X, ref = _kind(kind, sparse.csr_matrix(dense), rng)
        k = ref.shape[0]
        y = rng.choice([-1.0, 1.0], size=k)
        alpha = rng.integers(0, 17, size=k) / 16
        w = rng.integers(-8, 9, size=d) / 16
        cfg = TrainConfig(C=C, weight_mode=mode)
        products = [X @ w, X.T @ y]
        got, want = subgradient(w, X, y, alpha, cfg), subgradient(w, ref, y, alpha, cfg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for out in products:
            assert type(out) is np.ndarray and out.ndim == 1 and out.dtype == np.float64
            assert out.base is None  # subgradient divides X.T @ v in place
        assert products[0].tobytes() == (ref @ w).tobytes()
        assert np.float64(loss(w, products[0], y, alpha, cfg)).tobytes() == \
            np.float64(loss(w, ref @ w, y, alpha, cfg)).tobytes()
