"""The numpy identities the per-step code relies on to give the bytes of the
longer calls it replaced: a 1-D norm is ``math.sqrt(v.dot(v))``, a mean is
the sum over the count, and a boolean count is ``np.count_nonzero``. A
quasi-Newton training run must make no ``np.linalg.norm`` call."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awwsvm.data import synth_two_gaussians
from awwsvm.trainer import Optimizer, TrainConfig, train

@st.composite
def mixed_vectors(draw):
    """A float64 vector of 1-10,000 entries with random signs, each drawn
    with drawn weights from four classes: 0 ordinary values over 16 decades,
    1 zero, 2 subnormal, 3 values whose square overflows."""
    n = draw(st.integers(1, 10_000))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=4, max_size=4)), float) + 1e-3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = rng.choice(4, size=n, p=weights / weights.sum())
    v = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    v[cls == 1] = 0.0
    sub = cls == 2
    v[sub] = rng.integers(1, 2**52, size=int(sub.sum())) * 5e-324
    huge = cls == 3
    v[huge] = rng.uniform(1e154, 1e308, size=int(huge.sum()))
    return v * rng.choice([-1.0, 1.0], size=n)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def same_result_and_warnings(f, g, v) -> bool:
    """f(v) and g(v) give the same bits and warn with the same messages (an
    overflowing square warns "overflow encountered in dot" either way)."""
    results, messages = [], []
    for fn in (f, g):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append(fn(v))
        messages.append([str(w.message) for w in caught])
    return same_bits(*results) and messages[0] == messages[1]


def norm_by_dot(v):
    return math.sqrt(v.dot(v))


class TestIdentities:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mixed_vectors())
    def test_norm_is_sqrt_of_self_dot(self, v):
        assert same_result_and_warnings(norm_by_dot, np.linalg.norm, v)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_norm_is_sqrt_of_self_dot_on_any_finite_floats(self, values):
        assert same_result_and_warnings(norm_by_dot, np.linalg.norm, np.array(values))

    def test_norm_overflow_is_inf(self):
        v = np.array([1e200, -3.0])
        with np.errstate(over="ignore"):
            assert norm_by_dot(v) == np.linalg.norm(v) == math.inf

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mixed_vectors())
    def test_mean_is_sum_over_count(self, v):
        assert same_result_and_warnings(lambda a: a.sum() / len(a), np.mean, v)
        assert same_result_and_warnings(lambda a: np.add.reduce(a) / len(a), np.mean, v)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_count_nonzero_is_sum_of_booleans(self, n, p, seed):
        m = np.random.default_rng(seed).random(n) < p
        assert np.count_nonzero(m) == np.sum(m)
        assert np.count_nonzero(~m) == np.sum(~m)


@pytest.mark.parametrize("optimizer", [Optimizer.OBFGS, Optimizer.ONAQ])
def test_quasi_newton_training_calls_no_linalg_norm(monkeypatch, optimizer):
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    ds = synth_two_gaussians(60, 20, separation=3.0, flip_fraction=0.05, seed=2)
    _, rounds = train(ds, ds, TrainConfig(optimizer=optimizer, adaptive=True, outer_iters=3,
                                          inner_iters=10, batch_size=8, alpha0=0.1, seed=4))
    assert len(rounds) == 3
    assert calls == []
