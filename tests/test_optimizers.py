import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy import sparse

from awwsvm import optimizers
from awwsvm.data import Dataset
from awwsvm.objective import ObjectiveConfig, WeightMode
from awwsvm.optimizers import (CURVATURE_FLOOR, MAX_DENSE_H_BYTES, QuasiNewtonState,
                               ScheduleKind, StepSchedule, bfgs_inverse_update, obfgs_step,
                               onaq_step, sgd_step)
from awwsvm.trainer import Optimizer, TrainConfig, train

REG = ObjectiveConfig(C=1.0, weight_mode=WeightMode.REGULARIZER)


class TestSchedules:
    def test_tau_decay_values(self):
        s = StepSchedule(ScheduleKind.TAU_DECAY, alpha0=1.0, tau=10.0)
        assert s.rate(1) == pytest.approx(10.0 / 11.0)
        assert s.rate(10) == pytest.approx(0.5)

    def test_sqrt_decay_values(self):
        s = StepSchedule(ScheduleKind.SQRT_DECAY, alpha0=1.0)
        assert s.rate(1) == 1.0
        assert s.rate(4) == 0.5

    def test_constant(self):
        s = StepSchedule(ScheduleKind.CONSTANT, alpha0=0.3)
        assert s.rate(1) == s.rate(100) == 0.3

    def test_positive_and_nonincreasing(self):
        rng = np.random.default_rng(1)
        for kind in (ScheduleKind.TAU_DECAY, ScheduleKind.SQRT_DECAY):
            for _ in range(20):
                s = StepSchedule(kind, alpha0=float(rng.uniform(0.01, 5.0)),
                                 tau=float(rng.uniform(0.5, 50.0)))
                rates = [s.rate(k) for k in range(1, 40)]
                assert all(r > 0 for r in rates)
                assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_step_counter_must_start_at_one(self):
        with pytest.raises(ValueError):
            StepSchedule(ScheduleKind.CONSTANT).rate(0)

    def test_negative_alpha0_rejected(self):
        with pytest.raises(ValueError):
            StepSchedule(ScheduleKind.CONSTANT, alpha0=-0.1)


class TestSgdStep:
    def test_hand_step_from_origin(self):
        # augmented sample (1, 0, bias 1), violating margin at w = 0
        X = np.array([[1.0, 0.0, 1.0]])
        y = np.array([1.0])
        alpha = np.array([1.0])
        sched = StepSchedule(ScheduleKind.CONSTANT, alpha0=0.1)
        w = sgd_step(np.zeros(3), X, y, alpha, REG, sched, k=1)
        np.testing.assert_allclose(w, [0.1, 0.0, 0.1])

    def test_zero_gradient_is_fixed_point(self):
        # margins above 1 and zero weights: gradient vanishes
        X = np.array([[3.0, 0.0]])
        y = np.array([1.0])
        alpha = np.array([0.0])
        w0 = np.array([1.0, 0.0])
        sched = StepSchedule(ScheduleKind.CONSTANT, alpha0=0.5)
        np.testing.assert_array_equal(sgd_step(w0, X, y, alpha, REG, sched, 1), w0)

    def test_zero_learning_rate_keeps_w(self):
        X = np.array([[1.0, 2.0]])
        y = np.array([1.0])
        alpha = np.array([1.0])
        sched = StepSchedule(ScheduleKind.CONSTANT, alpha0=0.0)
        w0 = np.array([0.3, -0.4])
        w1 = sgd_step(w0, X, y, alpha, REG, sched, 1)
        w2 = sgd_step(w1, X, y, alpha, REG, sched, 2)
        np.testing.assert_array_equal(w2, w0)


class TestBfgsInverseUpdate:
    def test_identity_fixed_point(self):
        H = np.eye(2)
        s = np.array([1.0, 0.0])
        out = bfgs_inverse_update(H, s, s)
        np.testing.assert_allclose(out, np.eye(2), atol=1e-15)

    def test_secant_condition(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            A = rng.normal(size=(d, d))
            H = A @ A.T + 0.5 * np.eye(d)
            s = rng.normal(size=d)
            y = rng.normal(size=d)
            if y @ s <= 0.1:
                continue
            H2 = bfgs_inverse_update(H, s, y)
            err = np.linalg.norm(H2 @ y - s) / np.linalg.norm(s)
            assert err < 1e-10

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(22)
        H = np.eye(5)
        for _ in range(200):
            s = rng.normal(size=5)
            y = s + 0.1 * rng.normal(size=5)
            if y @ s <= 0.1:
                continue
            H = bfgs_inverse_update(H, s, y)
            assert np.abs(H - H.T).max() < 1e-10

    def test_curvature_violation_raises(self):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            bfgs_inverse_update(H, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(H, [[2.0, 0.5], [0.5, 1.0]])

    def test_pair_at_cosine_1e_6_raises(self):
        # an admitted pair at this cosine left H unfactorable in about half of
        # the cases, so the floor refuses it
        H = np.eye(2)
        with pytest.raises(ValueError, match="curvature"):
            bfgs_inverse_update(H, np.array([1.0, 0.0]), np.array([1e-6, 1.0]))
        np.testing.assert_array_equal(H, np.eye(2))
        bfgs_inverse_update(H, np.array([1.0, 0.0]), np.array([1e-3, 1.0]))
        np.linalg.cholesky(H)

    def test_overwrites_and_returns_h(self):
        H = np.eye(3)
        out = bfgs_inverse_update(H, np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        assert out is H
        assert not np.array_equal(H, np.eye(3))

    # up to d = 128 the whole matrix is one block, d = 129 takes two; 8 rows
    # per block at d = 2001, so its last block is one row
    @pytest.mark.parametrize("d", [1, 2, 3, 128, 129, 2001])
    @pytest.mark.parametrize("start", ["eps_identity", "random_spd"])
    def test_bitwise_equal_to_outer_product_form(self, d, start):
        rng = np.random.default_rng(d)
        if start == "eps_identity":
            H = QuasiNewtonState.initial(d, eps_h=0.3).H
            np.testing.assert_array_equal(_bits(H), _bits(0.3 * np.eye(d)))
        else:
            B = rng.normal(size=(d, 4))
            H = B @ B.T / 4 + np.diag(rng.uniform(0.5, 2.0, size=d))
        ref = H.copy()
        for _ in range(3):
            s = rng.normal(size=d)
            y = 0.7 * s + 0.2 * rng.normal(size=d)
            if y @ s <= 0.0:
                continue
            ref = _outer_product_update(ref, s, y)
            H = bfgs_inverse_update(H, s, y)
            np.testing.assert_array_equal(_bits(H), _bits(ref))

    @pytest.mark.parametrize("d", [1024, 2001])
    def test_allocates_no_dense_temporary(self, d):
        rng = np.random.default_rng(5)
        H = np.eye(d)
        s = rng.normal(size=d)
        y = s + 0.1 * rng.normal(size=d)
        tracemalloc.start()
        try:
            bfgs_inverse_update(H, s, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 // 8

    # The update is positive definite for every y.s > 0 in exact arithmetic.
    # In float64 a pair whose cosine is near the floor leaves H too
    # ill-conditioned to factor (Cholesky failed below cosines of about
    # 1e-5), so factorization is asserted for cosines of at least 1e-3.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(
        st.floats(1e-2, 1e2),
        st.lists(st.tuples(*[st.lists(st.integers(-1000, 1000), min_size=d, max_size=d)] * 2),
                 min_size=1, max_size=5))))
    def test_update_keeps_h_symmetric_and_factorable(self, case):
        eps_h, pairs = case
        H = QuasiNewtonState.initial(len(pairs[0][0]), eps_h=eps_h).H
        factorable = True
        for s, y in pairs:
            s, y = np.array(s) / 100.0, np.array(y) / 100.0
            cos = float(y @ s) / (np.linalg.norm(s) * np.linalg.norm(y) or 1.0)
            if cos <= CURVATURE_FLOOR:
                continue
            H = bfgs_inverse_update(H, s, y)
            factorable &= cos >= 1e-3
            assert np.array_equal(H, H.T)
            if factorable:
                np.linalg.cholesky(H)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _outer_product_update(H, s, y):
    """Reference: the update as three full outer products, whose rounding the
    blocked in-place update must reproduce bit for bit."""
    rho = 1.0 / float(y @ s)
    u = H @ y
    cross = np.outer(s, u) + np.outer(u, s)
    return H - rho * cross + (rho * rho * float(y @ u) + rho) * np.outer(s, s)


@pytest.mark.parametrize("opt", [Optimizer.OBFGS, Optimizer.ONAQ], ids=lambda o: o.value)
def test_training_bytes_match_outer_product_form(monkeypatch, opt):
    # d_aug = 300 gives six row blocks per update; both runs share this
    # process, so H @ y runs on the same number of BLAS threads
    rng = np.random.default_rng(300)
    X = sparse.random(240, 299, density=0.05, format="csr", random_state=rng)
    y = np.where(X @ rng.normal(size=299) + 0.1 * rng.normal(size=240) >= 0, 1, -1)
    train_ds, eval_ds = Dataset(X[:160], y[:160]), Dataset(X[160:], y[160:])
    cfg = TrainConfig(optimizer=opt, adaptive=True, outer_iters=3, inner_iters=4,
                      batch_size=16, seed=5)
    model, rounds = train(train_ds, eval_ds, cfg)
    calls = []

    def reference(H, s, y):
        calls.append(len(s))
        return _outer_product_update(H, s, y)

    monkeypatch.setattr(optimizers, "bfgs_inverse_update", reference)
    ref_model, ref_rounds = train(train_ds, eval_ds, cfg)
    assert calls and set(calls) == {300}
    np.testing.assert_array_equal(_bits(np.append(model.w, model.b)),
                                  _bits(np.append(ref_model.w, ref_model.b)))
    assert [_row_bits(r) for r in rounds] == [_row_bits(r) for r in ref_rounds]


def _row_bits(row):
    return {k: np.float64(v).tobytes() for k, v in row.items()}


def test_dense_h_above_bound_refused_before_allocating():
    assert 16_384 * 16_384 * 8 == MAX_DENSE_H_BYTES  # the largest H allowed
    with pytest.raises(MemoryError, match="16385 x 16385 .* 2.00 GiB, above the 2 GiB bound"):
        QuasiNewtonState.initial(16_385)


def _single_sample_batch(x, label=1.0):
    X = np.array([x], dtype=np.float64)
    return X, np.array([label]), np.array([1.0])


class TestObfgsStep:
    def test_first_step_is_normalized_negative_gradient(self):
        # w = 0 so the hinge is active: grad = -(y x) = (0.6, 0.8), unit norm
        X, y, alpha = _single_sample_batch([0.6, 0.8])
        state = QuasiNewtonState.initial(2)
        sched = StepSchedule(ScheduleKind.TAU_DECAY, alpha0=1.0, tau=10.0)
        w = obfgs_step(np.zeros(2), state, X, y, alpha, REG, sched)
        np.testing.assert_allclose(w, (10.0 / 11.0) * np.array([0.6, 0.8]), rtol=1e-12)
        assert state.k == 2
        np.testing.assert_allclose(np.linalg.norm(state.v), 10.0 / 11.0, rtol=1e-12)

    def test_damping_keeps_curvature_acceptable(self):
        # margins far above 1 throughout: gradients are pure weighted-norm terms
        X, y, alpha = _single_sample_batch([50.0, 0.0])
        state = QuasiNewtonState.initial(2, damping=0.2)
        sched = StepSchedule(ScheduleKind.TAU_DECAY)
        w = np.array([1.0, 1.0])
        for _ in range(5):
            w_new = obfgs_step(w, state, X, y, alpha, REG, sched)
            s = w_new - w
            assert np.abs(state.H - state.H.T).max() < 1e-10
            np.linalg.cholesky(state.H)
            w = w_new

    def test_curvature_guard_skips_h_update(self):
        # alpha = 0 and margins > 1 throughout: both gradients are zero, so the
        # direction is zero and the step is skipped entirely
        X = np.array([[5.0, 0.0]])
        y = np.array([1.0])
        alpha = np.array([0.0])
        state = QuasiNewtonState.initial(2, damping=0.0)
        sched = StepSchedule(ScheduleKind.TAU_DECAY)
        w0 = np.array([1.0, 0.0])
        w1 = obfgs_step(w0, state, X, y, alpha, REG, sched)
        np.testing.assert_array_equal(w1, w0)
        np.testing.assert_array_equal(state.H, np.eye(2))
        assert state.k == 2

    def test_pair_below_floor_keeps_h_but_steps(self, monkeypatch):
        # g1 = (1, 0) gives s = -(10/11, 0); g2 - g1 = (-1e-6, 1) is at cosine
        # 1e-6 to s, below the floor, so H stays while w, v and k move on
        grads = iter([np.array([1.0, 0.0]), np.array([1.0 - 1e-6, 1.0])])
        monkeypatch.setattr(optimizers, "subgradient", lambda *args: next(grads))
        X, y, alpha = _single_sample_batch([1.0, 0.0])
        state = QuasiNewtonState.initial(2, damping=0.0)
        sched = StepSchedule(ScheduleKind.TAU_DECAY, alpha0=1.0, tau=10.0)
        w = obfgs_step(np.zeros(2), state, X, y, alpha, REG, sched)
        np.testing.assert_array_equal(w, [-10.0 / 11.0, 0.0])
        np.testing.assert_array_equal(state.v, w)
        np.testing.assert_array_equal(state.H, np.eye(2))
        assert state.k == 2

    def test_damped_curvature_bound_on_quadratic(self):
        # hinge inactive: gradient is linear in w, (g2-g1).s >= 0, so
        # y.s >= damping * ||s||^2
        X, y, alpha = _single_sample_batch([100.0, 0.0])
        cfg = ObjectiveConfig(C=2.0, weight_mode=WeightMode.REGULARIZER)
        state = QuasiNewtonState.initial(2, damping=0.3)
        sched = StepSchedule(ScheduleKind.TAU_DECAY)
        from awwsvm.objective import subgradient
        w = np.array([0.5, 0.5])
        for _ in range(5):
            g1 = subgradient(w, X, y, alpha, cfg)
            w_new = obfgs_step(w, state, X, y, alpha, cfg, sched)
            g2 = subgradient(w_new, X, y, alpha, cfg)
            s = w_new - w
            yvec = g2 - g1 + 0.3 * s
            assert yvec @ s >= 0.3 * (s @ s) - 1e-12
            w = w_new


class TestOnaqStep:
    def test_zero_velocity_matches_obfgs_direction(self):
        X, y, alpha = _single_sample_batch([0.6, 0.8])
        sched = StepSchedule(ScheduleKind.SQRT_DECAY, alpha0=1.0)
        s1 = QuasiNewtonState.initial(2, mu=0.1)
        w_naq = onaq_step(np.zeros(2), s1, X, y, alpha, REG, sched)
        s2 = QuasiNewtonState.initial(2)
        w_bfgs = obfgs_step(np.zeros(2), s2, X, y, alpha, REG, sched)
        np.testing.assert_allclose(w_naq, w_bfgs, rtol=1e-12)

    def test_first_step_uses_full_alpha0(self):
        X, y, alpha = _single_sample_batch([1.0, 0.0])
        sched = StepSchedule(ScheduleKind.SQRT_DECAY, alpha0=0.8)
        state = QuasiNewtonState.initial(2, mu=0.5)
        w = onaq_step(np.zeros(2), state, X, y, alpha, REG, sched)
        assert np.linalg.norm(w) == pytest.approx(0.8, rel=1e-12)

    def test_velocity_accumulates_with_momentum(self):
        X, y, alpha = _single_sample_batch([1.0, 0.0])
        sched = StepSchedule(ScheduleKind.SQRT_DECAY, alpha0=0.1)
        state = QuasiNewtonState.initial(2, mu=0.4)
        w = np.zeros(2)
        w = onaq_step(w, state, X, y, alpha, REG, sched)
        v1 = state.v.copy()
        w2 = onaq_step(w, state, X, y, alpha, REG, sched)
        # v2 = mu*v1 + rate(2)*direction, and w2 = w + v2
        np.testing.assert_allclose(w2 - w, state.v)
        assert np.linalg.norm(state.v - 0.4 * v1) == pytest.approx(0.1 / np.sqrt(2), rel=1e-9)

    # QuasiNewtonState.initial trusts these; TrainConfig rejects them when it is built
    @pytest.mark.parametrize("key, value, message", [
        ("mu", 1.0, r"^mu must lie in \[0,1\), got 1.0$"),
        ("eps_h", 0.0, r"^eps_h must be positive, got 0.0$"),
        ("damping", -1.0, r"^lambda \(damping\) must be nonnegative, got -1.0$"),
    ], ids=["mu", "eps_h", "damping"])
    def test_invalid_state_setting_rejected_by_train_config(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(optimizer=Optimizer.ONAQ, **{key: value})


class TestStatePersistence:
    def test_h_stays_spd_over_a_training_stream(self):
        rng = np.random.default_rng(33)
        n, d = 40, 5
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        alpha = rng.uniform(0.1, 1.0, size=n)
        state = QuasiNewtonState.initial(d, damping=0.2)
        sched = StepSchedule(ScheduleKind.TAU_DECAY)
        w = np.zeros(d)
        for _ in range(60):
            idx = rng.choice(n, size=8, replace=False)
            w = obfgs_step(w, state, X[idx], y[idx], alpha[idx], REG, sched)
            assert np.abs(state.H - state.H.T).max() < 1e-10
            np.linalg.cholesky(state.H)
