import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from awwsvm.data import synth_two_gaussians
from awwsvm.trainer import Optimizer, TrainConfig, stochastic_phase, train
from awwsvm.weighting import NoiseMode, aw_raw, detect_noise, init_weights, update_weights

GAUSS0 = 2.0 / math.sqrt(2.0 * math.pi)  # 0.7978845608028654

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def distances_and_mask(draw, elements=FINITE):
    """Signed distances with an aligned active mask holding one active entry
    or more."""
    d = draw(st.lists(elements, min_size=1, max_size=40))
    active = draw(st.lists(st.booleans(), min_size=len(d), max_size=len(d)))
    active[draw(st.integers(0, len(d) - 1))] = True
    return np.array(d), np.array(active)


def all_active(n):
    return np.ones(n, dtype=bool)


class TestInitWeights:
    def test_uniform_two_over_l(self):
        alpha = init_weights(4)
        np.testing.assert_allclose(alpha, 0.5)
        assert alpha.sum() == pytest.approx(2.0)

    def test_single_sample_clamped(self):
        assert init_weights(1)[0] == 1.0

    def test_large_count(self):
        np.testing.assert_allclose(init_weights(2000), 0.001)

    def test_zero_samples_is_error(self):
        with pytest.raises(ValueError):
            init_weights(0)


class TestAwRaw:
    def test_saturates_at_zero_distance(self):
        assert aw_raw(0.0, 1.0, 1.0) == pytest.approx(1.7978845608028653)
        # M - m = 1 with the minimum at 0: the clamp caps the weight at 1
        assert update_weights(np.array([0.0, 1.0]), all_active(2), 1.0)[0] == 1.0

    def test_vanishes_at_infinity(self):
        assert aw_raw(1e3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_unclamped_integral_is_two(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sigma = float(rng.uniform(0.5, 1.5))
            spread = float(rng.uniform(0.1, 100.0))
            val, err = quad(lambda d: aw_raw(d, sigma, spread), 0.0, np.inf, limit=200)
            assert val == pytest.approx(2.0, abs=1e-6)

    def test_strictly_decreasing_in_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sigma = float(rng.uniform(0.3, 3.0))
            spread = float(rng.uniform(0.05, 50.0))
            d = np.sort(rng.uniform(0.0, 20.0, size=40))
            vals = aw_raw(d, sigma, spread)
            assert np.all(np.diff(vals) < 0.0)

    def test_gaussian_term_is_zero_past_square_overflow(self):
        # d ** 2 overflows to inf; exp(-inf) = 0 leaves only the tail term
        assert aw_raw(1e200, 1.0, math.inf) == 0.0
        assert aw_raw(1e200, 1.0, 1e200) == pytest.approx(math.exp(-1.0) / 1e200)


class TestUpdateWeights:
    def test_hand_values(self):
        alpha = update_weights(np.array([0.0, 1.0, 2.0]), all_active(3), 1.0)
        assert alpha[0] == 1.0  # raw 1.2979 clamped
        assert alpha[1] == pytest.approx(0.7872067788946034)
        assert alpha[2] == pytest.approx(0.2919216536120973)

    def test_signed_input_uses_magnitude(self):
        alpha = update_weights(np.array([0.0, -1.0, -2.0]), all_active(3), 1.0)
        assert alpha[1] == pytest.approx(0.7872067788946034)

    def test_equal_distances_fall_back_to_gaussian_term(self):
        alpha = update_weights(np.full(4, 1.5), all_active(4), 1.0)
        expected = min(GAUSS0 * math.exp(-1.5 ** 2 / 2.0), 1.0)
        np.testing.assert_allclose(alpha, expected)

    def test_closer_samples_weigh_more(self):
        alpha = update_weights(np.array([0.0, 10.0]), all_active(2), 1.0)
        assert alpha[0] > alpha[1]

    def test_inactive_pinned_to_zero(self):
        active = np.array([True, False, True])
        alpha = update_weights(np.array([0.5, 0.1, 1.0]), active, 1.0)
        assert alpha[1] == 0.0

    def test_inactive_distances_do_not_set_the_spread(self):
        # the inactive 100.0 would widen M - m from 1 to 100
        active = np.array([True, True, False])
        alpha = update_weights(np.array([0.0, 1.0, 100.0]), active, 1.0)
        np.testing.assert_array_equal(
            alpha, update_weights(np.array([0.0, 1.0, 0.5]), active, 1.0))
        assert alpha[1] == pytest.approx(0.7978845608028654 * math.exp(-0.5) + math.exp(-1.0))

    def test_no_active_sample_is_error(self):
        with pytest.raises(ValueError, match="no active samples"):
            update_weights(np.zeros(2), np.zeros(2, dtype=bool), 1.0)

    def test_misaligned_distances_are_error(self):
        with pytest.raises(ValueError, match="one distance per sample"):
            update_weights(np.zeros(3), all_active(2), 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(distances_and_mask(), st.floats(1e-3, 1e3))
    def test_weights_stay_in_unit_interval(self, case, sigma):
        d, active = case
        alpha = update_weights(d, active, sigma)
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))
        assert np.all(alpha[~active] == 0.0)

    def test_sigma_whose_square_overflows_gives_the_gaussian_limit(self):
        # sigma ** 2 is inf, so the exponential reads 1; a float's ** raised OverflowError
        d = np.array([0.0, 1.0])
        np.testing.assert_array_equal(aw_raw(d, 1e300, 1.0),
                                      2.0 / (math.sqrt(2.0 * math.pi) * 1e300) + np.exp(-d))

    @pytest.mark.parametrize("d", [[1e-310, 1e-310 + 5e-324], [1e-300, 1e-300 * (1 + 2**-52)],
                                   [0.0, 2.2250738585072014e-309]])
    def test_subnormal_spread_gives_unit_interval_weights(self, d):
        # M - m is subnormal, so 1/(M-m) overflows to inf
        assert 0.0 < d[1] - d[0] < 2.3e-308
        alpha = update_weights(np.array(d), all_active(2), 1.0)
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))

    def test_max_weight_sits_at_min_distance(self):
        # value equality: several weights may tie at the clamp ceiling
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            d = rng.uniform(0.0, 5.0, size=n)
            alpha = update_weights(d, all_active(n), 1.0)
            assert alpha[np.argmin(np.abs(d))] == alpha.max()


class TestDetectNoise:
    def test_flags_lone_wrong_side_sample(self):
        d = np.array([1.0, 0.8, -0.3])
        labels = np.ones(3)
        active = np.ones(3, dtype=bool)
        flagged = detect_noise(d, labels, active)
        assert flagged.tolist() == [2]

    def test_no_flags_when_unanimous(self):
        d = np.array([1.0, 0.8, 0.3])
        flagged = detect_noise(d, np.ones(3), np.ones(3, dtype=bool))
        assert flagged.size == 0

    def test_agreeing_pair_is_safe(self):
        # two wrong-siders agree with each other: neither is flagged
        d = np.array([1.0, 1.2, -0.5, -0.7])
        flagged = detect_noise(d, np.ones(4), np.ones(4, dtype=bool))
        assert flagged.size == 0

    def test_never_flags_sample_with_an_ally(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            d = rng.normal(size=n)
            labels = rng.choice([-1.0, 1.0], size=n)
            active = rng.random(n) < 0.8
            flagged = detect_noise(d, labels, active)
            for i in flagged:
                mates = (labels == labels[i]) & active
                mates[i] = False
                assert not np.any(d[mates] * d[i] > 0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(distances_and_mask(st.one_of(st.just(0.0), st.just(-0.0), FINITE)), st.data())
    def test_flags_exactly_the_samples_without_a_same_side_classmate(self, case, data):
        d, active = case
        labels = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                             min_size=len(d), max_size=len(d))))
        flagged = detect_noise(d, labels, active).tolist()
        want = []
        for i in np.flatnonzero(active):
            mates = (labels == labels[i]) & active
            mates[i] = False
            if mates.any() and not np.any(np.sign(d[mates]) * np.sign(d[i]) > 0):
                want.append(int(i))
        assert flagged == want

    def test_zero_distance_counts_as_opposite(self):
        d = np.array([0.0, 0.5])
        flagged = detect_noise(d, np.ones(2), np.ones(2, dtype=bool))
        assert 0 in flagged.tolist()

    def test_small_class_produces_no_flags(self):
        d = np.array([-5.0, 1.0, 1.1])
        labels = np.array([1.0, -1.0, -1.0])
        flagged = detect_noise(d, labels, np.ones(3, dtype=bool))
        assert flagged.size == 0  # class +1 has a single active sample

    def test_rawdot_example(self):
        X = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, -0.5]])
        labels = np.ones(3)
        active = np.ones(3, dtype=bool)
        flagged = detect_noise(np.zeros(3), labels, active, mode=NoiseMode.RAW_DOT, X=X)
        assert flagged.tolist() == [2]

    def test_rawdot_accepts_sparse_matrix(self):
        from scipy import sparse
        X = sparse.csr_matrix(np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, -0.5]]))
        flagged = detect_noise(np.zeros(3), np.ones(3), np.ones(3, dtype=bool),
                               mode=NoiseMode.RAW_DOT, X=X)
        assert flagged.tolist() == [2]

    def test_rawdot_requires_features(self):
        with pytest.raises(ValueError):
            detect_noise(np.zeros(2), np.ones(2), np.ones(2, dtype=bool),
                         mode=NoiseMode.RAW_DOT)

    def test_mode_that_is_not_a_noise_mode_is_error(self):
        with pytest.raises(ValueError, match="^unknown noise mode signed$"):
            detect_noise(np.zeros(2), np.ones(2), np.ones(2, dtype=bool), mode="signed")

    def test_both_classes_screened(self):
        d = np.array([1.0, 0.9, -0.2, -1.0, -0.8, 0.4])
        labels = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        flagged = detect_noise(d, labels, np.ones(6, dtype=bool))
        assert flagged.tolist() == [2, 5]


def test_noise_rules_against_known_flips():
    # which flipped labels each rule eliminates in a full adaptive run: a report
    # for choosing a rule, so how often a rule fires is printed, not asserted
    for n_pos, n_neg in ((60, 140), (200, 800)):
        for seed in (1, 2, 3):
            ds = synth_two_gaussians(n_pos, n_neg, 2.0, 0.05, seed)
            clean = synth_two_gaussians(n_pos, n_neg, 2.0, 0.0, seed)
            assert (ds.X != clean.X).nnz == 0  # the points are drawn before the flips
            flipped = ds.y != clean.y
            for mode in NoiseMode:
                for optimizer in Optimizer:
                    cfg = TrainConfig(optimizer=optimizer, adaptive=True, noise_mode=mode,
                                      seed=seed)
                    phase = stochastic_phase(ds.to_matrix(augment=True), ds.labels(), cfg)
                    held = []

                    def inner(w, alpha, active):
                        held[:] = [active]  # train() marks eliminations in this array
                        return phase(w, alpha, active)

                    rounds = train(ds, ds, cfg, inner=inner)[1]
                    eliminated = ~held[0]
                    assert eliminated.sum() == rounds[-1]["n_noise"]
                    print(f"({n_pos}, {n_neg}) seed {seed} {mode.value} {optimizer.value}: "
                          f"eliminated {eliminated.sum()}, hits {(eliminated & flipped).sum()}, "
                          f"flipped {flipped.sum()}")
