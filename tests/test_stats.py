import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.stats

from awwsvm.stats import (NEMENYI_Q_05, chi2_sf, friedman, nemenyi_cd, nemenyi_q,
                          pairwise_significance, rank_rows)

# Published accuracies of six training variants over twelve benchmark
# datasets; used as a realistic ranking fixture.
ACCURACY_TABLE = np.array([
    [0.8431, 0.8486, 0.8453, 0.8469, 0.7682, 0.8486],
    [0.8492, 0.8514, 0.8456, 0.8521, 0.7767, 0.8513],
    [0.8425, 0.8445, 0.8434, 0.8469, 0.7733, 0.8500],
    [0.9832, 0.9906, 0.9791, 0.9865, 0.7733, 0.9869],
    [0.6452, 0.6498, 0.6475, 0.6498, 0.6495, 0.6495],
    [0.9050, 0.9207, 0.9050, 0.9193, 0.9050, 0.9151],
    [0.9765, 0.9805, 0.9747, 0.9790, 0.9706, 0.9780],
    [0.9752, 0.9805, 0.9734, 0.9816, 0.9704, 0.9816],
    [0.9747, 0.9800, 0.9745, 0.9812, 0.9702, 0.9823],
    [0.9731, 0.9812, 0.9723, 0.9818, 0.9702, 0.9827],
    [0.9730, 0.9830, 0.9750, 0.9816, 0.9699, 0.9828],
    [0.9755, 0.9830, 0.9733, 0.9849, 0.9707, 0.9845],
])


def naive_average_ranks(row):
    """Independent sort-based ranking oracle (1 = largest, ties averaged)."""
    order = sorted(range(len(row)), key=lambda j: -row[j])
    ranks = [0.0] * len(row)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


# few distinct values, both signed zeros: rows full of ties
TIE_VALUES = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]


@st.composite
def tie_heavy_tables(draw):
    n, k = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    cells = draw(st.lists(st.sampled_from(TIE_VALUES), min_size=n * k, max_size=n * k))
    return np.array(cells).reshape(n, k)


class TestRankRows:
    def test_simple_row(self):
        ranks = rank_rows(np.array([[0.9, 0.8, 0.7], [0.1, 0.2, 0.3]]))
        np.testing.assert_array_equal(ranks[0], [1, 2, 3])
        np.testing.assert_array_equal(ranks[1], [3, 2, 1])

    def test_tie_for_best(self):
        ranks = rank_rows(np.array([[0.9, 0.9, 0.7], [0.5, 0.6, 0.7]]))
        np.testing.assert_array_equal(ranks[0], [1.5, 1.5, 3])

    def test_lower_is_better(self):
        ranks = rank_rows(np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]]), higher_is_better=False)
        np.testing.assert_array_equal(ranks[0], [3, 1, 2])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            n, k = int(rng.integers(2, 10)), int(rng.integers(2, 8))
            vals = np.round(rng.random((n, k)), 1)  # rounding forces ties
            ranks = rank_rows(vals)
            for i in range(n):
                np.testing.assert_allclose(ranks[i], naive_average_ranks(vals[i]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tie_heavy_tables(), st.booleans())
    def test_bitwise_equal_to_scipy_rankdata(self, vals, higher_is_better):
        keyed = -vals if higher_is_better else vals
        ref = np.vstack([scipy.stats.rankdata(row, method="average") for row in keyed])
        ranks = rank_rows(vals, higher_is_better)
        assert (ranks.dtype, ranks.shape) == (ref.dtype, ref.shape)
        assert ranks.tobytes() == ref.tobytes()

    def test_row_sums_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n, k = int(rng.integers(2, 12)), int(rng.integers(2, 9))
            vals = np.round(rng.random((n, k)), 1)
            ranks = rank_rows(vals)
            np.testing.assert_array_equal(ranks.sum(axis=1), np.full(n, k * (k + 1) / 2.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rank_rows(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_single_row_or_column(self):
        with pytest.raises(ValueError):
            rank_rows(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            rank_rows(np.array([[1.0], [2.0]]))

    def test_benchmark_table_mean_ranks(self):
        ranks = rank_rows(ACCURACY_TABLE)
        np.testing.assert_allclose(
            ranks.mean(axis=0),
            [4.5, 2.0, 4.75, 2.0, 5.708333333333333, 2.0416666666666665])


class TestFriedman:
    def test_all_identical_is_null(self):
        vals = np.tile([0.5, 0.5, 0.5], (6, 1))
        chi2, p = friedman(rank_rows(vals))
        assert chi2 == 0.0
        assert p == 1.0

    def test_two_methods_always_ordered(self):
        vals = np.column_stack([np.full(10, 0.9), np.full(10, 0.1) + np.arange(10) * 1e-4])
        chi2, p = friedman(rank_rows(vals))
        assert chi2 == pytest.approx(10.0)
        assert p == pytest.approx(scipy.stats.chi2.sf(10.0, 1), rel=1e-10)

    def test_benchmark_table(self):
        chi2, p = friedman(rank_rows(ACCURACY_TABLE))
        assert chi2 == pytest.approx(48.226190476190446, rel=1e-12)
        assert p < 1e-6

    def test_nonnegative_statistic(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            vals = rng.random((5, 4))
            chi2, p = friedman(rank_rows(vals))
            assert chi2 >= 0.0
            assert 0.0 <= p <= 1.0


# from the smallest subnormal through the usual critical values to inf
CHI2_GRID = [5e-324, 1e-300, 1e-10, 0.5, 1.0, 3.84, 11.07, 48.2, 1e3, 1e5, 1e300, math.inf]


class TestChi2Tail:
    def test_matches_scipy_within_1e10(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            df = int(rng.integers(1, 30))
            x = float(rng.uniform(0.01, 80.0))
            ours = chi2_sf(x, df)
            ref = scipy.stats.chi2.sf(x, df)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_bitwise_equal_to_scipy(self):
        rng = np.random.default_rng(25)
        cases = [(x, df) for df in range(1, 41) for x in CHI2_GRID]
        cases += [(float(np.exp(rng.uniform(-30.0, 8.0))), int(rng.integers(1, 60)))
                  for _ in range(2000)]
        for x, df in cases:
            assert chi2_sf(x, df).hex() == float(scipy.stats.chi2.sf(x, df)).hex(), (x, df)

    def test_nan_raises_inf_is_zero(self):
        with pytest.raises(ValueError, match="x="):
            chi2_sf(math.nan, 3)
        assert chi2_sf(math.inf, 3) == 0.0

    def test_published_critical_value(self):
        # df=5 upper 5% point is 11.0705
        assert chi2_sf(11.0705, 5) == pytest.approx(0.05, abs=1e-5)

    def test_edge_cases(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestNemenyi:
    def test_published_critical_difference(self):
        assert nemenyi_cd(6, 12, 2.850) == pytest.approx(2.1767, abs=1e-4)

    def test_hand_value(self):
        assert nemenyi_cd(2, 6, 1.0) == pytest.approx(0.4082482904638631)

    def test_decreasing_in_n_increasing_in_k(self):
        cds_n = [nemenyi_cd(5, n, 2.728) for n in range(2, 40)]
        assert all(a > b for a, b in zip(cds_n, cds_n[1:]))
        cds_k = [nemenyi_cd(k, 10, 2.0) for k in range(2, 10)]
        assert all(a < b for a, b in zip(cds_k, cds_k[1:]))

    def test_built_in_table(self):
        assert nemenyi_q(6) == 2.850
        assert set(NEMENYI_Q_05) == set(range(2, 11))
        with pytest.raises(ValueError):
            nemenyi_q(11)
        with pytest.raises(ValueError):
            nemenyi_q(6, alpha=0.01)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            nemenyi_cd(1, 10, 2.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_q_alpha_must_be_finite_and_positive(self, q):
        with pytest.raises(ValueError) as exc:
            nemenyi_cd(3, 4, q)
        assert str(exc.value) == ("need K >= 2, N >= 1 and 0 < q_alpha < inf, "
                                  f"got K=3, N=4, q_alpha={q}")


class TestPairwiseSignificance:
    def test_boundary_is_not_significant(self):
        sig = pairwise_significance(np.array([1.0, 3.0]), cd=2.0)
        assert not sig[0, 1]

    def test_published_rank_gap(self):
        # mean ranks as published; plain SGD vs the adaptive quasi-Newton variant
        ranks = np.array([4.04, 1.83, 4.46, 1.83, 5.42, 2.13])
        sig = pairwise_significance(ranks, cd=2.1767)
        assert sig[4, 1]  # 5.42 - 1.83 = 3.59 > 2.1767
        assert not sig[0, 2]  # 4.04 vs 4.46

    def test_identical_ranks_nothing_significant(self):
        sig = pairwise_significance(np.full(4, 2.5), cd=0.1)
        assert not sig.any()

    def test_symmetric_with_false_diagonal(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            ranks = rng.uniform(1, 6, size=6)
            sig = pairwise_significance(ranks, cd=float(rng.uniform(0.1, 3.0)))
            assert not np.diag(sig).any()
            np.testing.assert_array_equal(sig, sig.T)
