"""Rank-based comparison of K methods over N datasets: Friedman chi-square
test and the Nemenyi critical-difference post hoc analysis.

Per dataset the methods are ranked 1 = best with average-rank tie handling,
so every rank row sums to K(K+1)/2. The test statistic is

    chi2_F = 12N / (K(K+1)) * (sum_j R_j^2 - K(K+1)^2 / 4)

with K-1 degrees of freedom, where R_j is method j's mean rank. Two methods
differ significantly when their mean ranks differ by more than

    CD = q_alpha * sqrt(K(K+1) / (6N)).
"""

from __future__ import annotations

import math

import numpy as np

# Studentized-range-based critical values q_alpha at alpha = 0.05 for K
# simultaneous methods (infinite degrees of freedom, divided by sqrt(2)).
NEMENYI_Q_05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
    7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}


def rank_rows(values: np.ndarray, higher_is_better: bool = True) -> np.ndarray:
    """The N x K float64 ranks of each row (1 = best); ties get the average of
    the tied positions."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 2:
        raise ValueError("need an N x K matrix with N >= 2 and K >= 2")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    keyed = -values if higher_is_better else values
    # a value's tied positions run from (# keyed below it) + 1 to (# at or
    # below it); their mean is an exact half-integer
    return np.vstack([(np.searchsorted(s, row, "left") + np.searchsorted(s, row, "right") + 1) / 2
                      for s, row in zip(np.sort(keyed, axis=1), keyed)])


def friedman(ranks: np.ndarray) -> tuple[float, float]:
    """Friedman statistic of an N x K rank matrix, over its mean ranks, and
    its chi-square upper-tail p."""
    n, k = ranks.shape
    r = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * (float(np.sum(r ** 2)) - k * (k + 1) ** 2 / 4.0)
    stat = max(stat, 0.0)
    return stat, chi2_sf(stat, k - 1)


def nemenyi_q(k: int, alpha: float = 0.05) -> float:
    if alpha != 0.05:
        raise ValueError("built-in critical values cover alpha = 0.05 only")
    if k not in NEMENYI_Q_05:
        raise ValueError(f"no critical value for K={k}; supported K: 2..10")
    return NEMENYI_Q_05[k]


def nemenyi_cd(k: int, n: int, q_alpha: float) -> float:
    """Critical mean-rank difference q_alpha * sqrt(K(K+1)/(6N))."""
    if k < 2 or n < 1 or not 0 < q_alpha < math.inf:
        raise ValueError(f"need K >= 2, N >= 1 and 0 < q_alpha < inf, "
                         f"got K={k}, N={n}, q_alpha={q_alpha}")
    return q_alpha * math.sqrt(k * (k + 1) / (6.0 * n))


def pairwise_significance(mean_ranks: np.ndarray, cd: float) -> np.ndarray:
    """Boolean matrix: entry (i,j) is True iff |R_i - R_j| strictly exceeds cd."""
    r = np.asarray(mean_ranks, dtype=np.float64)
    return np.abs(r[:, None] - r[None, :]) > cd


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with ``df`` degrees of freedom,
    by ``scipy.special.chdtrc``: the bytes of SciPy's ``chi2.sf`` without
    loading SciPy's ~45 MB statistics package. ``scipy.special`` (~5.6 MiB)
    is imported on the first call, so only ``stats`` pays for it.
    ``x = nan`` raises."""
    from scipy.special import chdtrc

    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isnan(x):
        raise ValueError(f"x must be a number, got x={x}")
    if x <= 0.0:
        return 1.0
    return float(chdtrc(df, x))
