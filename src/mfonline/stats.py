"""Small-sample summary and paired significance tests.

summarize gives mean, sd (n-1 denominator) and the normal-approximation
95% interval mean +- 1.96 sd / sqrt(n).  paired_tests runs, on the
differences a - b:

* the paired t test, with the two-sided p-value from the regularized
  incomplete beta function I_x(nu/2, 1/2) at x = nu / (nu + t^2);
* the Wilcoxon signed-rank test: zeros dropped, average ranks for ties,
  exact null enumeration when n <= 12 (after dropping), otherwise the
  normal approximation with tie correction and continuity correction.

All-zero differences make both tests degenerate and raise.

``scipy.special`` is imported inside the two tests, so that the CLI
loads it only when it first runs a paired test.
"""

from dataclasses import dataclass

import numpy as np


class DegenerateDataError(ValueError):
    """The differences carry no usable signal (all zero, or a == b)."""


@dataclass(frozen=True)
class StatsSummary:
    n: int
    mean: float
    sd: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class PairedTestResult:
    n: int
    mean_diff: float
    t_stat: float
    t_pvalue: float
    wilcoxon_stat: float
    wilcoxon_pvalue: float
    wilcoxon_exact: bool


def summarize(values) -> StatsSummary:
    """Mean, sample sd and 95% normal-approximation interval."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a vector of at least two values")
    n = values.size
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    half = 1.96 * sd / np.sqrt(n)
    return StatsSummary(n=n, mean=mean, sd=sd, ci_low=mean - half, ci_high=mean + half)


def _t_test(diffs):
    from scipy.special import betainc

    n = diffs.size
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            raise DegenerateDataError("all differences are zero")
        return np.inf if mean > 0 else -np.inf, 0.0
    t = mean / (sd / np.sqrt(n))
    nu = n - 1
    p = float(betainc(0.5 * nu, 0.5, nu / (nu + t * t)))
    return float(t), p


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n of a vector, each tie given the mean of the ranks it spans.

    A tie spanning sorted positions start..end-1 gets (start + end + 1) / 2,
    an exact half, so the result is bitwise equal to
    ``scipy.stats.rankdata(values, method="average")``, whose import costs
    more than half a second; like it, any NaN makes every rank NaN.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _wilcoxon_exact_p(ranks, w_plus):
    """Two-sided exact p by enumerating all 2^n sign assignments."""
    sums = np.zeros(1)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    total = sums.size
    eps = 1e-9  # rank sums are halves; guard fp comparisons
    p_low = np.count_nonzero(sums <= w_plus + eps) / total
    p_high = np.count_nonzero(sums >= w_plus - eps) / total
    return min(1.0, 2.0 * min(p_low, p_high))


def _wilcoxon(diffs, exact_cutoff=12):
    from scipy.special import ndtr

    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        raise DegenerateDataError("all differences are zero")
    ranks = average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    if n <= exact_cutoff:
        return w_plus, _wilcoxon_exact_p(ranks, w_plus), True
    mean = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts**3 - counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise DegenerateDataError("zero variance in signed ranks")
    z = max(abs(w_plus - mean) - 0.5, 0.0) / np.sqrt(var)
    p = float(2.0 * ndtr(-z))
    return w_plus, min(1.0, p), False


def paired_tests(a, b) -> PairedTestResult:
    """Paired t and Wilcoxon signed-rank tests on differences a - b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be equal-length vectors")
    if a.size < 6:
        raise ValueError("need at least 6 pairs")
    diffs = a - b
    t_stat, t_p = _t_test(diffs)
    w_stat, w_p, exact = _wilcoxon(diffs)
    return PairedTestResult(
        n=a.size,
        mean_diff=float(diffs.mean()),
        t_stat=t_stat,
        t_pvalue=t_p,
        wilcoxon_stat=w_stat,
        wilcoxon_pvalue=w_p,
        wilcoxon_exact=exact,
    )
