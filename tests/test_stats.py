"""Summary statistics and paired tests against hand values and scipy."""

import numpy as np
import pytest
import scipy.stats as ss

from mfonline.stats import DegenerateDataError, average_ranks, paired_tests, summarize


def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0])
    assert s.n == 3
    assert s.mean == 2.0
    assert s.sd == 1.0
    half = 1.96 / np.sqrt(3.0)
    assert s.ci_low == pytest.approx(2.0 - half, abs=1e-15)
    assert s.ci_high == pytest.approx(2.0 + half, abs=1e-15)


def test_summarize_validation():
    with pytest.raises(ValueError, match="at least two"):
        summarize([1.0])
    with pytest.raises(ValueError, match="vector"):
        summarize(np.ones((3, 2)))


def test_t_matches_scipy():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.2, 1.0, 20)
        b = rng.normal(0.0, 1.3, 20)
        r = paired_tests(a, b)
        ref = ss.ttest_rel(a, b)
        assert r.t_stat == pytest.approx(ref.statistic, abs=1e-12)
        assert r.t_pvalue == pytest.approx(ref.pvalue, abs=1e-12)
        assert r.mean_diff == pytest.approx(float(np.mean(a - b)), abs=1e-15)


def test_t_infinite_when_spread_is_zero():
    base = np.arange(8.0)
    r = paired_tests(base + 0.5, base)
    assert r.t_stat == np.inf and r.t_pvalue == 0.0
    r = paired_tests(base - 0.5, base)
    assert r.t_stat == -np.inf and r.t_pvalue == 0.0


def test_wilcoxon_all_positive_eight_pairs():
    # every signed-rank assignment enumerated: only the all-positive one
    # reaches W+ = 36, so the two-sided p is exactly 2 / 2^8
    b = np.zeros(8)
    a = np.arange(1.0, 9.0)
    r = paired_tests(a, b)
    assert r.wilcoxon_exact
    assert r.wilcoxon_stat == 36.0
    assert r.wilcoxon_pvalue == 2.0**-7


def test_average_ranks_bitwise_equal_to_scipy():
    rng = np.random.default_rng(4)
    cases = [
        rng.integers(0, 4, 40).astype(float),  # tie-heavy
        np.round(rng.normal(0.0, 1.0, 200), 1),  # ties among spread values
        rng.normal(0.0, 1.0, 25),  # no ties
        np.array([2.5]),
        np.full(9, 0.3),
        np.array([]),
        np.array([1.0, np.inf, 1.0, np.inf, 0.0]),
        np.array([0.4, np.nan, 0.1]),  # NaN propagates to every rank
    ]
    for values in cases:
        got = average_ranks(values)
        want = ss.rankdata(values, method="average")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_wilcoxon_exact_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = rng.normal(0.4, 1.0, 10)
        r = paired_tests(d, np.zeros(10))
        ref = ss.wilcoxon(d, method="exact")
        assert r.wilcoxon_exact
        assert r.wilcoxon_pvalue == pytest.approx(ref.pvalue, abs=1e-12)
        # scipy reports min(W+, W-); the two determine each other
        w_minus = 10 * 11 / 2 - r.wilcoxon_stat
        assert min(r.wilcoxon_stat, w_minus) == ref.statistic


def test_wilcoxon_drops_zero_differences():
    d = np.array([0.0, 1.0, -2.0, 3.0, 4.0, 5.0, -6.0, 7.0])
    r = paired_tests(d, np.zeros(8))
    ref = ss.wilcoxon(d, method="exact", zero_method="wilcox")
    assert r.wilcoxon_exact  # 7 nonzero values, still enumerable
    assert r.wilcoxon_pvalue == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_normal_approximation_with_ties():
    rng = np.random.default_rng(7)
    d = rng.integers(-4, 5, 30).astype(float)
    d[d == 0.0] = 1.0
    r = paired_tests(d, np.zeros(30))
    ref = ss.wilcoxon(d, method="approx", correction=True)
    assert not r.wilcoxon_exact
    assert r.wilcoxon_pvalue == pytest.approx(ref.pvalue, abs=1e-12)


def test_exchange_antisymmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(0.1, 1.0, 15)
    b = rng.normal(0.0, 1.0, 15)
    ab = paired_tests(a, b)
    ba = paired_tests(b, a)
    assert ab.t_stat == pytest.approx(-ba.t_stat, abs=1e-12)
    assert ab.t_pvalue == pytest.approx(ba.t_pvalue, abs=1e-15)
    assert ab.mean_diff == pytest.approx(-ba.mean_diff, abs=1e-15)
    assert ab.wilcoxon_pvalue == pytest.approx(ba.wilcoxon_pvalue, abs=1e-15)


def test_null_rejection_rate_near_five_percent():
    # true null: both tests should reject at ~5%; binomial sd over 10^4
    # replications is ~0.22%, so [0.04, 0.06] is a wide safety band
    rng = np.random.default_rng(1234)
    n_sims, n_pairs = 10000, 20
    diffs = rng.normal(0.0, 1.0, size=(n_sims, n_pairs))
    t_rejects = 0
    w_rejects = 0
    zeros = np.zeros(n_pairs)
    for row in diffs:
        r = paired_tests(row, zeros)
        t_rejects += r.t_pvalue < 0.05
        w_rejects += r.wilcoxon_pvalue < 0.05
    t_rate = t_rejects / n_sims
    w_rate = w_rejects / n_sims
    assert 0.04 <= t_rate <= 0.06
    assert w_rate <= 0.06  # discrete + continuity correction, conservative


def test_degenerate_differences_raise():
    a = np.arange(8.0)
    with pytest.raises(DegenerateDataError):
        paired_tests(a, a.copy())


def test_paired_validation():
    with pytest.raises(ValueError, match="at least 6"):
        paired_tests(np.arange(5.0), np.zeros(5))
    with pytest.raises(ValueError, match="equal-length"):
        paired_tests(np.arange(8.0), np.zeros(7))
    with pytest.raises(ValueError, match="equal-length"):
        paired_tests(np.ones((4, 2)), np.ones((4, 2)))
