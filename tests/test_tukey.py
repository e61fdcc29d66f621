"""Studentized range distribution and Tukey HSD."""

import math
import random

import mpmath
import pytest

from qvbench.evalstats import tukey
from qvbench.evalstats.special import t_quantile
from qvbench.evalstats.tukey import (
    studentized_range_cdf,
    studentized_range_quantile,
    tukey_hsd,
)

# Frozen at development time from an independent high-precision
# implementation; classic printed tables give 3.88 / 4.23 / 4.65.
Q_REFERENCES = {
    (0.95, 3, 10): 3.876776750013158,
    (0.95, 5, 20): 4.231856748997479,
    (0.95, 10, 60): 4.646323963266348,
}


def test_quantile_reference_values():
    for (p, k, df), want in Q_REFERENCES.items():
        got = studentized_range_quantile(p, k, df)
        assert got == pytest.approx(want, abs=1e-6)
        # Printed-table precision as a second, coarser anchor.
        assert round(got, 2) == round(want, 2)


def test_quantile_k2_matches_t():
    for df in (5, 10, 30):
        q = studentized_range_quantile(0.95, 2, df)
        t = math.sqrt(2.0) * t_quantile(0.975, df)
        assert q == pytest.approx(t, abs=1e-7)


def test_quantile_monotone_in_p():
    q95 = studentized_range_quantile(0.95, 4, 12)
    q99 = studentized_range_quantile(0.99, 4, 12)
    assert q99 > q95


def test_cdf_roundtrip_and_shape():
    assert studentized_range_cdf(0.0, 3, 10) == 0.0
    assert studentized_range_cdf(-1.0, 3, 10) == 0.0
    for (p, k, df), q in Q_REFERENCES.items():
        assert studentized_range_cdf(q, k, df) == pytest.approx(p, abs=1e-9)
    low = studentized_range_cdf(1.0, 3, 10)
    high = studentized_range_cdf(5.0, 3, 10)
    assert 0.0 < low < high < 1.0


def test_quantile_input_validation():
    with pytest.raises(ValueError):
        studentized_range_quantile(0.0, 3, 10)
    with pytest.raises(ValueError):
        studentized_range_quantile(0.95, 1, 10)
    with pytest.raises(ValueError):
        studentized_range_quantile(0.95, 3, 0)


def test_tukey_identical_means_no_significance():
    result = tukey_hsd({"a": 0.5, "b": 0.5, "c": 0.5}, 6, 0.01, 15)
    assert all(not pair.significant for pair in result.pairs)
    assert len(result.pairs) == 3


def test_tukey_flag_matches_threshold():
    result = tukey_hsd({"a": 0.9, "b": 0.5, "c": 0.48}, 5, 0.002, 12)
    for pair in result.pairs:
        assert pair.significant == (abs(pair.diff) > result.hsd)
    verdict = {(p.group_a, p.group_b): p.significant for p in result.pairs}
    assert verdict[("a", "b")] and verdict[("a", "c")]
    assert not verdict[("b", "c")]


def test_tukey_two_group_matches_t_test():
    # With k=2, q = sqrt(2) t, so the HSD verdict equals a pooled t-test.
    means = {"a": 0.62, "b": 0.50}
    n, mse, df = 8, 0.01, 14
    result = tukey_hsd(means, n, mse, df)
    t_stat = (means["a"] - means["b"]) / math.sqrt(mse * 2 / n)
    t_crit = t_quantile(0.975, df)
    assert result.pairs[0].significant == (abs(t_stat) > t_crit)
    hsd_from_t = math.sqrt(2.0) * t_crit * math.sqrt(mse / n)
    assert result.hsd == pytest.approx(hsd_from_t, abs=1e-6)


def test_tukey_input_validation():
    with pytest.raises(ValueError):
        tukey_hsd({"a": 0.5, "b": 0.6}, 5, 0.01, 0)
    with pytest.raises(ValueError):
        tukey_hsd({"a": 0.5}, 5, 0.01, 10)


# float.hex of the quantiles the toy and mid pipelines ask for, recorded
# from the plain bisection search; a faster search must return the same
# bits, or the hsd column of tukey_pairs.csv changes.
PINNED_QUANTILES = {
    (0.95, 5, 50): "0x1.001ffa3840986p+2",
    (0.95, 19, 950): "0x1.3f3b298be30b9p+2",
    (0.95, 5, 100): "0x1.f6e7694d79c44p+1",
    (0.95, 19, 1900): "0x1.3ec7ac55168c5p+2",
}


@pytest.mark.parametrize("case", sorted(PINNED_QUANTILES))
def test_quantile_bits_pinned(case):
    assert studentized_range_quantile(*case).hex() == PINNED_QUANTILES[case]


def bisection_quantile(p, k, df):
    """The plain bisection that defines the quantile, kept as the oracle."""
    lo, hi = 1e-9, 4.0
    while studentized_range_cdf(hi, k, df) < p:
        hi *= 1.6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if studentized_range_cdf(mid, k, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def random_quantile_cases(n, seed):
    rng = random.Random(seed)
    cases = set()
    while len(cases) < n:
        p = rng.choice([0.9, 0.95, 0.99, round(rng.uniform(0.5, 0.999), 4)])
        df = rng.choice([rng.randint(1, 30), rng.randint(31, 5000)])
        cases.add((p, rng.randint(2, 25), df))
    return sorted(cases)


def test_quantile_bits_equal_bisection():
    for case in random_quantile_cases(40, seed=20261018):
        want = bisection_quantile(*case)
        got = studentized_range_quantile.__wrapped__(*case)
        assert got.hex() == want.hex(), case


def test_pinned_oracle_matches_bisection():
    for case, bits in PINNED_QUANTILES.items():
        assert bisection_quantile(*case).hex() == bits


def _counting_cdf(monkeypatch):
    """The q of every full CDF evaluation the quantile makes."""
    calls = []
    real = tukey.studentized_range_cdf

    def counting(q, k, df):
        calls.append(q)
        return real(q, k, df)

    monkeypatch.setattr(tukey, "studentized_range_cdf", counting)
    return calls


# Full CDF evaluations per pinned quantile, as measured.
PINNED_EVALUATIONS = {
    (0.95, 5, 50): 4,
    (0.95, 19, 950): 4,
    (0.95, 5, 100): 3,
    (0.95, 19, 1900): 4,
}


@pytest.mark.parametrize("case", sorted(PINNED_QUANTILES))
def test_quantile_cdf_evaluations(case, monkeypatch):
    calls = _counting_cdf(monkeypatch)
    assert studentized_range_quantile.__wrapped__(*case).hex() == PINNED_QUANTILES[case]
    assert len(calls) <= PINNED_EVALUATIONS[case]
    assert len(set(calls)) == len(calls)


def test_random_quantiles_take_few_cdf_evaluations(monkeypatch):
    """Small df and large k, where the coarse rule predicts the root
    worst, included: at most 6 full evaluations, none repeated."""
    calls = _counting_cdf(monkeypatch)
    for case in random_quantile_cases(40, seed=20261018):
        calls.clear()
        studentized_range_quantile.__wrapped__(*case)
        assert len(calls) <= 6, case
        assert len(set(calls)) == len(calls), case


def newton_leggauss(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n even.

    Each positive root starts from Tricomi's asymptotic expansion
    (Tricomi 1950, to O(n**-4)) and takes Newton steps on P_n from the
    three-term recurrence until the next step would move it by less
    than 1e-18; a step also updates P_n' through Legendre's equation, so
    most roots need one pass of the recurrence. The negative roots
    mirror the positive ones.
    """
    nodes, weights = [], []
    nn = n * (n + 1)
    for i in range(n // 2):
        theta = math.pi * (i + 0.75) / (n + 0.5)
        sin2 = math.sin(theta) ** 2
        x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / sin2) / (384.0 * n**4)) * math.cos(
            theta
        )
        for _ in range(20):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            ddp = (2.0 * x * dp - nn * p1) / (1.0 - x * x)
            dx = p1 / dp
            x -= dx
            dp -= dx * ddp
            if abs(ddp / dp) * dx * dx < 2e-18:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple([-x for x in nodes] + nodes[::-1]), tuple(weights + weights[::-1])


@pytest.mark.parametrize("n", [40, 48, 200, 240])
def test_leggauss_table_matches_newton(n):
    """The bundled rules are, bit for bit, what Newton's method gives."""
    assert tukey._leggauss(n) == newton_leggauss(n)


def _legendre_mp(n, x):
    """P_n(x) and P_n'(x) from the three-term recurrence, in mpmath."""
    p0, p1 = mpmath.mpf(1), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


@pytest.mark.parametrize("n", [200, 240])
def test_leggauss_matches_mpmath(n):
    """Each node within 5e-16 of the root a 30-digit Newton step reaches
    from it, and each weight within 5e-16 of 2 / ((1 - x^2) P_n'(x)^2)
    there; the rule is symmetric."""
    nodes, weights = tukey._leggauss(n)
    assert nodes == tuple(-x for x in reversed(nodes))
    assert weights == weights[::-1]
    with mpmath.workdps(30):
        for x, w in zip(nodes[n // 2 :], weights[n // 2 :]):
            root = mpmath.mpf(x)
            for _ in range(2):
                p, dp = _legendre_mp(n, root)
                root -= p / dp
            _, dp = _legendre_mp(n, root)
            assert abs(root - x) <= 5e-16
            assert abs(2 / ((1 - root * root) * dp * dp) - w) <= 5e-16


def test_quantile_where_the_coarse_rule_falls_short():
    """At df = 1 and p near 1 the coarse rule never reaches p; the full
    rule brackets the root instead and the bits still hold."""
    p, k, df = case = (0.9999, 50, 1)

    def coarse(q):
        return tukey._integrated_cdf(q, k, df, tukey._COARSE_OUTER, tukey._COARSE_INNER) - p

    assert tukey._root_search(coarse, p) is None
    assert studentized_range_quantile.__wrapped__(*case).hex() == bisection_quantile(*case).hex()
