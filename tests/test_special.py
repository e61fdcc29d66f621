"""Special functions against high-precision references."""

import math
import random

import mpmath
import pytest

from qvbench.evalstats.special import (
    betainc_regularized,
    f_sf,
    t_cdf,
    t_quantile,
    t_sf,
)

mpmath.mp.dps = 30


def mp_betainc(a, b, x):
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


def test_betainc_against_mpmath_grid():
    rng = random.Random(41)
    for _ in range(300):
        a = math.exp(rng.uniform(math.log(0.5), math.log(200)))
        b = math.exp(rng.uniform(math.log(0.5), math.log(200)))
        x = rng.random()
        assert betainc_regularized(a, b, x) == pytest.approx(
            mp_betainc(a, b, x), abs=1e-10
        )


def test_betainc_edges():
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        betainc_regularized(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc_regularized(1.0, 1.0, 1.5)


def test_betainc_symmetry():
    rng = random.Random(42)
    for _ in range(100):
        a = rng.uniform(0.5, 50)
        b = rng.uniform(0.5, 50)
        x = rng.random()
        lhs = betainc_regularized(a, b, x)
        rhs = 1.0 - betainc_regularized(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_f_sf_against_mpmath():
    rng = random.Random(43)
    for _ in range(100):
        d1 = rng.randint(1, 40)
        d2 = rng.randint(1, 120)
        f = rng.uniform(0.01, 12.0)
        want = mp_betainc(d2 / 2, d1 / 2, d2 / (d2 + d1 * f))
        assert f_sf(f, d1, d2) == pytest.approx(want, abs=1e-10)


def test_f_sf_at_zero_is_one():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(-1.0, 3, 10) == 1.0


def test_t_sf_symmetry_and_center():
    assert t_sf(0.0, 7) == 0.5
    for t in (0.3, 1.7, 4.2):
        assert t_sf(-t, 7) == pytest.approx(1.0 - t_sf(t, 7), abs=1e-14)
    assert t_cdf(2.0, 7) == pytest.approx(1.0 - t_sf(2.0, 7), abs=1e-15)


def test_t_quantile_frozen_references():
    # High-precision values computed once with an independent
    # implementation at development time.
    references = {
        (0.975, 10): 2.2281388519649385,
        (0.975, 20): 2.0859634472658364,
        (0.975, 60): 2.00029782201426,
    }
    for (p, df), want in references.items():
        assert t_quantile(p, df) == pytest.approx(want, abs=1e-9)


def test_t_quantile_roundtrip():
    rng = random.Random(44)
    for _ in range(50):
        p = rng.uniform(0.01, 0.99)
        df = rng.randint(1, 200)
        q = t_quantile(p, df)
        assert t_cdf(q, df) == pytest.approx(p, abs=1e-10)


def test_t_quantile_negative_branch():
    assert t_quantile(0.025, 10) == pytest.approx(-t_quantile(0.975, 10), abs=1e-12)
    assert t_quantile(0.5, 10) == 0.0
