"""Studentized range distribution and Tukey's HSD test.

The CDF is evaluated by direct numerical integration: an outer
Gauss-Legendre rule over the scaled chi distribution of the pooled
standard deviation and an inner rule over the range distribution of k
standard normals. Accuracy is well inside the 1e-4 contract (spot
checks sit at ~1e-9 against high-precision reference values).

A quantile is defined as the result of a bisection on the CDF from
[1e-9, hi] down to a bracket 1e-10 wide. It is computed by replaying
that bisection over a bracket first narrowed by regula falsi, which
returns the same float from about a third of the CDF evaluations.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

_OUTER_NODES = 200
_INNER_NODES = 240
_INNER_HALFSPAN = 9.0


def _erf_array(x: np.ndarray) -> np.ndarray:
    """math.erf elementwise: a map over a list, faster than np.vectorize."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _norm_cdf_array(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf_array(x / math.sqrt(2.0)))


@lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _scaled_nodes(n: int, lo: float, hi: float):
    nodes, weights = _leggauss(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def _range_cdf(r: np.ndarray, k: int) -> np.ndarray:
    """CDF of the range of k iid standard normals, vectorized over r."""
    u, wu = _scaled_nodes(_INNER_NODES, -_INNER_HALFSPAN, _INNER_HALFSPAN)
    phi_u = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    cdf_u = _norm_cdf_array(u)
    spans = np.clip(cdf_u[None, :] - _norm_cdf_array(u[None, :] - r[:, None]), 0.0, 1.0)
    values = k * ((phi_u * spans ** (k - 1)) @ wu)
    return np.where(r <= 0.0, 0.0, np.clip(values, 0.0, 1.0))


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """P(Q <= q) for the studentized range with k groups and df error dof."""
    if k < 2:
        raise ValueError(f"k={k} must be >= 2")
    if df < 1:
        raise ValueError(f"df={df} must be >= 1")
    if q <= 0.0:
        return 0.0
    nu = float(df)
    spread = 12.0 / math.sqrt(2.0 * nu)
    lo = max(1e-12, 1.0 - spread)
    hi = 1.0 + spread
    s, ws = _scaled_nodes(_OUTER_NODES, lo, hi)
    ln_const = (1.0 - nu / 2.0) * math.log(2.0) + (nu / 2.0) * math.log(nu) - math.lgamma(
        nu / 2.0
    )
    density = np.exp(ln_const + (nu - 1.0) * np.log(s) - nu * s * s / 2.0)
    total = float((ws * density * _range_cdf(q * s, k)).sum())
    return min(max(total, 0.0), 1.0)


# The bisection that defines a quantile: its lower end and final width.
_BISECT_LO = 1e-9
_BISECT_WIDTH = 1e-10
# Regula falsi keeps each new point this far inside its bracket.
_NARROW_STEP = 2e-11
# The replay takes a midpoint's side from the CDF's monotonicity only
# when it lies this far outside the evaluated bracket; the CDF's own
# rounding moves its root by about 1e-15.
_REPLAY_MARGIN = 1e-11


@lru_cache(maxsize=256)
def studentized_range_quantile(p: float, k: int, df: int) -> float:
    """Inverse CDF; absolute accuracy far below 1e-4.

    The result is, bit for bit, the midpoint that a bisection on the
    CDF from [1e-9, hi] reaches once its bracket is under 1e-10 wide;
    hi is the first of 4 * 1.6**n with cdf(hi) >= p. That bisection
    takes about 38 CDF evaluations. Here regula falsi first narrows the
    bracket around the root to 1e-10, noting on which side of p each
    evaluated point lies. Then the bisection is replayed: a midpoint
    more than 1e-11 outside the tightest evaluated bracket takes its
    side from the CDF being increasing, and only a midpoint inside that
    band needs the CDF, unless it was evaluated already. The toy and
    mid pipelines' quantiles take 9-15 evaluations.

    Cached: analysis sweeps ask for the same (p, k, df) once per
    profile, and the CDF evaluations are by far their dominant cost.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    below = {}  # every evaluated q: cdf(q) < p

    def excess(q: float) -> float:
        value = studentized_range_cdf(q, k, df)
        below[q] = value < p
        return value - p

    # cdf(1e-9) is 0 to double precision, and the bisection never asks.
    a, fa = _BISECT_LO, -p
    hi = 4.0
    fb = excess(hi)
    expansions = 0
    while below[hi]:
        a, fa = hi, fb
        hi *= 1.6
        expansions += 1
        if expansions > 40:
            raise ArithmeticError(
                f"quantile bracket failed for p={p}, k={k}, df={df} (cdf(hi) still low)"
            )
        fb = excess(hi)

    # Regula falsi over [a, b]. The Illinois step halves the value kept
    # at an end that stayed put for two steps, so both ends close in. A
    # point kept _NARROW_STEP inside twice running means the CDF is flat
    # at p to rounding there, so the next point halves the bracket.
    b = hi
    moved = 0
    clamped = False
    for _ in range(200):
        if b - a <= _BISECT_WIDTH:
            break
        x = b - fb * (b - a) / (fb - fa)
        inner = min(max(x, a + _NARROW_STEP), b - _NARROW_STEP)
        if inner != x and clamped:
            inner = 0.5 * (a + b)
        clamped, x = inner != x, inner
        fx = excess(x)
        if below[x]:
            if moved < 0:
                fb *= 0.5
            a, fa, moved = x, fx, -1
        else:
            if moved > 0:
                fa *= 0.5
            b, fb, moved = x, fx, 1

    lo = _BISECT_LO
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid < a - _REPLAY_MARGIN:
            is_below = True
        elif mid > b + _REPLAY_MARGIN:
            is_below = False
        else:
            if mid not in below:
                excess(mid)
            is_below = below[mid]
            if is_below:
                a = max(a, mid)
            else:
                b = min(b, mid)
        if is_below:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_WIDTH:
            break
    return 0.5 * (lo + hi)


class PairDiff(NamedTuple):
    group_a: str
    group_b: str
    diff: float
    significant: bool


class TukeyResult(NamedTuple):
    means: dict
    hsd: float
    pairs: tuple


def tukey_hsd(
    group_means: Mapping[str, float],
    n_per_group: int,
    ms_error: float,
    df_error: int,
    alpha: float = 0.05,
) -> TukeyResult:
    """Tukey's honestly significant difference over equal-size groups.

    A pair differs significantly when |mean_i - mean_j| exceeds
    HSD = q(1-alpha, k, df) * sqrt(MS_error/n).
    """
    if df_error < 1:
        raise ValueError(f"df_error={df_error} must be >= 1")
    if n_per_group < 1:
        raise ValueError("n_per_group must be >= 1")
    if ms_error < 0:
        raise ValueError("ms_error must be >= 0")
    if len(group_means) < 2:
        raise ValueError("need at least two groups")
    k = len(group_means)
    q_crit = studentized_range_quantile(1.0 - alpha, k, df_error)
    hsd = q_crit * math.sqrt(ms_error / n_per_group)
    levels = sorted(group_means)
    pairs = []
    for i, a in enumerate(levels):
        for b in levels[i + 1 :]:
            diff = group_means[a] - group_means[b]
            pairs.append(PairDiff(a, b, diff, abs(diff) > hsd))
    return TukeyResult(means=dict(group_means), hsd=hsd, pairs=tuple(pairs))
