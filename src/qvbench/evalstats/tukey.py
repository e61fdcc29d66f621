"""Studentized range distribution and Tukey's HSD test.

The CDF is evaluated by direct numerical integration in pure Python: an
outer 200-node Gauss-Legendre rule over the scaled chi distribution of
the pooled standard deviation and an inner 240-node rule over the range
distribution of k standard normals. The nodes come from Newton's method
on the Legendre recurrence, and the inner rule's x/sqrt(2), w*phi(x) and
erf(x/sqrt(2)) are computed once per process. Outer nodes whose
w*density, and inner nodes whose w*phi, fall below 1e-17 are skipped:
each would move the CDF by less than k * 1e-17. Accuracy is well inside
the 1e-4 contract (spot checks sit at ~1e-9 against high-precision
reference values).

A quantile is defined as the result of a bisection on the CDF from
[1e-9, hi] down to a bracket 1e-10 wide. It is computed by replaying
that bisection over a bracket first narrowed by regula falsi, which
returns the same float from about a third of the CDF evaluations.
The bisection only sees on which side of p the CDF lies at each
midpoint, so a CDF that moves by about 1e-14, as this one did from the
numpy grid it replaced, returns the same bits unless a midpoint falls
within about 1e-13 of the root. The pinned quantiles in the tests,
which include the toy and mid pipelines', kept theirs, and so the hsd
column of tukey_pairs.csv kept its bytes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, NamedTuple

_OUTER_NODES = 200
_INNER_NODES = 240
_INNER_HALFSPAN = 9.0
# An outer node whose w*density, or an inner node whose w*phi, falls
# below this is skipped.
_NEGLIGIBLE = 1e-17


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
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


def _scaled_nodes(n: int, lo: float, hi: float) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point rule on [lo, hi]."""
    nodes, weights = _leggauss(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return [(mid + half * x, half * w) for x, w in zip(nodes, weights)]


@lru_cache(maxsize=None)
def _inner_rule() -> tuple[tuple[float, float, float], ...]:
    """(u/sqrt 2, w*phi(u), erf(u/sqrt 2)) at the inner nodes u on
    [-9, 9] where w*phi(u) is not negligible."""
    rule = []
    for u, w in _scaled_nodes(_INNER_NODES, -_INNER_HALFSPAN, _INNER_HALFSPAN):
        w_phi = w * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        if w_phi >= _NEGLIGIBLE:
            a = u / math.sqrt(2.0)
            rule.append((a, w_phi, math.erf(a)))
    return tuple(rule)


def _range_cdf(r: float, k: int) -> float:
    """CDF of the range of k iid standard normals:
    k * integral of phi(u) * (Phi(u) - Phi(u - r))**(k-1) du, with
    Phi(u) - Phi(u - r) = (erf(u/sqrt 2) - erf((u - r)/sqrt 2)) / 2."""
    b = r / math.sqrt(2.0)
    erf = math.erf
    power = k - 1
    total = 0.0
    for a, w_phi, erf_a in _inner_rule():
        total += w_phi * (erf_a - erf(a - b)) ** power
    return min(max(k * 0.5**power * total, 0.0), 1.0)


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
    ln_const = (1.0 - nu / 2.0) * math.log(2.0) + (nu / 2.0) * math.log(nu) - math.lgamma(
        nu / 2.0
    )
    total = 0.0
    for s, w in _scaled_nodes(_OUTER_NODES, lo, hi):
        w_density = w * math.exp(ln_const + (nu - 1.0) * math.log(s) - nu * s * s / 2.0)
        if w_density >= _NEGLIGIBLE:
            total += w_density * _range_cdf(q * s, k)
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
