"""Studentized range distribution and Tukey's HSD test.

The CDF is evaluated by direct numerical integration in pure Python: an
outer 200-node Gauss-Legendre rule over the scaled chi distribution of
the pooled standard deviation and an inner 240-node rule over the range
distribution of k standard normals. The nodes and weights are read from
the bundled table data/legendre.txt, which the tests check bit for bit
against Newton's method on the Legendre recurrence; the inner rule's
x/sqrt(2), w*phi(x) and erf(x/sqrt(2)) are computed once per process.
Outer nodes whose w*density, and inner nodes whose w*phi, fall below
1e-17 are skipped: each would move the CDF by less than k * 1e-17.
Accuracy is well inside the 1e-4 contract (spot checks sit at ~1e-9
against high-precision reference values).

A quantile is defined as the result of a bisection on the CDF from
[1e-9, hi] down to a bracket 1e-10 wide, which takes about 38 CDF
evaluations. It is computed by replaying that bisection with each side
it asks for taken from the evaluated CDF points where they settle it,
and predicted from a root estimate elsewhere. A coarse 40 x 48-node rule
gives the first estimate; each full evaluation, at the predicted point
nearest the root, refines it by a secant step, until no side is left to
prediction. That returns the same float from 2-6 full evaluations over
the tests' random cases; the toy and mid pipelines' quantiles take 4
and 3. Where the coarse rule never reaches p (df = 1 with p near 1),
the full rule brackets the root itself, at about the bisection's cost.

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
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

_OUTER_NODES = 200
_INNER_NODES = 240
_INNER_HALFSPAN = 9.0
# An outer node whose w*density, or an inner node whose w*phi, falls
# below this is skipped.
_NEGLIGIBLE = 1e-17
# The coarse rule that predicts a quantile's root.
_COARSE_OUTER = 40
_COARSE_INNER = 48
_NODES_PATH = Path(__file__).resolve().parent.parent / "data" / "legendre.txt"


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for an n
    in the bundled table, whose lines hold n, a positive node and its
    weight; the negative nodes mirror the positive ones."""
    nodes, weights = [], []
    with open(_NODES_PATH, encoding="ascii") as fh:
        for line in fh:
            size, x, w = line.split()
            if int(size) == n:
                nodes.append(float(x))
                weights.append(float(w))
    return tuple([-x for x in reversed(nodes)] + nodes), tuple(weights[::-1] + weights)


def _scaled_nodes(n: int, lo: float, hi: float) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point rule on [lo, hi]."""
    nodes, weights = _leggauss(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return [(mid + half * x, half * w) for x, w in zip(nodes, weights)]


@lru_cache(maxsize=None)
def _inner_rule(n: int) -> tuple[tuple[float, float, float], ...]:
    """(u/sqrt 2, w*phi(u), erf(u/sqrt 2)) at the n inner nodes u on
    [-9, 9] where w*phi(u) is not negligible."""
    rule = []
    for u, w in _scaled_nodes(n, -_INNER_HALFSPAN, _INNER_HALFSPAN):
        w_phi = w * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        if w_phi >= _NEGLIGIBLE:
            a = u / math.sqrt(2.0)
            rule.append((a, w_phi, math.erf(a)))
    return tuple(rule)


def _range_cdf(r: float, k: int, inner: int) -> float:
    """CDF of the range of k iid standard normals:
    k * integral of phi(u) * (Phi(u) - Phi(u - r))**(k-1) du, with
    Phi(u) - Phi(u - r) = (erf(u/sqrt 2) - erf((u - r)/sqrt 2)) / 2."""
    b = r / math.sqrt(2.0)
    erf = math.erf
    power = k - 1
    total = 0.0
    for a, w_phi, erf_a in _inner_rule(inner):
        total += w_phi * (erf_a - erf(a - b)) ** power
    return min(max(k * 0.5**power * total, 0.0), 1.0)


def _integrated_cdf(q: float, k: int, df: int, outer: int, inner: int) -> float:
    """P(Q <= q) from an outer and an inner rule of the given sizes."""
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
    for s, w in _scaled_nodes(outer, lo, hi):
        w_density = w * math.exp(ln_const + (nu - 1.0) * math.log(s) - nu * s * s / 2.0)
        if w_density >= _NEGLIGIBLE:
            total += w_density * _range_cdf(q * s, k, inner)
    return min(max(total, 0.0), 1.0)


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """P(Q <= q) for the studentized range with k groups and df error dof."""
    return _integrated_cdf(q, k, df, _OUTER_NODES, _INNER_NODES)


# The bisection that defines a quantile: its lower end and final width.
_BISECT_LO = 1e-9
_BISECT_WIDTH = 1e-10
# The replay takes a point's side from the CDF being increasing only
# when it lies this far outside the evaluated bracket; the CDF's own
# rounding moves its root by about 1e-15.
_REPLAY_MARGIN = 1e-11
# The coarse root search stops at this bracket width; the coarse rule's
# own root is off by more.
_COARSE_WIDTH = 1e-7


def _root_search(excess, p: float) -> Optional[tuple[float, float]]:
    """A root of `excess` (a CDF minus p) and its slope across the final
    bracket, by Illinois regula falsi from [1e-9, 4 * 1.6**n] to a
    bracket _COARSE_WIDTH wide; None if 4 * 1.6**40 falls short of p."""
    # The CDF at 1e-9 is 0 to double precision.
    a, b = _BISECT_LO, 4.0
    ea, eb = -p, excess(b)
    for _ in range(40):
        if eb >= 0.0:
            break
        a, ea = b, eb
        b *= 1.6
        eb = excess(b)
    else:
        return None
    wa, wb, moved = ea, eb, 0
    for _ in range(100):
        if b - a <= _COARSE_WIDTH:
            break
        x = b - wb * (b - a) / (wb - wa)
        if not a < x < b:
            x = 0.5 * (a + b)
        ex = excess(x)
        if ex < 0.0:
            if moved < 0:
                wb *= 0.5
            a, ea, wa, moved = x, ex, ex, -1
        else:
            if moved > 0:
                wa *= 0.5
            b, eb, wb, moved = x, ex, ex, 1
    return a - ea * (b - a) / (eb - ea), (eb - ea) / (b - a)


def _replay(excess: dict, root: float) -> tuple[float, list]:
    """The bisection that defines a quantile, run on what `excess` (the
    CDF minus p at each evaluated point) settles, and the points whose
    side it predicted from `root` instead.

    A point takes its own evaluated side; one more than _REPLAY_MARGIN
    below the highest evaluated point under p, or above the lowest at or
    over p, takes its side from the CDF being increasing.
    """
    low = max((q for q, e in excess.items() if e < 0.0), default=-math.inf)
    high = min((q for q, e in excess.items() if e >= 0.0), default=math.inf)
    predicted = []

    def below(q: float) -> bool:
        if q in excess:
            return excess[q] < 0.0
        if q < low - _REPLAY_MARGIN:
            return True
        if q > high + _REPLAY_MARGIN:
            return False
        predicted.append(q)
        return q < root

    hi = 4.0
    while below(hi):
        hi *= 1.6
    lo = _BISECT_LO
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_WIDTH:
            break
    return 0.5 * (lo + hi), predicted


@lru_cache(maxsize=256)
def studentized_range_quantile(p: float, k: int, df: int) -> float:
    """Inverse CDF; absolute accuracy far below 1e-4.

    The result is, bit for bit, the midpoint that a bisection on the
    CDF from [1e-9, hi] reaches once its bracket is under 1e-10 wide;
    hi is the first of 4 * 1.6**n with cdf(hi) >= p. The module
    docstring says how it is reached from a few CDF evaluations.

    Cached: analysis sweeps ask for the same (p, k, df) once per
    profile, and the CDF evaluations are by far their dominant cost.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    excess: dict[float, float] = {}  # the full CDF minus p where evaluated

    def full(q: float) -> float:
        excess[q] = studentized_range_cdf(q, k, df) - p
        return excess[q]

    def coarse(q: float) -> float:
        return _integrated_cdf(q, k, df, _COARSE_OUTER, _COARSE_INNER) - p

    # Where the coarse rule never reaches p, the full rule predicts too.
    estimate = _root_search(coarse, p) or _root_search(full, p)
    if estimate is None:
        raise ArithmeticError(f"quantile bracket failed for p={p}, k={k}, df={df}")
    root, slope = estimate
    last = None
    for _ in range(100):
        result, predicted = _replay(excess, root)
        if not predicted:
            return result
        q = min(predicted, key=lambda x: abs(x - root))
        e = full(q)
        # A secant step through the last two evaluated points; a Newton
        # step with the coarse slope after the first.
        if last is not None and (e - last[1]) * (q - last[0]) > 0.0:
            slope = (e - last[1]) / (q - last[0])
        root, last = q - e / slope, (q, e)
    raise ArithmeticError(f"quantile replay did not settle for p={p}, k={k}, df={df}")


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
