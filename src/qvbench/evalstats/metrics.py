"""Ranking effectiveness and rank-comparison statistics."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

VALID_GRADES = (0, 1, 2, 3)

# Each gain mode's gain of grades 0..3: the grade itself, or 2**grade - 1.
_GAINS = {"linear": {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}, "exp": {0: 0.0, 1: 1.0, 2: 3.0, 3: 7.0}}


def _dcg(grades: Sequence[int], k: int, gains: Mapping[int, float]) -> float:
    total = 0.0
    for rank, grade in enumerate(grades[:k], start=1):
        total += gains[grade] / math.log2(rank + 1)
    return total


def ndcg_at_k(
    ranked_grades: Sequence[int],
    ideal_grades: Iterable[int],
    k: int = 10,
    gain: str = "linear",
) -> float:
    """NDCG@k with 1/log2(rank+1) discount; 0.0 when the ideal gain is zero.

    `ranked_grades` are the grades of the retrieved passages in rank
    order; `ideal_grades` is the grade multiset of the query's judgment
    pool, or of its k best grades, from which the ideal ranking is formed.
    """
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if gain not in _GAINS:
        raise ValueError(f"unknown gain {gain!r}")
    ideal = sorted(ideal_grades, reverse=True)
    for grade in list(ranked_grades[:k]) + ideal[:k]:
        if grade not in VALID_GRADES:
            raise ValueError(f"grade {grade!r} outside 0..3")
    idcg = _dcg(ideal, k, _GAINS[gain])
    if idcg == 0.0:
        return 0.0
    return _dcg(ranked_grades, k, _GAINS[gain]) / idcg


def kendall_tau(ranking_a: Mapping[str, float], ranking_b: Mapping[str, float]) -> float:
    """Kendall's tau-b between two keyed rankings.

    Values may be ranks or scores; the two mappings must share an
    orientation. Tau-b discounts ties in the denominator.
    """
    if set(ranking_a) != set(ranking_b):
        raise ValueError("rankings cover different key sets")
    keys = sorted(ranking_a)
    n = len(keys)
    if n < 2:
        raise ValueError("need at least two keys")
    concordant = discordant = ties_a_only = ties_b_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = ranking_a[keys[i]] - ranking_a[keys[j]]
            db = ranking_b[keys[i]] - ranking_b[keys[j]]
            if da == 0 and db == 0:
                continue
            if da == 0:
                ties_a_only += 1
            elif db == 0:
                ties_b_only += 1
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    denom_a = concordant + discordant + ties_a_only
    denom_b = concordant + discordant + ties_b_only
    if denom_a == 0 or denom_b == 0:
        raise ValueError("tau-b undefined: one ranking is entirely tied")
    return (concordant - discordant) / math.sqrt(denom_a * denom_b)


class MannWhitneyResult(NamedTuple):
    u: float
    p: float
    significant: bool


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = mid
        i = j + 1
    return ranks


def mann_whitney_u(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alpha: float = 0.05,
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test via the normal approximation.

    U is reported for sample_a. Ties get midranks and the variance tie
    correction; the z statistic uses a 0.5 continuity correction. When
    every value is identical the test degenerates to p = 1.
    """
    from .special import norm_sf  # here, so that evaluate, which needs only NDCG, loads no more

    n1, n2 = len(sample_a), len(sample_b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    combined = list(sample_a) + list(sample_b)
    ranks = _midranks(combined)
    r1 = sum(ranks[:n1])
    u = r1 - n1 * (n1 + 1) / 2
    mu = n1 * n2 / 2
    n = n1 + n2
    tie_counts: dict[float, int] = {}
    for v in combined:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(t**3 - t for t in tie_counts.values())
    var = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return MannWhitneyResult(u=u, p=1.0, significant=False)
    numer = abs(u - mu) - 0.5
    if numer < 0:
        numer = 0.0
    p = min(1.0, 2.0 * norm_sf(numer / math.sqrt(var)))
    return MannWhitneyResult(u=u, p=p, significant=p < alpha)
