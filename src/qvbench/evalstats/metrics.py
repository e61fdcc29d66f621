"""Ranking effectiveness and rank-comparison statistics."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

VALID_GRADES = (0, 1, 2, 3)

# Each gain mode's gain of grades 0..3: the grade itself, or 2**grade - 1.
_GAINS = {"linear": {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}, "exp": {0: 0.0, 1: 1.0, 2: 3.0, 3: 7.0}}


def _dcg(grades: Sequence[int], k: int, gains: Mapping[int, float]) -> float:
    total = 0.0
    for rank, grade in enumerate(grades[:k], start=1):
        total += gains[grade] / math.log2(rank + 1)
    return total


def _checked(grades: Sequence[int], k: int, gain: str) -> Sequence[int]:
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if gain not in _GAINS:
        raise ValueError(f"unknown gain {gain!r}")
    for grade in grades:
        if grade not in VALID_GRADES:
            raise ValueError(f"grade {grade!r} outside 0..3")
    return grades


def ideal_dcg(ideal_grades: Iterable[int], k: int = 10, gain: str = "linear") -> float:
    """DCG@k of the ideal ranking of `ideal_grades` (see `ndcg_at_k`):
    the denominator of every `ndcg` of a query, computed once for all."""
    ideal = _checked(sorted(ideal_grades, reverse=True)[:k], k, gain)
    return _dcg(ideal, k, _GAINS[gain])


def ndcg(ranked_grades: Sequence[int], idcg: float, k: int = 10, gain: str = "linear") -> float:
    """`ndcg_at_k` of `ranked_grades` against the query's `ideal_dcg`."""
    _checked(ranked_grades[:k], k, gain)
    return 0.0 if idcg == 0.0 else _dcg(ranked_grades, k, _GAINS[gain]) / idcg


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
    _checked(ranked_grades[:k], k, gain)
    return ndcg(ranked_grades, ideal_dcg(ideal_grades, k, gain), k, gain)


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
