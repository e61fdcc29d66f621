"""Balanced fixed-effects N-way ANOVA over NDCG matrices.

The effectiveness matrix is indexed by (topic, system, profile, variant
index). Any subset of {topic, system, profile} can serve as factors;
whatever remains acts as replication. Designs must be complete and
balanced; with a single replicate the highest-order interaction is
pooled into the error term.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .matrix import AXES, EffectivenessMatrix
from .special import f_sf, t_quantile


def _dense(matrix: EffectivenessMatrix, factors: Sequence[str]):
    """Dense (levels..., replicates) array of a balanced design."""
    levels, buckets = matrix.balanced_cells(factors)
    positions = [{lv: i for i, lv in enumerate(level)} for level in levels]
    r = len(next(iter(buckets.values())))
    array = np.empty([len(level) for level in levels] + [r], dtype=float)
    for combo, values in buckets.items():
        idx = tuple(positions[i][combo[i]] for i in range(len(combo)))
        array[idx] = [v for _, v in values]
    return array, dict(zip(factors, levels))


class AnovaRow(NamedTuple):
    source: str
    ss: float
    df: int
    ms: float
    f: Optional[float]
    p: Optional[float]
    omega_sq_partial: Optional[float]


class AnovaTable(NamedTuple):
    rows: tuple
    error: AnovaRow
    total: AnovaRow
    grand_mean: float

    @property
    def ms_error(self) -> float:
        return self.error.ms

    @property
    def df_error(self) -> int:
        return self.error.df

    def all_rows(self) -> list[AnovaRow]:
        return list(self.rows) + [self.error, self.total]


def _normalize_factors(factors: Sequence[str]) -> list[str]:
    for f in factors:
        if f not in AXES:
            raise ValueError(f"unknown factor {f!r}")
    ordered = [f for f in AXES if f in factors]
    if not ordered:
        raise ValueError("need at least one factor")
    return ordered


def anova(matrix: EffectivenessMatrix, factors: Sequence[str]) -> AnovaTable:
    """Balanced fixed-effects decomposition, every interaction included,
    with F and partial omega squared.

    With replication the error term is the within-cell variation; with a
    single replicate the highest-order interaction is pooled into error.
    """
    names = _normalize_factors(factors)
    y, levels = _dense(matrix, names)
    n_total = y.size
    r = y.shape[-1]
    m = len(names)
    sizes = [len(levels[f]) for f in names]
    for f, size in zip(names, sizes):
        if size < 2:
            raise ValueError(f"factor {f!r} has a single level")
    grand = float(y.mean())
    rep_axis = m

    def marginal(subset: tuple[int, ...]) -> np.ndarray:
        drop = tuple(a for a in range(m) if a not in subset) + (rep_axis,)
        return y.mean(axis=drop, keepdims=True)

    means = {(): np.full([1] * (m + 1), grand)}
    model_subsets: list[tuple[int, ...]] = []
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            model_subsets.append(subset)
            means[subset] = marginal(subset)

    if r == 1 and m > 1:
        model_subsets.pop()  # the top interaction, pooled into error

    ss: dict[tuple[int, ...], float] = {}
    df: dict[tuple[int, ...], int] = {}
    for subset in model_subsets:
        effect = np.zeros([1] * (m + 1))
        for size in range(len(subset) + 1):
            for sub in combinations(subset, size):
                sign = (-1) ** (len(subset) - len(sub))
                effect = effect + sign * means[sub]
        ss[subset] = float((effect**2).sum()) * (n_total / effect.size)
        d = 1
        for a in subset:
            d *= sizes[a] - 1
        df[subset] = d

    ss_total = float(((y - grand) ** 2).sum())
    df_total = n_total - 1
    ss_model = sum(ss.values())
    df_model = sum(df.values())
    ss_error = max(ss_total - ss_model, 0.0)
    df_error = df_total - df_model
    if df_error < 1:
        raise ValueError(
            "zero error degrees of freedom: add replication"
        )
    ms_error = ss_error / df_error

    rows = []
    for subset in model_subsets:
        source = "*".join(names[a] for a in subset)
        ss_s, df_s = ss[subset], df[subset]
        ms_s = ss_s / df_s
        if ms_error > 0:
            f_stat = ms_s / ms_error
            p = f_sf(f_stat, df_s, df_error)
        elif ss_s > 0:
            f_stat, p = math.inf, 0.0
        else:
            f_stat, p = 0.0, 1.0
        if ss_s == 0.0 and ms_error == 0.0:
            omega = 0.0
        else:
            omega = omega_squared_partial(ss_s, df_s, ms_error, n_total)
        rows.append(AnovaRow(source, ss_s, df_s, ms_s, f_stat, p, omega))

    error_row = AnovaRow("error", ss_error, df_error, ms_error, None, None, None)
    total_row = AnovaRow("total", ss_total, df_total, ss_total / df_total, None, None, None)
    return AnovaTable(
        rows=tuple(rows),
        error=error_row,
        total=total_row,
        grand_mean=grand,
    )


def omega_squared_partial(ss_effect: float, df_effect: int, ms_error: float, n: int) -> float:
    """Partial omega squared: (SS - df*MSe) / (SS + (N - df)*MSe)."""
    if n <= df_effect:
        raise ValueError("n must exceed df_effect")
    if ms_error < 0:
        raise ValueError("ms_error must be >= 0")
    if ms_error == 0.0:
        if ss_effect > 0.0:
            return 1.0
        raise ValueError("degenerate: no effect and no error variance")
    denom = ss_effect + (n - df_effect) * ms_error
    if denom <= 0.0:
        raise ValueError("degenerate denominator in partial omega squared")
    return (ss_effect - df_effect * ms_error) / denom


def classify_omega(omega: float) -> str:
    """Effect-size bands: large >= 0.14, small <= 0.06, medium between."""
    if omega >= 0.14:
        return "large"
    if omega <= 0.06:
        return "small"
    return "medium"


class MarginalMean(NamedTuple):
    level: str
    mean: float
    ci_low: float
    ci_high: float


def marginal_means(
    matrix: EffectivenessMatrix, table: AnovaTable, alpha: float = 0.05
) -> list[MarginalMean]:
    """Per-profile means with t-based intervals from `table`:
    mean +- t(1-alpha/2, df_error) * sqrt(MS_error/n).

    `table` is the ANOVA of `matrix` that the intervals take their error
    term from; the pipeline passes the (topic, system, profile) table it
    writes to anova.csv.
    """
    levels = matrix.profiles
    if not levels:
        raise ValueError("matrix has no profile levels")
    group_means, counts = matrix.group_means("profile")
    n_per_group = counts[levels[0]]
    if any(c != n_per_group for c in counts.values()):
        raise ValueError(f"unbalanced profile groups: {counts}")
    se = math.sqrt(table.ms_error / n_per_group)
    half = t_quantile(1.0 - alpha / 2.0, table.df_error) * se
    return [
        MarginalMean(lv, group_means[lv], group_means[lv] - half, group_means[lv] + half)
        for lv in levels
    ]
