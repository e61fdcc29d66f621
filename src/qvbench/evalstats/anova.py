"""Balanced fixed-effects N-way ANOVA over NDCG matrices.

The effectiveness matrix is indexed by (topic, system, profile, variant
index). Any subset of {topic, system, profile} can serve as factors;
whatever remains acts as replication. Designs must be complete and
balanced; with a single replicate the highest-order interaction is
pooled into the error term.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from operator import add
from typing import NamedTuple, Optional, Sequence

from .matrix import AXES, EffectivenessMatrix, offsets
from .special import f_sf, t_quantile

# Every sum below adds in the order numpy's reductions add, as the
# array code this module replaced did, so anova.csv and tukey_pairs.csv
# keep their recorded bytes. The order is fixed here, not by numpy's
# version, BLAS, or the compensated builtin sum of Python 3.12.


def _pairwise_sum(values: list, start: int, n: int) -> float:
    """Sum of values[start:start + n] in numpy's pairwise order (Higham,
    SIAM J. Sci. Comput. 1993): under 8 values a plain loop from 0.0; up
    to 128, eight strided accumulators combined as a tree, then the
    leftovers; above that, two halves split at a multiple of 8."""
    if n < 8:
        return reduce(add, values[start : start + n], 0.0)
    if n <= 128:
        end = start + n - n % 8
        r = [reduce(add, values[start + j : end : 8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end : start + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _projection(dims: Sequence[int], axes: Sequence[int], keep: Sequence[int]) -> list[int]:
    """For each cell over `axes` in C order, the C-order position of its
    projection onto `keep`, a subset of `axes`."""
    strides = {}
    stride = 1
    for a in reversed(keep):
        strides[a] = stride
        stride *= dims[a]
    return offsets([dims[a] for a in axes], [strides.get(a, 0) for a in axes])


def _mean_over(y: list, dims: Sequence[int], keep: tuple[int, ...]) -> list[float]:
    """Mean of the C-order values `y` of shape `dims` over every axis not
    in `keep`, as a C-order list over `keep`'s axes. The trailing block
    of reduced axes is one pairwise run; the outer indices add their run
    sums into each output cell in C order."""
    last = keep[-1] if keep else -1
    run = math.prod(dims[last + 1 :])
    cells = _projection(dims, range(last + 1), keep)
    sums = [0.0] * math.prod(dims[a] for a in keep)
    for outer, cell in enumerate(cells):
        sums[cell] += _pairwise_sum(y, outer * run, run)
    count = len(y) // len(sums)
    return [s / count for s in sums]


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
    y, dims = matrix.arranged([AXES.index(f) for f in names])
    n_total = len(y)
    r = dims[-1]
    m = len(names)
    for f, size in zip(names, dims):
        if size < 2:
            raise ValueError(f"factor {f!r} has a single level")

    means = {(): _mean_over(y, dims, ())}
    grand = means[()][0]
    model_subsets: list[tuple[int, ...]] = []
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            model_subsets.append(subset)
            means[subset] = _mean_over(y, dims, subset)

    if r == 1 and m > 1:
        model_subsets.pop()  # the top interaction, pooled into error

    ss: dict[tuple[int, ...], float] = {}
    df: dict[tuple[int, ...], int] = {}
    for subset in model_subsets:
        effect = [0.0] * math.prod(dims[a] for a in subset)
        for size in range(len(subset) + 1):
            for sub in combinations(subset, size):
                sign = (-1) ** (len(subset) - len(sub))
                mean = means[sub]
                effect = [
                    e + sign * mean[i] for e, i in zip(effect, _projection(dims, subset, sub))
                ]
        squares = [e * e for e in effect]
        ss[subset] = _pairwise_sum(squares, 0, len(squares)) * (n_total / len(squares))
        d = 1
        for a in subset:
            d *= dims[a] - 1
        df[subset] = d

    deviations = [(v - grand) * (v - grand) for v in y]
    ss_total = _pairwise_sum(deviations, 0, n_total)
    df_total = n_total - 1
    ss_model = reduce(add, ss.values(), 0.0)
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
    group_means = matrix.group_means("profile")
    se = math.sqrt(table.ms_error / (len(matrix) // len(group_means)))
    half = t_quantile(1.0 - alpha / 2.0, table.df_error) * se
    return [MarginalMean(lv, mean, mean - half, mean + half) for lv, mean in group_means.items()]
