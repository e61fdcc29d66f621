"""Balanced ANOVA against textbook sums-of-squares oracles."""

import math
import random
import types

import mpmath
import pytest

from qvbench.evalstats.anova import (
    AnovaRow,
    AnovaTable,
    EffectivenessMatrix,
    anova,
    marginal_means,
    omega_squared_partial,
)
from qvbench.evalstats.special import t_quantile

mpmath.mp.dps = 30


def test_submodule_import_binds_the_module():
    import qvbench.evalstats.anova as module

    assert isinstance(module, types.ModuleType)
    assert module.anova is anova


def mp_f_sf(f, d1, d2):
    return float(mpmath.betainc(d2 / 2, d1 / 2, 0, d2 / (d2 + d1 * f), regularized=True))


def nested_mean(values):
    flat = list(values)
    return sum(flat) / len(flat)


def oracle_two_way(cells):
    """cells[i][j] = list of replicates. Plain-loop textbook formulas."""
    la, lb = len(cells), len(cells[0])
    r = len(cells[0][0])
    n = la * lb * r
    flat = [v for row in cells for cell in row for v in cell]
    g = sum(flat) / n
    a_means = [nested_mean(v for cell in cells[i] for v in cell) for i in range(la)]
    b_means = [nested_mean(v for i in range(la) for v in cells[i][j]) for j in range(lb)]
    cell_means = [[nested_mean(cells[i][j]) for j in range(lb)] for i in range(la)]
    ss_a = lb * r * sum((m - g) ** 2 for m in a_means)
    ss_b = la * r * sum((m - g) ** 2 for m in b_means)
    ss_ab = r * sum(
        (cell_means[i][j] - a_means[i] - b_means[j] + g) ** 2
        for i in range(la)
        for j in range(lb)
    )
    ss_within = sum(
        (v - cell_means[i][j]) ** 2
        for i in range(la)
        for j in range(lb)
        for v in cells[i][j]
    )
    ss_total = sum((v - g) ** 2 for v in flat)
    if r > 1:
        error_ss, error_df = ss_within, la * lb * (r - 1)
        rows = {
            "topic": (ss_a, la - 1),
            "system": (ss_b, lb - 1),
            "topic*system": (ss_ab, (la - 1) * (lb - 1)),
        }
    else:
        error_ss, error_df = ss_ab, (la - 1) * (lb - 1)
        rows = {"topic": (ss_a, la - 1), "system": (ss_b, lb - 1)}
    return rows, (error_ss, error_df), ss_total, n


def oracle_three_way(cells):
    """cells[i][j][k] = list of replicates; requires r >= 2."""
    la, lb, lc = len(cells), len(cells[0]), len(cells[0][0])
    r = len(cells[0][0][0])
    n = la * lb * lc * r
    flat = [v for x in cells for y in x for z in y for v in z]
    g = sum(flat) / n

    def mean_where(ai=None, bj=None, ck=None):
        vals = [
            v
            for i in range(la)
            for j in range(lb)
            for k in range(lc)
            for v in cells[i][j][k]
            if (ai is None or i == ai) and (bj is None or j == bj) and (ck is None or k == ck)
        ]
        return sum(vals) / len(vals)

    a = [mean_where(ai=i) for i in range(la)]
    b = [mean_where(bj=j) for j in range(lb)]
    c = [mean_where(ck=k) for k in range(lc)]
    ab = [[mean_where(ai=i, bj=j) for j in range(lb)] for i in range(la)]
    ac = [[mean_where(ai=i, ck=k) for k in range(lc)] for i in range(la)]
    bc = [[mean_where(bj=j, ck=k) for k in range(lc)] for j in range(lb)]
    abc = [
        [[nested_mean(cells[i][j][k]) for k in range(lc)] for j in range(lb)]
        for i in range(la)
    ]
    ss_a = lb * lc * r * sum((m - g) ** 2 for m in a)
    ss_b = la * lc * r * sum((m - g) ** 2 for m in b)
    ss_c = la * lb * r * sum((m - g) ** 2 for m in c)
    ss_ab = lc * r * sum(
        (ab[i][j] - a[i] - b[j] + g) ** 2 for i in range(la) for j in range(lb)
    )
    ss_ac = lb * r * sum(
        (ac[i][k] - a[i] - c[k] + g) ** 2 for i in range(la) for k in range(lc)
    )
    ss_bc = la * r * sum(
        (bc[j][k] - b[j] - c[k] + g) ** 2 for j in range(lb) for k in range(lc)
    )
    ss_abc = r * sum(
        (
            abc[i][j][k]
            - ab[i][j]
            - ac[i][k]
            - bc[j][k]
            + a[i]
            + b[j]
            + c[k]
            - g
        )
        ** 2
        for i in range(la)
        for j in range(lb)
        for k in range(lc)
    )
    ss_error = sum(
        (v - abc[i][j][k]) ** 2
        for i in range(la)
        for j in range(lb)
        for k in range(lc)
        for v in cells[i][j][k]
    )
    ss_total = sum((v - g) ** 2 for v in flat)
    rows = {
        "topic": (ss_a, la - 1),
        "system": (ss_b, lb - 1),
        "profile": (ss_c, lc - 1),
        "topic*system": (ss_ab, (la - 1) * (lb - 1)),
        "topic*profile": (ss_ac, (la - 1) * (lc - 1)),
        "system*profile": (ss_bc, (lb - 1) * (lc - 1)),
        "topic*system*profile": (ss_abc, (la - 1) * (lb - 1) * (lc - 1)),
    }
    return rows, (ss_error, la * lb * lc * (r - 1)), ss_total, n


def matrix_from_two_way(cells, profile="p"):
    return EffectivenessMatrix.from_scores(
        (f"t{i}", f"s{j}", profile, rep, v)
        for i, row in enumerate(cells)
        for j, cell in enumerate(row)
        for rep, v in enumerate(cell, start=1)
    )


def source_row(table, source):
    """The row of one model source (not error or total) in an AnovaTable."""
    return {row.source: row for row in table.rows}[source]


def matrix_from_three_way(cells):
    return EffectivenessMatrix.from_scores(
        (f"t{i}", f"s{j}", f"p{k}", rep, v)
        for i, x in enumerate(cells)
        for j, y in enumerate(x)
        for k, cell in enumerate(y)
        for rep, v in enumerate(cell, start=1)
    )


def test_two_way_hand_fixture():
    cells = [[[0.10, 0.20], [0.30, 0.40]], [[0.50, 0.60], [0.70, 0.80]]]
    table = anova(matrix_from_two_way(cells), ("topic", "system"))
    assert source_row(table, "topic").ss == pytest.approx(0.32, abs=1e-12)
    assert source_row(table, "system").ss == pytest.approx(0.08, abs=1e-12)
    assert source_row(table, "topic*system").ss == pytest.approx(0.0, abs=1e-12)
    assert table.error.ss == pytest.approx(0.02, abs=1e-12)
    assert table.error.df == 4
    assert source_row(table, "topic").f == pytest.approx(64.0, abs=1e-9)
    assert source_row(table, "topic").p == pytest.approx(mp_f_sf(64.0, 1, 4), abs=1e-10)


def test_two_way_randomized_oracle():
    rng = random.Random(53)
    for _ in range(25):
        la, lb = rng.randint(2, 4), rng.randint(2, 4)
        r = rng.randint(1, 3)
        cells = [
            [[round(rng.random(), 6) for _ in range(r)] for _ in range(lb)]
            for _ in range(la)
        ]
        rows, (err_ss, err_df), ss_total, n = oracle_two_way(cells)
        table = anova(matrix_from_two_way(cells), ("topic", "system"))
        for source, (ss, df) in rows.items():
            row = source_row(table, source)
            assert row.ss == pytest.approx(ss, abs=1e-9)
            assert row.df == df
            want_f = (ss / df) / (err_ss / err_df)
            assert row.f == pytest.approx(want_f, abs=1e-6)
            assert row.p == pytest.approx(mp_f_sf(want_f, df, err_df), abs=1e-9)
            want_omega = (ss - df * (err_ss / err_df)) / (ss + (n - df) * (err_ss / err_df))
            assert row.omega_sq_partial == pytest.approx(want_omega, abs=1e-9)
        assert table.error.ss == pytest.approx(err_ss, abs=1e-9)
        assert table.error.df == err_df
        assert table.total.ss == pytest.approx(ss_total, abs=1e-9)


def test_three_way_randomized_oracle():
    rng = random.Random(59)
    for _ in range(10):
        la, lb, lc = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)
        r = rng.randint(2, 3)
        cells = [
            [
                [[round(rng.random(), 6) for _ in range(r)] for _ in range(lc)]
                for _ in range(lb)
            ]
            for _ in range(la)
        ]
        rows, (err_ss, err_df), ss_total, n = oracle_three_way(cells)
        table = anova(matrix_from_three_way(cells), ("topic", "system", "profile"))
        for source, (ss, df) in rows.items():
            row = source_row(table, source)
            assert row.ss == pytest.approx(ss, abs=1e-9)
            assert row.df == df
        assert table.error.ss == pytest.approx(err_ss, abs=1e-9)
        assert table.error.df == err_df
        assert table.total.ss == pytest.approx(ss_total, abs=1e-9)


def test_three_way_single_replicate_pools_top_interaction():
    rng = random.Random(61)
    cells = [
        [[[round(rng.random(), 6)] for _ in range(3)] for _ in range(2)]
        for _ in range(2)
    ]
    table = anova(matrix_from_three_way(cells), ("topic", "system", "profile"))
    sources = [row.source for row in table.rows]
    assert "topic*system*profile" not in sources
    assert table.error.df == (2 - 1) * (2 - 1) * (3 - 1)
    # Duplicating each observation leaves marginal means untouched and
    # scales every SS by 2, so the r=1 pooled error is half the doubled
    # data's three-way interaction SS.
    rows, _, _, _ = oracle_three_way([[[c * 2 for c in y] for y in x] for x in cells])
    top_ss, _ = rows["topic*system*profile"]
    assert table.error.ss == pytest.approx(top_ss / 2, abs=1e-9)


def test_ss_decomposition_sums_to_total():
    rng = random.Random(67)
    cells = [
        [[rng.random() for _ in range(3)] for _ in range(4)] for _ in range(3)
    ]
    table = anova(matrix_from_two_way(cells), ("topic", "system"))
    model = sum(row.ss for row in table.rows)
    assert model + table.error.ss == pytest.approx(
        table.total.ss, rel=1e-9, abs=1e-12
    )
    assert sum(row.df for row in table.rows) + table.error.df == table.total.df


def test_location_invariance():
    rng = random.Random(71)
    cells = [
        [[rng.random() * 0.8 for _ in range(2)] for _ in range(3)] for _ in range(3)
    ]
    shifted = [[[v + 0.17 for v in cell] for cell in row] for row in cells]
    base = anova(matrix_from_two_way(cells), ("topic", "system"))
    moved = anova(matrix_from_two_way(shifted), ("topic", "system"))
    for row_b, row_m in zip(base.rows, moved.rows):
        assert row_m.ss == pytest.approx(row_b.ss, rel=1e-9, abs=1e-12)
        assert row_m.f == pytest.approx(row_b.f, rel=1e-9)
        assert row_m.omega_sq_partial == pytest.approx(row_b.omega_sq_partial, rel=1e-9)
    assert moved.error.ss == pytest.approx(base.error.ss, rel=1e-9)
    assert moved.grand_mean == pytest.approx(base.grand_mean + 0.17, abs=1e-12)


def _c2_designs():
    """The first designs each c2 textbook-oracle test in test_acceptance.py
    draws, with the factors it analyses."""
    rng = random.Random(208)
    for _ in range(10):
        la, lb, r = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)
        cells = [
            [[round(rng.random(), 6) for _ in range(r)] for _ in range(lb)]
            for _ in range(la)
        ]
        yield matrix_from_two_way(cells), ("topic", "system")
    rng = random.Random(209)
    for _ in range(10):
        la, lb, lc = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)
        r = rng.randint(2, 3)
        cells = [
            [
                [[round(rng.random(), 6) for _ in range(r)] for _ in range(lc)]
                for _ in range(lb)
            ]
            for _ in range(la)
        ]
        yield matrix_from_three_way(cells), ("topic", "system", "profile")


def _remapped(matrix, value, relabel):
    """matrix with every cell value mapped, and with each factor's levels
    renamed so that they sort in reverse when relabel is set."""
    names = [sorted({key[axis] for key in matrix.keys}) for axis in range(3)]
    rename = [
        {name: f"x{len(levels) - k}" if relabel else name for k, name in enumerate(levels)}
        for levels in names
    ]
    return EffectivenessMatrix.from_scores(
        (rename[0][t], rename[1][s], rename[2][p], i, value(v))
        for (t, s, p, i), v in zip(matrix.keys, matrix.values)
    )


# (cell value before, cell value after, relabel levels): both matrices
# must give the same F and p. Every value stays inside [0, 1].
INVARIANCES = {
    "relabel": (lambda v: v, lambda v: v, True),
    "shift": (lambda v: 0.6 * v, lambda v: 0.6 * v + 0.3, False),
    "scale": (lambda v: v, lambda v: 0.7 * v, False),
}


@pytest.mark.parametrize("change", sorted(INVARIANCES))
def test_f_and_p_invariant_under_relabelling_shift_and_scale(change):
    before, after, relabel = INVARIANCES[change]
    for matrix, factors in _c2_designs():
        base = anova(_remapped(matrix, before, relabel=False), factors)
        moved = {row.source: row for row in anova(_remapped(matrix, after, relabel), factors).rows}
        assert sorted(moved) == sorted(row.source for row in base.rows)
        for row in base.rows:
            assert moved[row.source].df == row.df
            assert moved[row.source].f == pytest.approx(row.f, rel=1e-9)
            assert moved[row.source].p == pytest.approx(row.p, rel=1e-7, abs=1e-15)


def test_null_effect_zero_ss():
    # Both topics have identical means; all variation is system + noise.
    cells = [[[0.2, 0.4], [0.6, 0.8]], [[0.4, 0.2], [0.8, 0.6]]]
    table = anova(matrix_from_two_way(cells), ("topic", "system"))
    assert source_row(table, "topic").ss == pytest.approx(0.0, abs=1e-12)
    assert source_row(table, "topic").omega_sq_partial <= 0.0


def test_missing_cell_rejected():
    cells = [("t0", "s0", "p", 1, 0.5), ("t0", "s1", "p", 1, 0.5), ("t1", "s0", "p", 1, 0.5)]
    with pytest.raises(ValueError, match="missing cell"):
        EffectivenessMatrix.from_scores(cells)


def test_unbalanced_cell_rejected():
    cells = [
        (t, s, "p", i, v)
        for t in ("t0", "t1")
        for s in ("s0", "s1")
        for i, v in ((1, 0.5), (2, 0.6))
    ]
    cells.append(("t0", "s0", "p", 3, 0.7))
    with pytest.raises(ValueError, match="has 2 observations, others differ"):
        EffectivenessMatrix.from_scores(cells)


def test_single_level_factor_rejected():
    m = EffectivenessMatrix.from_scores(
        ("t0", s, "p", i, 0.5) for s in ("s0", "s1") for i in (1, 2)
    )
    with pytest.raises(ValueError, match="single level"):
        anova(m, ("topic", "system"))


def test_zero_error_df_rejected():
    m = EffectivenessMatrix.from_scores([("t0", "s0", "p", 1, 0.1), ("t1", "s0", "p", 1, 0.2)])
    with pytest.raises(ValueError, match="error degrees"):
        anova(m, ("topic",))


def test_omega_examples():
    assert omega_squared_partial(10, 2, 1, 20) == pytest.approx(8 / 28, abs=1e-12)
    assert omega_squared_partial(5.0, 5, 1.0, 30) == 0.0
    assert omega_squared_partial(3.0, 2, 0.0, 30) == 1.0
    with pytest.raises(ValueError):
        omega_squared_partial(0.0, 2, 0.0, 30)
    with pytest.raises(ValueError):
        omega_squared_partial(1.0, 5, 1.0, 4)


def test_marginal_means_constant_matrix():
    m = EffectivenessMatrix.from_scores(
        (t, s, p, i, 0.5) for t in ("t0", "t1") for s in ("s0", "s1") for p in ("p0", "p1")
        for i in (1, 2)
    )
    table = anova(m, ("topic", "system", "profile"))
    means = marginal_means(m, table)
    assert [mm.mean for mm in means] == [0.5, 0.5]
    for mm in means:
        assert mm.ci_low == pytest.approx(mm.mean, abs=1e-12)
        assert mm.ci_high == pytest.approx(mm.mean, abs=1e-12)


def test_marginal_means_t_intervals():
    # mean +- t(1 - alpha/2, df_error) * sqrt(MS_error / n), n = 9 cells
    # per profile, with the error term read from the table passed in.
    m = EffectivenessMatrix.from_scores(
        (t, s, p, 1, v) for t in ("t0", "t1", "t2") for s in ("s0", "s1", "s2")
        for p, v in (("a", 0.6), ("b", 0.4))
    )
    error = AnovaRow("error", 0.144, 16, 0.009, None, None, None)
    table = AnovaTable(rows=(), error=error, total=error, grand_mean=0.5)
    half = t_quantile(0.975, 16) * math.sqrt(0.009 / 9)
    means = {mm.level: mm for mm in marginal_means(m, table, alpha=0.05)}
    assert means["a"].ci_low == pytest.approx(0.6 - half, abs=1e-9)
    assert means["a"].ci_high == pytest.approx(0.6 + half, abs=1e-9)
    assert means["b"].ci_high - means["b"].ci_low == pytest.approx(2 * half, abs=1e-12)


def test_marginal_means_uniform_shift():
    rng = random.Random(79)
    base = {
        (t, s, i): round(rng.uniform(0.2, 0.6), 6)
        for t in ("t0", "t1", "t2")
        for s in ("s0", "s1")
        for i in (1, 2)
    }
    delta = 0.25
    m = EffectivenessMatrix.from_scores(
        (t, s, p, i, v + shift) for (t, s, i), v in base.items()
        for p, shift in (("plain", 0.0), ("boost", delta))
    )
    table = anova(m, ("topic", "system", "profile"))
    means = marginal_means(m, table)
    by_level = {mm.level: mm.mean for mm in means}
    assert by_level["boost"] - by_level["plain"] == pytest.approx(delta, abs=1e-12)


def test_matrix_validation():
    with pytest.raises(ValueError, match="duplicate"):
        EffectivenessMatrix.from_scores([("t", "s", "p", 1, 0.5), ("t", "s", "p", 1, 0.6)])
    with pytest.raises(ValueError, match="outside"):
        EffectivenessMatrix.from_scores([("t", "s", "p", 1, 0.5), ("t", "s", "p", 2, 1.5)])
    m = EffectivenessMatrix.from_scores([("t", "s", "p", 1, 0.5)])
    assert len(m.for_profile("p")) == 1
    with pytest.raises(ValueError, match="no cells for profile 'other'"):
        m.for_profile("other")
