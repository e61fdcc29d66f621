"""Release gate: numbered end-to-end guarantees the toolkit must keep.

Each criterion gets its own test name prefix (c1..c7); the terminal
summary hook in conftest.py prints one verdict line per criterion.
"""

import hashlib
import math
import os
import random
import time
from pathlib import Path

import pytest

from test_anova import (
    matrix_from_three_way,
    matrix_from_two_way,
    mp_f_sf,
    oracle_three_way,
    oracle_two_way,
    source_row,
)
from test_judge import oracle_alpha_ordinal
from test_metrics import (
    oracle_ndcg_bruteforce,
    oracle_p_normal,
    oracle_tau_b,
    oracle_u_pair_count,
)

from qvbench.cli import STAGES, main
from qvbench.core import parse_qrels
from qvbench.evalstats.agreement import system_verdicts
from qvbench.evalstats.anova import EffectivenessMatrix, anova
from qvbench.evalstats.metrics import kendall_tau, mann_whitney_u, ndcg_at_k
from qvbench.evalstats.special import t_quantile
from qvbench.evalstats.tukey import studentized_range_quantile
from qvbench.genkit import MockProvider, generate_sweep, load_profiles
from qvbench.judge import agreement_report, cohen_kappa, krippendorff_alpha, mae, paired_grades
from qvbench.textkit import jaccard, stemmed_set
from qvbench.toydata import toy_topics, write_toy_workspace
from qvbench.validate import load_dictionary, spell_correct, validate_misspelling, validate_order

# ------------------------------------------------------------ criterion 1


def test_c1_variant_counts_over_full_topic_pool():
    started = time.monotonic()
    topics = toy_topics(53)
    profiles = load_profiles()
    variants = generate_sweep(MockProvider(seed_material="c1"), topics, profiles)
    by_method = {}
    method_of = {p.profile_id: p.method for p in profiles}
    for v in variants:
        m = method_of[v.profile_id]
        by_method[m] = by_method.get(m, 0) + 1
    assert by_method == {
        "persona": 954,
        "group": 1272,
        "textual": 636,
        "neutral": 159,
    }
    assert time.monotonic() - started < 60.0


# ------------------------------------------------------------ criterion 2

WORD_POOL = (
    "asthma symptoms children coffee beans puppy flights bangkok knee pain "
    "running flowers spring grammar battery range dinner recipes brakes guide "
    "solar panels piano bread museum coral reef laptop cough mortgage marathon"
).split()


def _random_text(rng, lo=2, hi=6):
    return " ".join(rng.choice(WORD_POOL) for _ in range(rng.randint(lo, hi)))


def test_c2_jaccard_matches_set_oracle():
    rng = random.Random(201)
    for _ in range(60):
        a, b = _random_text(rng), _random_text(rng)
        sa, sb = stemmed_set(a), stemmed_set(b)
        expected = len(sa & sb) / len(sa | sb)
        assert jaccard(a, b) == pytest.approx(expected, abs=1e-9)


def test_c2_tau_matches_tie_group_oracle():
    rng = random.Random(202)
    done = 0
    while done < 60:
        n = rng.randint(3, 9)
        a = {f"s{i}": rng.randint(1, 5) for i in range(n)}
        b = {f"s{i}": rng.randint(1, 5) for i in range(n)}
        if len(set(a.values())) < 2 or len(set(b.values())) < 2:
            continue
        done += 1
        assert kendall_tau(a, b) == pytest.approx(oracle_tau_b(a, b), abs=1e-9)


def test_c2_kappa_matches_contingency_oracle():
    rng = random.Random(203)
    done = 0
    while done < 60:
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(5, 40))]
        n = len(pairs)
        marg_a, marg_b, agree = {}, {}, 0
        for a, b in pairs:
            marg_a[a] = marg_a.get(a, 0) + 1
            marg_b[b] = marg_b.get(b, 0) + 1
            agree += a == b
        p_o = agree / n
        p_e = sum(marg_a.get(c, 0) * marg_b.get(c, 0) for c in range(4)) / (n * n)
        if p_e == 1.0:
            continue
        done += 1
        expected = (p_o - p_e) / (1 - p_e)
        assert cohen_kappa(pairs, binary=False) == pytest.approx(expected, abs=1e-9)


def test_c2_ordinal_alpha_matches_definitional_oracle():
    rng = random.Random(204)
    done = 0
    while done < 60:
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(3, 25))]
        if len({v for p in pairs for v in p}) < 2:
            continue
        done += 1
        assert krippendorff_alpha(pairs) == pytest.approx(
            oracle_alpha_ordinal(pairs), abs=1e-9
        )


def test_c2_mae_matches_mean_oracle():
    rng = random.Random(205)
    for _ in range(60):
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(1, 30))]
        expected = sum(abs(a - b) for a, b in pairs) / len(pairs)
        assert mae(pairs) == pytest.approx(expected, abs=1e-9)
        expected_bin = sum(
            abs((a >= 2) - (b >= 2)) for a, b in pairs
        ) / len(pairs)
        assert mae(pairs, binary=True) == pytest.approx(expected_bin, abs=1e-9)


def test_c2_ndcg_matches_permutation_oracle():
    rng = random.Random(206)
    for _ in range(60):
        pool = [rng.randrange(4) for _ in range(rng.randint(1, 6))]
        ranked = [rng.choice(pool) for _ in range(rng.randint(1, len(pool)))]
        k = rng.randint(1, 6)
        gain = rng.choice(("linear", "exp"))
        assert ndcg_at_k(ranked, pool, k=k, gain=gain) == pytest.approx(
            oracle_ndcg_bruteforce(ranked, pool, k, gain), abs=1e-9
        )


def test_c2_mann_whitney_matches_oracles():
    rng = random.Random(207)
    done = 0
    while done < 60:
        a = [rng.randint(0, 6) for _ in range(rng.randint(2, 10))]
        b = [rng.randint(0, 6) for _ in range(rng.randint(2, 10))]
        if len(set(a) | set(b)) < 2:
            continue
        done += 1
        result = mann_whitney_u(a, b)
        assert result.u == pytest.approx(oracle_u_pair_count(a, b), abs=1e-9)
        assert result.p == pytest.approx(oracle_p_normal(a, b), abs=1e-6)


def test_c2_two_way_anova_matches_textbook_oracle():
    rng = random.Random(208)
    for _ in range(50):
        la, lb, r = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)
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
            assert row.p == pytest.approx(mp_f_sf(want_f, df, err_df), abs=1e-6)
        assert table.error.ss == pytest.approx(err_ss, abs=1e-9)
        assert table.total.ss == pytest.approx(ss_total, abs=1e-9)


def test_c2_three_way_anova_matches_textbook_oracle():
    rng = random.Random(209)
    for _ in range(50):
        la, lb, lc = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)
        r = rng.randint(2, 3)
        cells = [
            [
                [[round(rng.random(), 6) for _ in range(r)] for _ in range(lc)]
                for _ in range(lb)
            ]
            for _ in range(la)
        ]
        rows, (err_ss, err_df), ss_total, _ = oracle_three_way(cells)
        table = anova(matrix_from_three_way(cells), ("topic", "system", "profile"))
        for source, (ss, df) in rows.items():
            row = source_row(table, source)
            assert row.ss == pytest.approx(ss, abs=1e-9)
            assert row.df == df
        assert table.error.ss == pytest.approx(err_ss, abs=1e-9)
        assert table.error.df == err_df
        assert table.total.ss == pytest.approx(ss_total, abs=1e-9)


# ------------------------------------------------------------ criterion 3


def test_c3_quantiles_match_published_tables():
    # three-decimal studentized range tables, alpha = 0.05
    for (k, df), expected in {
        (3, 10): 3.877,
        (5, 20): 4.232,
        (10, 60): 4.646,
    }.items():
        assert studentized_range_quantile(0.95, k, df) == pytest.approx(expected, abs=1e-3)


def test_c3_two_group_case_reduces_to_t():
    for df in (5, 10, 30, 60):
        expected = math.sqrt(2.0) * t_quantile(0.975, df)
        assert studentized_range_quantile(0.95, 2, df) == pytest.approx(expected, abs=1e-6)


# ------------------------------------------------------------ criterion 4


def test_c4_order_validator_properties():
    rng = random.Random(401)
    checked = 0
    while checked < 1000:
        tokens = [rng.choice(WORD_POOL) for _ in range(rng.randint(2, 8))]
        if len(set(tokens)) < 2:
            continue
        checked += 1
        seed = " ".join(tokens)
        assert not validate_order(seed, seed)

        permuted = tokens[:]
        while permuted == tokens:
            rng.shuffle(permuted)
        assert validate_order(seed, " ".join(permuted))


def _single_typos(word, rng):
    candidates = []
    for i in range(len(word)):
        candidates.append(word[:i] + word[i + 1 :])
        candidates.append(word[:i] + word[i] * 2 + word[i + 1 :])
        if i + 1 < len(word) and word[i] != word[i + 1]:
            candidates.append(word[:i] + word[i + 1] + word[i] + word[i + 2 :])
    rng.shuffle(candidates)
    return candidates


def test_c4_misspelling_validator_properties():
    rng = random.Random(402)
    dictionary = load_dictionary()
    topics = toy_topics(53)
    accepted = 0
    rejected_clean = 0
    while accepted < 1000:
        topic = rng.choice(topics)
        seed = topic.seed_query
        tokens = seed.split()

        # clean variant: every token still in the dictionary
        assert not validate_misspelling(seed, " ".join(reversed(tokens)), dictionary)
        rejected_clean += 1

        eligible = [
            (i, t) for i, t in enumerate(tokens) if len(t) >= 4 and t in dictionary
        ]
        i, word = rng.choice(eligible)
        for typo in _single_typos(word, rng):
            if typo not in dictionary and spell_correct(typo, dictionary) == word:
                corrupted = tokens[:]
                corrupted[i] = typo
                assert validate_misspelling(seed, " ".join(corrupted), dictionary)
                accepted += 1
                break
    assert rejected_clean >= 1000


# ------------------------------------------------------------ criterion 5


def _run_pipeline(root) -> tuple:
    config_path = write_toy_workspace(root)
    started = time.monotonic()
    for command in STAGES:
        code = main([command, "--config", str(config_path)])
        assert code == 0, command
    return config_path.parent / "out", time.monotonic() - started


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_c5_toy_pipeline_byte_reproducible(tmp_path):
    out_a, elapsed_a = _run_pipeline(tmp_path / "a")
    out_b, elapsed_b = _run_pipeline(tmp_path / "b")
    assert elapsed_a < 60.0 and elapsed_b < 60.0

    tree_a, tree_b = _tree_bytes(out_a), _tree_bytes(out_b)
    assert sorted(tree_a) == sorted(tree_b)
    mismatched = [name for name in tree_a if tree_a[name] != tree_b[name]]
    assert mismatched == []

    # Pinned so a change in how inputs are read, BM25 scores are summed,
    # means are summed or artifacts are written shows up (run files hold
    # the repr of every score, the analysis tables the repr of every
    # statistic); none of these goes through numpy, so BLAS cannot move
    # them.
    pinned = {
        "index_stats.json": "824c5bb43cc6a67f3f45f9af99f0fa4909cd9300fb6e31b8d5502f43d4737e4a",
        "runs/bm25_k09_b04.run": "8a53d4b987548321ad506333ec2768a8c6edd327d9e4449bba416ed158b3bb97",
        "runs/bm25_k12_b075.run": "f498a94693defa4877e4148aca94511a4ad44c6a079a4b6badc9119c0b20f2a4",
        "runs/bm25_k20_b075.run": "47f0711bc8a485077a90b66da145f205923625cd185ea3763d3d9944b2073c7e",
        "ndcg.csv": "6e3d5c6118e5ed6e27fa3700cb34d34e74bb2c8cc3d9064c61949e3d53189968",
        "tau_matrix.csv": "488588301ca48b0539f2b6d7c0762d95f8ee1dce182256c500630a5e1785a1fa",
        "system_rankings.svg": "b14c29bf9c7cc5e279820bc4c55156722585f5c57881ef1e9150c4e73f51b797",
        "verdicts.csv": "f02f2db2a4a5143f5cd5df0975827c908d8c9544021941a6af2bfd00a3746067",
        "features.csv": "3e03e44dd3fc51c05c7b0bfa48ccdc45a0f4c41553318b25699ee24de87c1d4b",
        "coverage.csv": "f7ee097463d48e7cff1437e352b2912c501275ba869d1e41c3a328ae318da10f",
        "variants.jsonl": "ea6da43feea4e4c4fa761c7a5d4b2548440cf6be801c817d5e1d2267edd7c06e",
        "backstories.jsonl": "8fe528613ace0d51b684cbf0ae7b8c89b779b8b8b7c8b3651adade7d8c8f7b8a",
        "llm_qrels.txt": "9c2c752898b6081c9a4a425980e118f54e949e69629a986a7cef5ecd80fb090d",
        "llm_raw.jsonl": "8ed6312be1531145493fa11b1a1b6d50497cc4f64772f686683f2f0fbd96bc8a",
        "merged_qrels.txt": "de75d3b43737848dec5fc02eca69a07ee3ab70f860815549fb225752aff1acd3",
        "genlog.jsonl": "8b152775fc2e8c1cda34cfb104b24a58916fe49ce4b4c933f7f23d1bf57375cb",
        "anova.csv": "7b5837242b03fe282bd0566f761fd9470c7573f2a5a6d28acb87e5719c20c56e",
        "agreement.csv": "4e1ff5b2a5d96627dd450ecdf9466bc2f32c9290b9899449ff0fafa7e1c7884b",
        "marginal_means.csv": "f4b38bf1c4cd278ad9c90d9f90a74e69a621dd27e5711ccb29abf0de29368485",
        "tukey_pairs.csv": "3e15b44d451a6a48197d9a3574b94c09e1a2c7291f27ad89f03f2297760b026a",
        "marginal_means.svg": "856afb22c0663b576446ee5a9dd9274f680798f027f71716098b8e35d9aba957",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256(tree_a[name]).hexdigest() == digest, name

    import csv

    with open(out_a / "tau_matrix.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0][1:]
    for row in rows[1:]:
        diag = dict(zip(header, row[1:]))[row[0]]
        assert float(diag) == 1.0

    from fractions import Fraction

    with open(out_a / "agreement.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            total = int(row["total_pairs"])
            counts = [int(row[cls]) for cls in ("AA", "AD", "MA", "MD", "PA", "PD")]
            assert sum(Fraction(c, total) for c in counts) == 1


# ------------------------------------------------------------ criterion 6


def _random_matrix(seed, shift=0.0) -> EffectivenessMatrix:
    cells = []
    for t in range(4):
        for s in range(3):
            for p in range(3):
                for i in (1, 2):
                    cell_rng = random.Random(f"{seed}|{t}|{s}|{p}|{i}")
                    cells.append((f"t{t}", f"s{s}", f"p{p}", i, cell_rng.random() * 0.5 + shift))
    return EffectivenessMatrix.from_scores(cells)


def test_c6_location_shift_leaves_analysis_unchanged():
    base = _random_matrix(601)
    shifted = _random_matrix(601, shift=0.25)

    table_a = anova(base, ("topic", "system", "profile"))
    table_b = anova(shifted, ("topic", "system", "profile"))
    for row_a, row_b in zip(table_a.rows, table_b.rows):
        assert row_a.source == row_b.source
        assert row_a.df == row_b.df
        assert row_b.f == pytest.approx(row_a.f, abs=1e-9)
        assert row_b.omega_sq_partial == pytest.approx(row_a.omega_sq_partial, abs=1e-9)

    def rankings(matrix, profile):
        sums, counts = {}, {}
        for (t, s, p, i), v in matrix.items():
            if p == profile:
                sums[s] = sums.get(s, 0.0) + v
                counts[s] = counts.get(s, 0) + 1
        return {s: sums[s] / counts[s] for s in sums}

    for pa in ("p0", "p1", "p2"):
        for pb in ("p0", "p1", "p2"):
            if pa == pb:
                continue
            tau_a = kendall_tau(rankings(base, pa), rankings(base, pb))
            tau_b = kendall_tau(rankings(shifted, pa), rankings(shifted, pb))
            assert tau_b == pytest.approx(tau_a, abs=1e-9)

        verdicts_a, _ = system_verdicts(base, pa)
        verdicts_b, _ = system_verdicts(shifted, pa)
        assert set(verdicts_a) == set(verdicts_b)
        for pair in verdicts_a:
            assert verdicts_a[pair].significant == verdicts_b[pair].significant


def test_c6_ndcg_depends_only_on_result_ordering():
    rng = random.Random(602)
    grades = {f"p{i}": rng.randrange(4) for i in range(12)}
    pool = sorted(grades.values(), reverse=True)
    order = sorted(grades, key=lambda pid: (-grades[pid], pid))
    rng.shuffle(order)

    def scored(transform):
        ranked = [(pid, transform(len(order) - i)) for i, pid in enumerate(order)]
        ranked.sort(key=lambda pair: -pair[1])
        return [grades[pid] for pid, _ in ranked]

    baseline = ndcg_at_k(scored(lambda s: float(s)), pool, k=10)
    for transform in (lambda s: 5.0 * s + 2.0, lambda s: s**3, lambda s: math.exp(s / 3)):
        assert ndcg_at_k(scored(transform), pool, k=10) == baseline


# ------------------------------------------------------------ criterion 7

RELEASED_DATA_ENV = "QVBENCH_RELEASED_DATA"

EXPECTED_AGREEMENT = {
    "dl21": {"mae_binary": 0.25, "kappa_binary": 0.50, "mae_graded": 0.69, "alpha_graded": 0.58},
    "dl22": {"mae_binary": 0.20, "kappa_binary": 0.46, "mae_graded": 0.55, "alpha_graded": 0.62},
}


def test_c7_released_data_agreement_figures():
    """Recompute human-vs-LLM agreement figures from released label data.

    Expects $QVBENCH_RELEASED_DATA to hold dl21/ and dl22/ directories,
    each with human_qrels.txt and llm_qrels.txt in TREC qrels format.
    """
    root = os.environ.get(RELEASED_DATA_ENV)
    if not root:
        pytest.skip(f"{RELEASED_DATA_ENV} not set; released-data check skipped")
    root = Path(root)
    for track, expected in EXPECTED_AGREEMENT.items():
        human = parse_qrels(root / track / "human_qrels.txt")
        llm = parse_qrels(root / track / "llm_qrels.txt")
        pairs = paired_grades(human, llm)
        report = agreement_report(pairs)
        for field, want in expected.items():
            got = getattr(report, field)
            assert got == pytest.approx(want, abs=0.01), (track, field, got)
