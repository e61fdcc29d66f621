"""Cross-profile significance agreement classification."""

import random

import pytest

from qvbench.evalstats.agreement import (
    AGREEMENT_CLASSES,
    _classify,
    agreement_from_verdicts,
    system_verdicts,
)
from qvbench.evalstats.anova import EffectivenessMatrix
from qvbench.evalstats.tukey import PairDiff


def build_matrix(system_offsets_by_profile, topics=4, reps=3, noise=0.01, seed=5):
    """Per-profile system effects on a shared topic baseline."""
    rng = random.Random(seed)
    cells = []
    for profile, offsets in system_offsets_by_profile.items():
        for t in range(topics):
            base = 0.3 + 0.05 * t
            for system, offset in offsets.items():
                for i in range(1, reps + 1):
                    value = base + offset + rng.uniform(-noise, noise)
                    cells.append((f"t{t}", system, profile, i, min(max(value, 0.0), 1.0)))
    return EffectivenessMatrix.from_scores(cells)


def agreement(m, profile_a, profile_b):
    verdicts_a, _ = system_verdicts(m, profile_a)
    verdicts_b, _ = system_verdicts(m, profile_b)
    return agreement_from_verdicts(profile_a, profile_b, verdicts_a, verdicts_b)


def test_profile_against_itself():
    offsets = {"s1": 0.0, "s2": 0.2, "s3": 0.01}
    m = build_matrix({"alpha": offsets})
    result = agreement(m, "alpha", "alpha")
    assert result.counts["AD"] == 0
    assert result.counts["MD"] == 0
    assert result.counts["PD"] == 0
    assert result.counts["MA"] == 0
    assert sum(result.counts.values()) == result.total_pairs == 3


def test_active_agreement_counted():
    # Both profiles see s1 beating s2 by a wide margin.
    m = build_matrix(
        {
            "alpha": {"s1": 0.3, "s2": 0.0, "s3": 0.0},
            "beta": {"s1": 0.3, "s2": 0.0, "s3": 0.0},
        }
    )
    result = agreement(m, "alpha", "beta")
    verdicts_a, _ = system_verdicts(m, "alpha")
    assert verdicts_a[("s1", "s2")].significant
    assert result.counts["AA"] >= 1
    assert result.counts["AD"] == 0
    assert sum(result.counts.values()) == result.total_pairs == 3


def test_active_disagreement_counted():
    # Profiles see opposite significant winners for (s1, s2).
    m = build_matrix(
        {
            "alpha": {"s1": 0.35, "s2": 0.0},
            "beta": {"s1": 0.0, "s2": 0.35},
        }
    )
    result = agreement(m, "alpha", "beta")
    assert result.counts["AD"] == 1
    assert result.total_pairs == 1


def test_passive_agreement_on_noise():
    m = build_matrix(
        {
            "alpha": {"s1": 0.004, "s2": 0.0},
            "beta": {"s1": 0.003, "s2": 0.0},
        },
        noise=0.05,
        seed=11,
    )
    result = agreement(m, "alpha", "beta")
    assert result.counts["AA"] == 0
    assert result.counts["PA"] + result.counts["PD"] + result.counts["MA"] + result.counts[
        "MD"
    ] == result.total_pairs


def test_fractions_sum_exactly_one():
    rng = random.Random(13)
    for trial in range(5):
        offsets_a = {f"s{j}": rng.uniform(0, 0.3) for j in range(4)}
        offsets_b = {f"s{j}": rng.uniform(0, 0.3) for j in range(4)}
        m = build_matrix({"pa": offsets_a, "pb": offsets_b}, seed=trial)
        result = agreement(m, "pa", "pb")
        assert sorted(result.counts) == sorted(AGREEMENT_CLASSES)
        assert sum(result.counts.values()) == result.total_pairs == 6


def test_classification_rules_direct():
    sig_up = PairDiff("a", "b", 0.2, True)
    sig_down = PairDiff("a", "b", -0.2, True)
    flat_up = PairDiff("a", "b", 0.01, False)
    flat_down = PairDiff("a", "b", -0.01, False)
    zero = PairDiff("a", "b", 0.0, False)
    assert _classify(sig_up, sig_up) == "AA"
    assert _classify(sig_up, sig_down) == "AD"
    assert _classify(sig_up, flat_up) == "MA"
    assert _classify(sig_up, flat_down) == "MD"
    assert _classify(flat_up, flat_up) == "PA"
    assert _classify(flat_up, flat_down) == "PD"
    # Zero mean difference ties break toward agreement.
    assert _classify(zero, flat_down) == "PA"
    assert _classify(sig_up, zero) == "MA"


def test_mismatched_system_sets_rejected():
    # One matrix cannot hold them: its balance check names the gap.
    with pytest.raises(ValueError, match="missing cell"):
        build_matrix({"alpha": {"s1": 0.0, "s2": 0.1}, "beta": {"s1": 0.0, "s3": 0.1}})
    verdicts_a, _ = system_verdicts(build_matrix({"alpha": {"s1": 0.0, "s2": 0.1}}), "alpha")
    verdicts_b, _ = system_verdicts(build_matrix({"beta": {"s1": 0.0, "s3": 0.1}}), "beta")
    with pytest.raises(ValueError, match="different system sets"):
        agreement_from_verdicts("alpha", "beta", verdicts_a, verdicts_b)
