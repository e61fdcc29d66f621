"""Cross-profile agreement taxonomy over pairwise system comparisons.

For each profile a two-way (topic, system) ANOVA plus Tukey HSD decides
which system pairs differ significantly and in which direction. A pair
of profiles then classifies every system pair into one of six classes:

  AA  both significant, same winner      AD  both significant, opposite
  MA  one significant, same direction    MD  one significant, opposite
  PA  neither significant, same dir.     PD  neither, opposite

Counts are over the n*(n-1)/2 system pairs; `analyze` writes each
class's fraction as the float count / total_pairs, the correctly
rounded quotient.
"""

from __future__ import annotations

from typing import NamedTuple

from .anova import anova
from .matrix import EffectivenessMatrix
from .tukey import PairDiff, TukeyResult, tukey_hsd

AGREEMENT_CLASSES = ("AA", "AD", "MA", "MD", "PA", "PD")


def system_verdicts(
    matrix: EffectivenessMatrix, profile: str, alpha: float = 0.05
) -> tuple[dict[tuple[str, str], PairDiff], TukeyResult]:
    """Significance verdicts for every system pair under one profile."""
    sub = matrix.for_profile(profile)
    table = anova(sub, ("topic", "system"))
    means = sub.group_means("system")
    tukey = tukey_hsd(means, len(sub) // len(means), table.ms_error, table.df_error, alpha)
    verdicts = {(p.group_a, p.group_b): p for p in tukey.pairs}
    return verdicts, tukey


class ProfilePairAgreement(NamedTuple):
    profile_a: str
    profile_b: str
    counts: dict
    total_pairs: int


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _classify(va: PairDiff, vb: PairDiff) -> str:
    # Equal means under either profile count as the same direction.
    same_direction = _sign(va.diff) * _sign(vb.diff) >= 0
    if va.significant and vb.significant:
        return "AA" if same_direction else "AD"
    if va.significant or vb.significant:
        return "MA" if same_direction else "MD"
    return "PA" if same_direction else "PD"


def agreement_from_verdicts(
    profile_a: str,
    profile_b: str,
    verdicts_a: dict,
    verdicts_b: dict,
) -> ProfilePairAgreement:
    """Classify system pairs from precomputed per-profile verdicts.

    Lets a sweep over many profile pairs run each profile's ANOVA and
    Tukey test once instead of once per pairing.
    """
    if set(verdicts_a) != set(verdicts_b):
        raise ValueError("profiles cover different system sets")
    if not verdicts_a:
        raise ValueError("need at least two systems")
    counts = {cls: 0 for cls in AGREEMENT_CLASSES}
    for pair in verdicts_a:
        counts[_classify(verdicts_a[pair], verdicts_b[pair])] += 1
    return ProfilePairAgreement(profile_a, profile_b, counts, len(verdicts_a))
