"""The analysis statistics of a mid-sized matrix, pinned to the bit.

The matrix has the mid workspace's shape (10 topics, 5 systems, 19
profiles, 3 variants) and its cells arrive in sorted key order, as
`cli._read_matrix` reads them from ndcg.csv. Every float the analysis
writes out is pinned by `float.hex`: the three-way ANOVA rows, each
profile's Tukey system means and HSD, and each marginal mean with its
interval. A change to how any of them is summed shows up here.
"""

import hashlib
import random

from qvbench.evalstats.agreement import system_verdicts
from qvbench.evalstats.anova import anova, marginal_means
from qvbench.evalstats.matrix import EffectivenessMatrix

FACTORS = ("topic", "system", "profile")


def mid_shape_scores():
    """(topic, system, profile, index, value) in sorted key order, with
    topic, system and profile effects so that some Tukey pairs differ."""
    rng = random.Random("mid-shape-bits")
    topic_effect = [rng.uniform(-0.15, 0.15) for _ in range(10)]
    profile_effect = [rng.uniform(-0.05, 0.05) for _ in range(19)]
    return [
        (
            f"t{t:02d}",
            f"s{s}",
            f"p{p:02d}",
            i,
            min(max(0.3 + 0.04 * s + topic_effect[t] + profile_effect[p]
                    + rng.uniform(-0.2, 0.2), 0.0), 1.0),
        )
        for t in range(10)
        for s in range(5)
        for p in range(19)
        for i in (1, 2, 3)
    ]


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (source, ss, df, ms, f, p, omega_sq_partial) of every anova.csv row.
ANOVA_ROWS = [
    ("topic", "0x1.7ab797fec5046p+4", 9, "0x1.50a331c60475bp+1", "0x1.81a6b0eab3997p+7",
     "0x1.081236f0680c1p-862", "0x1.824c363a353d6p-2"),
    ("system", "0x1.2bf397b3993e5p+3", 4, "0x1.2bf397b3993e5p+1", "0x1.579fb172bc085p+7",
     "0x1.c95d2e68869bep-416", "0x1.8c090f49015dep-3"),
    ("profile", "0x1.a736561b80896p+1", 18, "0x1.78304c8a395dbp-3", "0x1.aef5fcf19ca09p+3",
     "0x1.32b23fea910cfp-126", "0x1.2afc4ec64f3eap-4"),
    ("topic*system", "0x1.c420222162383p-2", 36, "0x1.91e3ac8f73c03p-7", "0x1.cc674e2a9fd2fp-1",
     "0x1.484f5a846c8a1p-1", "-0x1.4e1e5ff21fe65p-10"),
    ("topic*profile", "0x1.4379be88379fep+1", 162, "0x1.ff2bd7c1222c1p-7", "0x1.24cc5ee0cf20ep+0",
     "0x1.cbf5f22e5fe63p-4", "0x1.0991260243fd6p-7"),
    ("system*profile", "0x1.9b0a4c2200f74p-1", 72, "0x1.6d5e7c9000dbcp-7", "0x1.a290e5aee102fp-1",
     "0x1.ba3850708dd6ap-1", "-0x1.2f89103292035p-8"),
    ("topic*system*profile", "0x1.02714f9d6ce81p+3", 648, "0x1.9867351eb26b9p-7",
     "0x1.d3dda0bd33aa0p-1", "0x1.d5160fb14589cp-1", "-0x1.4787eba8447e2p-6"),
    ("error", "0x1.9ea175c4c2fdcp+4", 1900, "0x1.beeda1f94697bp-7", None, None, None),
    ("total", "0x1.287295ba85eacp+6", 2849, "0x1.aa33b30d6bfa4p-6", None, None, None),
]

# sha256 of one line per profile: "<profile> <system>=<mean hex>... hsd=<hex>".
TUKEY_DIGEST = "9ca702728dac513814dbb171e9763639c8d4d277ef66280175d153f4e7b5f4b5"
# sha256 of one line per profile: "<profile> <mean hex> <ci_low hex> <ci_high hex>".
MEANS_DIGEST = "7ed1da33794bd43d8fa683c94dc78ae07ef6a3e7412aacafee9682f2a778ab55"


def mid_shape_results(scores=None):
    matrix = EffectivenessMatrix.from_scores(scores or mid_shape_scores())
    table = anova(matrix, FACTORS)
    rows = [tuple(_hex(v) for v in row) for row in table.all_rows()]
    tukey_lines = []
    for profile in sorted({key[2] for key, _ in matrix.items()}):
        _, tukey = system_verdicts(matrix, profile)
        means = " ".join(f"{s}={m.hex()}" for s, m in sorted(tukey.means.items()))
        tukey_lines.append(f"{profile} {means} hsd={tukey.hsd.hex()}")
    means_lines = [
        f"{mm.level} {mm.mean.hex()} {mm.ci_low.hex()} {mm.ci_high.hex()}"
        for mm in marginal_means(matrix, table)
    ]
    return rows, tukey_lines, means_lines


def test_anova_rows_keep_their_bits():
    rows, _, _ = mid_shape_results()
    assert rows == ANOVA_ROWS


def test_tukey_means_and_hsd_keep_their_bits():
    _, tukey_lines, _ = mid_shape_results()
    assert _digest(tukey_lines) == TUKEY_DIGEST, "\n".join(tukey_lines)


def test_marginal_means_keep_their_bits():
    _, _, means_lines = mid_shape_results()
    assert _digest(means_lines) == MEANS_DIGEST, "\n".join(means_lines)


def test_insertion_order_moves_no_bit():
    """Each mean sums its cells in level order, not in insertion order."""
    scores = mid_shape_scores()
    random.Random(7).shuffle(scores)
    assert mid_shape_results(scores) == mid_shape_results()
