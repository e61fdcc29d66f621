"""The pure-Python ANOVA sums and Gauss-Legendre rule against numpy.

numpy is a test-only oracle here. `anova` adds in the order numpy's
reductions add, so the array code it replaced, kept below, must give
the same bits for every sum of squares and the grand mean.
"""

import random
from itertools import combinations

import pytest

np = pytest.importorskip("numpy")

from qvbench.evalstats import tukey  # noqa: E402
from qvbench.evalstats.anova import anova  # noqa: E402
from qvbench.evalstats.matrix import EffectivenessMatrix  # noqa: E402


def numpy_sums(matrix, names):
    """grand mean, {source: SS} and SS total, as the numpy ANOVA had them.

    The array is built from the matrix's (key, value) cells: a factor
    combination's replicates in the order of the other key fields."""
    axes = [("topic", "system", "profile").index(name) for name in names]
    buckets = {}
    for key, value in matrix.items():
        combo = tuple(key[a] for a in axes)
        rep_key = tuple(v for a, v in enumerate(key) if a not in axes)
        buckets.setdefault(combo, []).append((rep_key, value))
    levels = [sorted({combo[i] for combo in buckets}) for i in range(len(axes))]
    positions = [{lv: i for i, lv in enumerate(level)} for level in levels]
    r = len(next(iter(buckets.values())))
    y = np.empty([len(level) for level in levels] + [r], dtype=float)
    for combo, values in buckets.items():
        idx = tuple(positions[i][combo[i]] for i in range(len(combo)))
        y[idx] = [v for _, v in sorted(values)]
    n_total = y.size
    m = len(names)
    grand = float(y.mean())
    means = {(): np.full([1] * (m + 1), grand)}
    subsets = []
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            subsets.append(subset)
            drop = tuple(a for a in range(m) if a not in subset) + (m,)
            means[subset] = y.mean(axis=drop, keepdims=True)
    if r == 1 and m > 1:
        subsets.pop()
    ss = {}
    for subset in subsets:
        effect = np.zeros([1] * (m + 1))
        for size in range(len(subset) + 1):
            for sub in combinations(subset, size):
                sign = (-1) ** (len(subset) - len(sub))
                effect = effect + sign * means[sub]
        source = "*".join(names[a] for a in subset)
        ss[source] = float((effect**2).sum()) * (n_total / effect.size)
    return grand, ss, float(((y - grand) ** 2).sum())


def random_matrix(rng, shape):
    """A balanced matrix: (topics, systems, profiles, replicates), or
    (topics, systems, replicates) under one profile."""
    if len(shape) == 3:
        shape = (shape[0], shape[1], 1, shape[2])
    n_topics, n_systems, n_profiles, r = shape
    return EffectivenessMatrix.from_scores(
        (f"t{t:02d}", f"s{s:02d}", f"p{p:02d}", i, rng.random())
        for t in range(n_topics)
        for s in range(n_systems)
        for p in range(n_profiles)
        for i in range(1, r + 1)
    )


# The toy and mid pipelines' three-way shapes and per-profile two-way
# shapes, two more three-way shapes, and single-replicate designs whose
# top interaction is pooled into error.
SHAPES = {
    (5, 5, 19, 3): ("topic", "system", "profile"),
    (10, 5, 19, 3): ("topic", "system", "profile"),
    (6, 7, 3, 2): ("topic", "system", "profile"),
    (10, 5, 6, 3): ("topic", "system", "profile"),
    (5, 5, 3): ("topic", "system"),
    (10, 5, 3): ("topic", "system"),
    (3, 4, 5, 1): ("topic", "system", "profile"),
    (5, 5, 19, 1): ("topic", "system", "profile"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_anova_sums_keep_numpy_bits(shape):
    names = SHAPES[shape]
    rng = random.Random(f"anova-bits-{shape}")
    for _ in range(5):
        matrix = random_matrix(rng, shape)
        grand, ss, ss_total = numpy_sums(matrix, names)
        table = anova(matrix, names)
        assert table.grand_mean.hex() == grand.hex()
        assert {row.source: row.ss.hex() for row in table.rows} == {
            source: value.hex() for source, value in ss.items()
        }
        assert table.total.ss.hex() == ss_total.hex()


@pytest.mark.parametrize("n", [200, 240])
def test_leggauss_matches_numpy(n):
    """Nodes within 1e-15 of numpy's. numpy's weights are themselves off
    by up to 5.4e-15 (test_tukey checks these against mpmath), so the
    weights are held to 1e-14."""
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    nodes, weights = tukey._leggauss(n)
    assert np.max(np.abs(np.array(nodes) - want_nodes)) <= 1e-15
    assert np.max(np.abs(np.array(weights) - want_weights)) <= 1e-14
