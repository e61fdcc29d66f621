"""NDCG, Kendall tau, and Mann-Whitney U against brute-force oracles."""

import itertools
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvbench.evalstats.metrics import kendall_tau, mann_whitney_u, ndcg_at_k

mpmath.mp.dps = 30


def oracle_dcg(grades, k, gain):
    total = 0.0
    for rank, g in enumerate(grades[:k], start=1):
        value = float(g) if gain == "linear" else float(2**g - 1)
        total += value / (math.log(rank + 1) / math.log(2))
    return total


def oracle_ndcg_bruteforce(ranked, pool, k, gain="linear"):
    """Ideal DCG by trying every permutation of the judgment pool."""
    best = 0.0
    for perm in itertools.permutations(pool):
        best = max(best, oracle_dcg(list(perm), k, gain))
    if best == 0.0:
        return 0.0
    return oracle_dcg(ranked, k, gain) / best


def test_ndcg_ideal_order_is_one():
    assert ndcg_at_k([3, 2, 1, 0], [3, 2, 1, 0], k=4) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.integers(0, 3), min_size=1, max_size=12).filter(any),
    k=st.integers(1, 15),
    gain=st.sampled_from(("linear", "exp")),
    rnd=st.randoms(use_true_random=False),
)
def test_ndcg_of_the_ideal_ordering_is_exactly_one(pool, k, gain, rnd):
    judged = pool.copy()
    rnd.shuffle(judged)
    assert ndcg_at_k(sorted(pool, reverse=True), judged, k=k, gain=gain) == 1.0


def test_ndcg_all_zero_grades():
    assert ndcg_at_k([0, 0, 0], [0, 0, 0], k=3) == 0.0


def test_ndcg_hand_example():
    got = ndcg_at_k([3, 0, 2], [3, 2, 0], k=3)
    assert got == pytest.approx(0.9386, abs=1e-4)
    idcg = 3.0 + 2.0 / math.log2(3.0)
    assert got == pytest.approx(4.0 / idcg, abs=1e-12)


def test_ndcg_exponential_gain():
    got = ndcg_at_k([3, 0, 2], [3, 2, 0], k=3, gain="exp")
    idcg = 7.0 + 3.0 / math.log2(3.0)
    assert got == pytest.approx((7.0 + 3.0 / 2.0) / idcg, abs=1e-12)


def test_ndcg_k_beyond_length():
    assert ndcg_at_k([2], [2], k=10) == 1.0


def test_ndcg_rejects_bad_grades():
    with pytest.raises(ValueError):
        ndcg_at_k([5], [3], k=1)
    with pytest.raises(ValueError):
        ndcg_at_k([1], [1], k=0)


def test_ndcg_matches_permutation_oracle():
    rng = random.Random(17)
    for _ in range(60):
        pool = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
        ranked = pool.copy()
        rng.shuffle(ranked)
        ranked = ranked[: rng.randint(1, len(ranked))]
        k = rng.randint(1, 6)
        gain = rng.choice(["linear", "exp"])
        want = oracle_ndcg_bruteforce(ranked, pool, k, gain)
        assert ndcg_at_k(ranked, pool, k, gain) == pytest.approx(want, abs=1e-9)


def _gain_per_call(grade, gain):
    if gain == "linear":
        return float(grade)
    if gain == "exp":
        return float(2**grade - 1)
    raise ValueError(f"unknown gain {gain!r}")


def _dcg_per_call(grades, k, gain):
    total = 0.0
    for rank, grade in enumerate(grades[:k], start=1):
        total += _gain_per_call(grade, gain) / math.log2(rank + 1)
    return total


def ndcg_sorting_the_whole_pool(ranked_grades, ideal_grades, k=10, gain="linear"):
    """`ndcg_at_k` as it was before its gain table, kept as its oracle:
    the whole pool sorted per call, each gain computed per rank."""
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    ideal = sorted(ideal_grades, reverse=True)
    for grade in list(ranked_grades[:k]) + ideal[:k]:
        if grade not in (0, 1, 2, 3):
            raise ValueError(f"grade {grade!r} outside 0..3")
    idcg = _dcg_per_call(ideal, k, gain)
    if idcg == 0.0:
        return 0.0
    return _dcg_per_call(ranked_grades, k, gain) / idcg


_POOLS = st.one_of(
    st.just([]),
    st.lists(st.just(0), min_size=1, max_size=20),
    st.lists(st.integers(0, 3), max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(
    ranked=st.lists(st.integers(0, 3), max_size=20),
    pool=_POOLS,
    k=st.integers(1, 12),
    gain=st.sampled_from(("linear", "exp")),
)
def test_ndcg_equals_the_whole_pool_oracle_bit_for_bit(ranked, pool, k, gain):
    """Exactly equal, not approximately: the same gains and discounts
    summed in the same order, whether the pool comes whole or as the
    top k that `evaluate` passes."""
    want = ndcg_sorting_the_whole_pool(ranked, pool, k, gain)
    assert ndcg_at_k(ranked, pool, k, gain) == want
    assert ndcg_at_k(ranked, sorted(pool, reverse=True)[:k], k, gain) == want
    assert ndcg_at_k(tuple(ranked), iter(pool), k, gain) == want


@pytest.mark.parametrize("ranked", [[], [2]])
def test_ndcg_unknown_gain_rejected_with_an_empty_pool(ranked):
    with pytest.raises(ValueError, match="unknown gain 'bogus'"):
        ndcg_at_k(ranked, [], gain="bogus")


@pytest.mark.parametrize("depth", [99, 100, 101, 150])
def test_ndcg_at_deep_cuts_matches_the_oracle(depth):
    """Cuts far past the usual k = 10 match the per-rank oracle too."""
    ranked = [3] + [0] * (depth - 2) + [2]
    pool = [3, 2] + [0] * depth
    want = ndcg_sorting_the_whole_pool(ranked, pool, depth)
    assert want < 1.0
    assert ndcg_at_k(ranked, pool, depth) == want
    assert ndcg_at_k(ranked + [1], pool, depth + 1) == ndcg_sorting_the_whole_pool(
        ranked + [1], pool, depth + 1
    )


def oracle_tau_b(a, b):
    """Tie-group route: (C-D)/sqrt((n0-n1)(n0-n2))."""
    keys = sorted(a)
    n = len(keys)
    n0 = n * (n - 1) // 2
    c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[keys[i]] - a[keys[j]]
            db = b[keys[i]] - b[keys[j]]
            if da != 0 and db != 0:
                if da * db > 0:
                    c += 1
                else:
                    d += 1

    def tie_pairs(values):
        groups = {}
        for v in values:
            groups[v] = groups.get(v, 0) + 1
        return sum(t * (t - 1) // 2 for t in groups.values())

    n1 = tie_pairs(a.values())
    n2 = tie_pairs(b.values())
    return (c - d) / math.sqrt((n0 - n1) * (n0 - n2))


def test_tau_identical_rankings():
    ranking = {f"s{i}": i + 1 for i in range(15)}
    assert kendall_tau(ranking, dict(ranking)) == 1.0


def test_tau_reversed_rankings():
    a = {f"s{i}": i + 1 for i in range(15)}
    b = {f"s{i}": 15 - i for i in range(15)}
    assert kendall_tau(a, b) == -1.0


def test_tau_hand_example():
    a = {"w": 1, "x": 2, "y": 3, "z": 4}
    b = {"w": 1, "x": 3, "y": 2, "z": 4}
    assert kendall_tau(a, b) == pytest.approx(4 / 6, abs=1e-12)


def test_tau_mismatched_keys():
    with pytest.raises(ValueError):
        kendall_tau({"a": 1, "b": 2}, {"a": 1, "c": 2})


def test_tau_matches_tie_group_oracle():
    rng = random.Random(23)
    done = 0
    while done < 60:
        n = rng.randint(3, 12)
        a = {f"s{i}": rng.randint(1, 6) for i in range(n)}
        b = {f"s{i}": rng.randint(1, 6) for i in range(n)}
        if len(set(a.values())) < 2 or len(set(b.values())) < 2:
            continue
        assert kendall_tau(a, b) == pytest.approx(oracle_tau_b(a, b), abs=1e-12)
        done += 1


def test_tau_symmetric():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(3, 10)
        a = {f"s{i}": rng.random() for i in range(n)}
        b = {f"s{i}": rng.random() for i in range(n)}
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-15)


def test_tau_a_variant():
    # One tie in b: 5 concordant pairs of 6. Tau-a would divide by all
    # pairs (5/6); kendall_tau is tau-b, which discounts the tie.
    a = {"w": 1, "x": 2, "y": 3, "z": 4}
    b = {"w": 1, "x": 2, "y": 2, "z": 3}
    tau_b = kendall_tau(a, b)
    assert tau_b == pytest.approx(5 / math.sqrt(6 * 5), abs=1e-12)
    assert tau_b > 5 / 6


def test_tau_fully_tied_ranking_errors():
    with pytest.raises(ValueError):
        kendall_tau({"a": 1, "b": 1}, {"a": 1, "b": 2})


def oracle_u_pair_count(a, b):
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def oracle_p_normal(a, b):
    """Independent reimplementation of the approximate two-sided p."""
    values = sorted(set(a) | set(b))
    pooled = list(a) + list(b)
    n1, n2, n = len(a), len(b), len(a) + len(b)
    rank_of = {}
    offset = 0
    for v in values:
        count = pooled.count(v)
        rank_of[v] = offset + (count + 1) / 2
        offset += count
    r1 = sum(rank_of[x] for x in a)
    u = r1 - n1 * (n1 + 1) / 2
    ties = sum(pooled.count(v) ** 3 - pooled.count(v) for v in values)
    var = n1 * n2 / 12 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = max(abs(u - n1 * n2 / 2) - 0.5, 0.0) / math.sqrt(var)
    return min(1.0, float(2 * (1 - (0.5 * (1 + mpmath.erf(z / mpmath.sqrt(2)))))))


def test_mwu_identical_samples():
    result = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert result.u == 4.5
    assert result.p == 1.0
    assert not result.significant


def test_mwu_domination():
    result = mann_whitney_u([4, 5, 6], [1, 2, 3])
    assert result.u == 9.0
    assert result.p < 0.1


def test_mwu_large_separation_significant():
    a = [10 + i for i in range(10)]
    b = [i for i in range(10)]
    result = mann_whitney_u(a, b)
    assert result.u == 100.0
    assert result.significant


def test_mwu_fixture_u_matches_enumeration():
    # U itself is exact; with all 20 equally likely rank splits,
    # P(U <= 0) = 1/20, so the exact two-sided p would be 0.1 while the
    # contracted approximation gives ~0.081.
    result = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert result.u == oracle_u_pair_count([1, 2, 3], [4, 5, 6]) == 0.0
    assert result.p == pytest.approx(oracle_p_normal([1, 2, 3], [4, 5, 6]), abs=1e-12)
    assert result.p == pytest.approx(0.0809, abs=1e-4)


def test_mwu_constant_data_p_one():
    result = mann_whitney_u([2, 2], [2, 2, 2])
    assert result.p == 1.0
    assert not result.significant


def test_mwu_empty_sample_errors():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


def test_mwu_matches_oracles_randomized():
    rng = random.Random(31)
    for _ in range(60):
        n1 = rng.randint(1, 9)
        n2 = rng.randint(1, 9)
        a = [rng.randint(0, 5) / 2 for _ in range(n1)]
        b = [rng.randint(0, 5) / 2 for _ in range(n2)]
        result = mann_whitney_u(a, b)
        assert result.u == pytest.approx(oracle_u_pair_count(a, b), abs=1e-9)
        assert result.p == pytest.approx(oracle_p_normal(a, b), abs=1e-9)
