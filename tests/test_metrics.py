"""NDCG and Kendall tau against brute-force oracles."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvbench.evalstats.metrics import ideal_dcg, kendall_tau, ndcg, ndcg_at_k


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
    summed in the same order, whether the pool comes whole, as its top
    k, or as the ideal DCG that `evaluate` computes once per topic."""
    want = ndcg_sorting_the_whole_pool(ranked, pool, k, gain)
    assert ndcg_at_k(ranked, pool, k, gain) == want
    assert ndcg_at_k(ranked, sorted(pool, reverse=True)[:k], k, gain) == want
    assert ndcg_at_k(tuple(ranked), iter(pool), k, gain) == want
    assert ndcg(ranked, ideal_dcg(iter(pool), k, gain), k, gain) == want


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ndcg_at_k([5], [4]), "grade 5 outside 0..3"),  # the ranked grade first
        (lambda: ndcg_at_k([1], [4]), "grade 4 outside 0..3"),
        (lambda: ndcg_at_k([5], [4], k=0), "k=0 must be >= 1"),
        (lambda: ndcg_at_k([5], [4], gain="log"), "unknown gain 'log'"),
        (lambda: ideal_dcg([4, 3], k=1), "grade 4 outside 0..3"),
        (lambda: ideal_dcg([3, 4], k=0), "k=0 must be >= 1"),
        (lambda: ndcg([5], 1.0), "grade 5 outside 0..3"),
        (lambda: ndcg([5], 0.0), "grade 5 outside 0..3"),  # checked even when the ideal is 0
        (lambda: ndcg([1], 1.0, gain="log"), "unknown gain 'log'"),
    ],
)
def test_ndcg_checks_name_the_first_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_ideal_dcg_reads_only_the_top_k():
    # as in ndcg_at_k, a grade below the k best, or ranked below k, is not looked at
    assert ideal_dcg([0, 3, -1, 2], k=2) == ideal_dcg([3, 2], k=2)
    assert ndcg([0, 2, 3, 9], ideal_dcg([3, 2], k=3), k=3) == ndcg_at_k([0, 2, 3], [3, 2], k=3)


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

