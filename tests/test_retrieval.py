"""Inverted index and BM25 against a brute-force formula oracle."""

import math
import random

import pytest

import qvbench.retrieval as retrieval
from qvbench.core import Passage, parse_trec_run, write_trec_run
from qvbench.retrieval import (
    Bm25Params,
    build_index,
    index_tokens,
    run_queries,
    search,
)
from qvbench.textkit import porter_stem, tokenize

CORPUS = [
    Passage("p1", "Travel budgets for Bangkok trips and hotels"),
    Passage("p2", "Bangkok street food is cheap; budget meals everywhere"),
    Passage("p3", "Dog breeds that are good with children"),
]


def oracle_bm25(passages, query_text, passage_id, k1, b):
    docs = {
        p.passage_id: [porter_stem(t) for t in tokenize(p.text)] for p in passages
    }
    n = len(docs)
    avg = sum(len(d) for d in docs.values()) / n
    score = 0.0
    for term in [porter_stem(t) for t in tokenize(query_text)]:
        tf = docs[passage_id].count(term)
        if tf == 0:
            continue
        df = sum(1 for d in docs.values() if term in d)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * tf * (k1 + 1) / (
            tf + k1 * (1 - b + b * len(docs[passage_id]) / avg)
        )
    return score


def test_index_statistics():
    index = build_index(CORPUS)
    assert index.doc_count == 3
    assert len(index.postings[porter_stem("bangkok")]) == 2
    assert len(index.postings[porter_stem("dog")]) == 1
    assert index.avg_doc_length == pytest.approx(
        sum(len(index_tokens(p.text)) for p in CORPUS) / 3
    )
    for term, plist in index.postings.items():
        for pid, tf in plist:
            assert pid in index.doc_lengths
            assert tf >= 1


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_index([])


def test_duplicate_passage_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_index([CORPUS[0], CORPUS[0]])


def test_index_order_independent():
    shuffled = CORPUS.copy()
    random.Random(3).shuffle(shuffled)
    a = build_index(CORPUS)
    b = build_index(shuffled)
    assert a.postings == b.postings
    assert a.doc_lengths == b.doc_lengths
    assert a.avg_doc_length == b.avg_doc_length


def all_scores(index, params, passages, query):
    """Every passage's search score; a passage not retrieved scores 0."""
    hits = dict(search(index, params, query, k=len(passages)))
    return {p.passage_id: hits.get(p.passage_id, 0.0) for p in passages}


def assert_matches_oracle(passages, params, query):
    hits = dict(search(build_index(passages), params, query, k=len(passages)))
    for p in passages:
        want = oracle_bm25(passages, query, p.passage_id, params.k1, params.b)
        if p.passage_id in hits:
            assert hits[p.passage_id] == pytest.approx(want, abs=1e-12), (query, p.passage_id)
        else:
            assert want == 0.0, (query, p.passage_id)


def test_score_zero_without_matches():
    index = build_index(CORPUS)
    params = Bm25Params()
    assert search(index, params, "quantum физика", k=len(CORPUS)) == []
    assert all_scores(index, params, CORPUS, "dog")["p1"] == 0.0


def test_score_positive_on_single_doc():
    index = build_index([CORPUS[0]])
    [(pid, score)] = search(index, Bm25Params(), CORPUS[0].text, k=1)
    assert pid == "p1"
    assert score > 0.0


def test_scores_match_oracle_on_toy_corpus():
    params = Bm25Params()
    queries = [
        "cheap budget Bangkok",
        "dog breeds for children",
        "bangkok bangkok",
        "good travel food",
    ]
    for q in queries:
        assert_matches_oracle(CORPUS, params, q)


def test_scores_match_oracle_randomized():
    rng = random.Random(37)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    for trial in range(20):
        passages = [
            Passage(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(3, 12))))
            for i in range(rng.randint(2, 6))
        ]
        params = Bm25Params(k1=rng.uniform(0.3, 2.0), b=rng.uniform(0.0, 1.0))
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        assert_matches_oracle(passages, params, query)


def test_score_monotone_in_tf():
    # Same length, same df universe; only tf of "alpha" varies.
    passages = [
        Passage("d1", "alpha beta gamma delta"),
        Passage("d2", "alpha alpha gamma delta"),
        Passage("d3", "epsilon zeta eta theta"),
    ]
    index = build_index(passages)
    scores = all_scores(index, Bm25Params(), passages, "alpha")
    assert scores["d2"] > scores["d1"] > 0
    assert scores["d3"] == 0.0


def test_idf_nonnegative_even_for_ubiquitous_terms():
    passages = [Passage(f"d{i}", "common word") for i in range(5)]
    index = build_index(passages)
    hits = search(index, Bm25Params(), "common", k=len(passages))
    assert len(hits) == len(passages)
    assert all(score > 0.0 for _, score in hits)


def test_search_ranks_exact_duplicate_first():
    index = build_index(CORPUS)
    hits = search(index, Bm25Params(), CORPUS[1].text, k=3)
    assert hits[0][0] == "p2"


def test_search_k_larger_than_corpus():
    index = build_index(CORPUS)
    hits = search(index, Bm25Params(), "bangkok budget dog", k=50)
    assert len(hits) == 3


def test_search_no_hits():
    index = build_index(CORPUS)
    assert search(index, Bm25Params(), "nothing matches here") == []


def test_search_tie_broken_by_passage_id():
    passages = [Passage("pB", "same text here"), Passage("pA", "same text here")]
    index = build_index(passages)
    hits = search(index, Bm25Params(), "same text", k=2)
    assert [pid for pid, _ in hits] == ["pA", "pB"]
    assert hits[0][1] == hits[1][1]


def test_search_more_ties_than_k_keeps_lowest_passage_ids():
    passages = [Passage(f"p{i:02d}", "same text here") for i in range(30)]
    passages.append(Passage("z9", "same same text"))
    random.Random(5).shuffle(passages)
    index = build_index(passages)
    hits = search(index, Bm25Params(), "same text", k=6)
    assert [pid for pid, _ in hits] == ["z9", "p00", "p01", "p02", "p03", "p04"]
    assert len({score for _, score in hits[1:]}) == 1
    assert hits == search(index, Bm25Params(), "same text", k=len(passages))[:6]


def test_one_index_serves_several_params():
    index = build_index(CORPUS)
    settings = [Bm25Params(), Bm25Params(k1=1.2, b=0.75), Bm25Params(k1=0.4, b=0.0)]
    queries = ["cheap budget bangkok food", "bangkok dog", "food food budget"]
    fresh = [
        [search(build_index(CORPUS), params, query, k=3) for query in queries]
        for params in settings
    ]
    # each params' cached term weights are read back after the others'
    for _ in range(2):
        assert [
            [search(index, params, query, k=3) for query in queries] for params in settings
        ] == fresh
        assert [
            [search(index, params, query, k=3) for params in settings] for query in queries
        ] == [list(hits) for hits in zip(*fresh)]


def test_search_descending_scores():
    index = build_index(CORPUS)
    hits = search(index, Bm25Params(), "cheap bangkok budget food", k=3)
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_bm25_params_validation():
    with pytest.raises(ValueError):
        Bm25Params(k1=0.0)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)
    defaults = Bm25Params()
    assert defaults.k1 == 0.9
    assert defaults.b == 0.4


def test_run_queries_records(tmp_path):
    index = build_index(CORPUS)
    run = run_queries(index, Bm25Params(), {"q1": "bangkok"}, "sysX", k=2)
    assert list(run) == [("sysX", "q1")]
    assert len(run["sysX", "q1"]) == 2

    queries = {"q2": "dog breeds", "q1": "bangkok budget"}
    run = run_queries(index, Bm25Params(), queries, "bm25-default", k=10)
    assert list(run) == [("bm25-default", "q1"), ("bm25-default", "q2")]
    path = tmp_path / "run.txt"
    write_trec_run(run, path)
    parsed = parse_trec_run(path)
    assert parsed == run
    assert parsed["bm25-default", "q1"] == search(index, Bm25Params(), queries["q1"], k=10)


DUPLICATE_TEXT_QUERIES = {
    "q3": "bangkok budget",
    "q1": "bangkok budget",
    "q2": "dog breeds",
    "q4": "bangkok budget",
    "q5": "Bangkok budget",
    "q6": "dog breeds",
}


def test_run_queries_with_duplicate_texts_matches_one_search_per_id():
    index = build_index(CORPUS)
    params = Bm25Params()
    fresh = build_index(CORPUS)
    want = {
        ("sysX", query_id): search(fresh, params, DUPLICATE_TEXT_QUERIES[query_id], k=2)
        for query_id in sorted(DUPLICATE_TEXT_QUERIES)
    }
    run = run_queries(index, params, DUPLICATE_TEXT_QUERIES, "sysX", k=2)
    assert run == want
    assert list(run) == list(want)
    # query ids of one text share one hits list; ids of different texts do not
    assert run["sysX", "q1"] is run["sysX", "q3"] is run["sysX", "q4"]
    assert run["sysX", "q2"] is run["sysX", "q6"]
    assert run["sysX", "q5"] is not run["sysX", "q1"]


def test_run_queries_searches_each_distinct_text_once(monkeypatch):
    texts = []

    def counting_search(index, params, query, k):
        texts.append(query)
        return search(index, params, query, k)

    monkeypatch.setattr(retrieval, "search", counting_search)
    run_queries(build_index(CORPUS), Bm25Params(), DUPLICATE_TEXT_QUERIES, "sysX", k=2)
    assert sorted(texts) == sorted(set(DUPLICATE_TEXT_QUERIES.values()))


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(k):
    index = build_index(CORPUS)
    with pytest.raises(ValueError, match="must be >= 1"):
        search(index, Bm25Params(), "bangkok", k=k)
    with pytest.raises(ValueError, match="must be >= 1"):
        run_queries(index, Bm25Params(), {"q1": "bangkok", "q2": "bangkok"}, "sysX", k=k)
