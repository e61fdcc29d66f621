"""Bundled toy collection: shape, determinism, and dictionary coverage."""

import pytest

from qvbench.core import (
    ValidationError,
    parse_passages,
    parse_qrels,
    parse_topics,
    parse_trec_run,
)
from qvbench.genkit import load_profiles
from qvbench.retrieval import Bm25Params, build_index, search
from qvbench.textkit import tokenize
from qvbench.toydata import (
    FIXTURE_SYSTEMS,
    SEED_QUERIES,
    _FILLER,
    all_query_ids,
    content_words,
    fixture_run_records,
    toy_passages,
    toy_qrels,
    toy_topics,
    write_toy_workspace,
)
from qvbench.validate import load_dictionary


class TestTopics:
    def test_pool_size(self):
        assert len(SEED_QUERIES) == 53

    def test_default_and_full(self):
        assert len(toy_topics()) == 5
        full = toy_topics(53)
        assert len(full) == 53
        assert len({t.topic_id for t in full}) == 53

    def test_deterministic(self):
        assert toy_topics(10) == toy_topics(10)

    def test_bounds(self):
        with pytest.raises(ValidationError):
            toy_topics(0)
        with pytest.raises(ValidationError):
            toy_topics(54)

    def test_queries_have_enough_structure(self):
        # every query must offer the transformation machinery something
        # to work with: multiple tokens and a correctable long word
        dictionary = load_dictionary()
        for topic in toy_topics(53):
            tokens = tokenize(topic.seed_query)
            assert len(set(tokens)) >= 2, topic
            assert any(
                len(t) >= 4 and t.isalpha() and t in dictionary for t in tokens
            ), topic

    def test_vocabulary_inside_dictionary(self):
        used = set(_FILLER)
        for query in SEED_QUERIES:
            used.update(tokenize(query))
        dictionary = load_dictionary()
        assert sorted(w for w in used if w not in dictionary) == []

    def test_content_words_drop_stopwords(self):
        words = content_words("asthma symptoms in young children")
        assert "in" not in words
        assert "asthma" in words
        with pytest.raises(ValidationError):
            content_words("of the in")


class TestPassages:
    def test_count_and_unique_ids(self):
        passages = toy_passages(200)
        assert len(passages) == 200
        assert len({p.passage_id for p in passages}) == 200

    def test_deterministic_and_seed_sensitive(self):
        a = toy_passages(50)
        b = toy_passages(50)
        c = toy_passages(50, seed=1)
        assert a == b
        assert a != c

    def test_tokens_inside_dictionary(self):
        dictionary = load_dictionary()
        for p in toy_passages(60):
            missing = [t for t in tokenize(p.text) if t not in dictionary]
            assert missing == [], (p.passage_id, missing)

    def test_bm25_finds_on_topic_passages(self):
        topics = toy_topics()
        passages = toy_passages(200, topics)
        qrels = toy_qrels(200, topics)
        relevant = {
            q.passage_id for q in qrels if q.query_id == "t01" and q.grade >= 2
        }
        index = build_index(passages)
        hits = {pid for pid, _ in search(index, Bm25Params(), topics[0].seed_query, k=10)}
        assert hits & relevant

    def test_bad_count(self):
        with pytest.raises(ValidationError):
            toy_passages(0)


class TestQrels:
    def test_partial_coverage(self):
        qrels = toy_qrels(200, toy_topics())
        assert len(qrels) == 135  # one third of the plan is held out
        assert all(q.source == "human" for q in qrels)
        assert {q.grade for q in qrels} == {0, 1, 2, 3}

    def test_keyed_by_topic(self):
        topics = toy_topics()
        ids = {t.topic_id for t in topics}
        assert all(q.query_id in ids for q in toy_qrels(100, topics))


class TestFixtureRuns:
    def test_shape_and_determinism(self):
        records = fixture_run_records("fixture_a", ["t01", "t02"], ["p1", "p2", "p3"], k=2)
        assert len(records) == 4
        assert records == fixture_run_records("fixture_a", ["t01", "t02"], ["p1", "p2", "p3"], k=2)

    def test_systems_rank_differently(self):
        pids = [f"p{i}" for i in range(30)]
        a = fixture_run_records("fixture_a", ["t01"], pids, k=10)
        b = fixture_run_records("fixture_b", ["t01"], pids, k=10)
        assert [r.passage_id for r in a] != [r.passage_id for r in b]

    def test_roundtrips_through_trec_format(self, tmp_path):
        records = fixture_run_records("fixture_a", ["t01", "t01__emily__1"], ["p1", "p2"], k=2)
        from qvbench.core import write_trec_run

        path = tmp_path / "f.run"
        write_trec_run(records, path)
        assert parse_trec_run(path) == sorted(records, key=lambda r: (r.query_id, r.rank))

    def test_query_id_grid(self):
        ids = all_query_ids(toy_topics(), [f"pr{i}" for i in range(19)])
        assert len(ids) == 5 * (1 + 19 * 3)
        assert len(set(ids)) == len(ids)


class TestWorkspace:
    def test_all_artifacts_parse(self, tmp_path):
        config_path = write_toy_workspace(tmp_path / "ws")
        root = config_path.parent
        topics = parse_topics(root / "topics.tsv")
        assert len(topics) == 5
        assert len(parse_passages(root / "passages.tsv")) == 200
        assert len(parse_qrels(root / "qrels.txt")) == 135
        profiles = load_profiles(root / "profiles.json")
        assert len(profiles) == 19

        expected_queries = set(all_query_ids(topics, [p.profile_id for p in profiles]))
        for system_id in FIXTURE_SYSTEMS:
            records = parse_trec_run(root / "runs" / f"{system_id}.run")
            assert {r.query_id for r in records} == expected_queries
            assert {r.system_id for r in records} == {system_id}

        from qvbench.cli import parse_config_file

        values = parse_config_file(config_path)
        assert values["provider"] == "mock"
        assert values["topics"] == "topics.tsv"

    def test_reproducible(self, tmp_path):
        a = write_toy_workspace(tmp_path / "a").parent
        b = write_toy_workspace(tmp_path / "b").parent
        for name in ("topics.tsv", "passages.tsv", "qrels.txt", "runs/fixture_a.run"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
