"""Bundled toy collection: shape, determinism, and dictionary coverage."""

import hashlib
import heapq
import random

import pytest

from qvbench.core import (
    ValidationError,
    format_trec_run,
    parse_passages,
    parse_qrels,
    parse_topics,
    parse_trec_run,
    variant_query_id,
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
    fixture_run,
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


def oracle_fixture_run(system_id, query_ids, passage_ids, k=10):
    """The reference ranking: an integer hash key per passage, top k by
    `heapq.nsmallest` on (-score, passage id)."""

    def score(query_id, passage_id):
        digest = hashlib.sha256(f"{system_id}|{query_id}|{passage_id}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    run = {}
    for query_id in sorted(set(query_ids)):
        top = heapq.nsmallest(
            k, passage_ids, key=lambda pid: (-score(query_id, pid), pid)
        )
        if top:
            run[system_id, query_id] = [
                (pid, float(k - rank + 1)) for rank, pid in enumerate(top, 1)
            ]
    return run


def _tied_sha256(buckets):
    """A stand-in for hashlib.sha256 whose digests share their first 8
    bytes across passages: only `buckets` distinct score prefixes exist."""
    real = hashlib.sha256

    class Tied:
        def __init__(self, data=b""):
            self._digest = real(data).digest()

        def digest(self):
            return bytes([self._digest[0] % buckets]) * 8 + self._digest[8:]

    return Tied


def _random_case(rng):
    alphabet = [f"p{i}" for i in range(rng.randint(1, 40))] + ["p\u00e9", "P1", "p01"]
    passage_ids = [rng.choice(alphabet) for _ in range(rng.randint(1, 60))]
    query_ids = [rng.choice(["t01", "t02", "t01__emily__1", "t\u00e9"]) for _ in range(rng.randint(0, 6))]
    k = rng.choice([1, 2, 5, 10, len(passage_ids), len(passage_ids) + 3])
    return rng.choice(FIXTURE_SYSTEMS), query_ids, passage_ids, k


# duplicate passage ids, k above the passage count, repeated query ids,
# no query ids, no passages
EDGE_CASES = [
    ("fixture_b", ["t01", "t01", "t02"], ["p3", "p1", "p3", "p2", "p1"], 4),
    ("fixture_b", ["t01"], ["p1", "p2"], 10),
    ("fixture_b", [], ["p1", "p2"], 2),
    ("fixture_b", ["t01", "t02"], [], 3),
]


class TestFixtureRuns:
    def test_shape_and_determinism(self):
        run = fixture_run("fixture_a", ["t01", "t02"], ["p1", "p2", "p3"], k=2)
        assert list(run) == [("fixture_a", "t01"), ("fixture_a", "t02")]
        assert [[score for _, score in hits] for hits in run.values()] == [[2.0, 1.0]] * 2
        assert run == fixture_run("fixture_a", ["t01", "t02"], ["p1", "p2", "p3"], k=2)

    def test_systems_rank_differently(self):
        pids = [f"p{i}" for i in range(30)]
        a = fixture_run("fixture_a", ["t01"], pids, k=10)["fixture_a", "t01"]
        b = fixture_run("fixture_b", ["t01"], pids, k=10)["fixture_b", "t01"]
        assert [pid for pid, _ in a] != [pid for pid, _ in b]

    def test_roundtrips_through_trec_format(self, tmp_path):
        run = fixture_run("fixture_a", ["t01__emily__1", "t01"], ["p1", "p2"], k=2)
        from qvbench.core import write_trec_run

        path = tmp_path / "f.run"
        write_trec_run(run, path)
        parsed = parse_trec_run(path)
        assert parsed == run
        assert list(parsed) == list(run)

    def test_mid_size_run_bytes_pinned(self):
        # 30 variant ids over the mid workspace's 1,000 passages: any change
        # to how the fixture systems rank must leave these bytes as they are.
        query_ids = [
            variant_query_id(f"t{t:02d}", "persona_emily", i)
            for t in range(1, 11)
            for i in range(1, 4)
        ]
        passage_ids = [f"p{i:03d}" for i in range(1, 1001)]
        text = format_trec_run(fixture_run("fixture_a", query_ids, passage_ids, k=10))
        assert len(text.splitlines()) == 300
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "68320d1dbf1bb1ab8bd70ef43e100b95a1acc420bb010f367789782fe83cd2aa"
        )

    @pytest.mark.parametrize("buckets", [None, 4, 1])
    def test_matches_oracle_on_random_cases(self, monkeypatch, buckets):
        # buckets=None hashes for real; 4 and 1 force ties on the 8-byte
        # score, which only the passage id can then order.
        if buckets is not None:
            monkeypatch.setattr(hashlib, "sha256", _tied_sha256(buckets))
        rng = random.Random(f"fixture-oracle|{buckets}")
        for case in [*EDGE_CASES, *(_random_case(rng) for _ in range(200))]:
            assert fixture_run(*case) == oracle_fixture_run(*case), case

    def test_one_digest_per_query_and_passage(self, monkeypatch):
        calls = []
        real = hashlib.sha256

        def counting(data=b""):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", counting)
        query_ids = ["t01", "t02", "t01", "t03__emily__2"]
        passage_ids = [f"p{i:03d}" for i in range(1, 51)]
        for _ in range(2):  # a second identical call pays again: no memo
            calls.clear()
            fixture_run("fixture_a", query_ids, passage_ids, k=5)
            assert len(calls) == len(set(query_ids)) * len(passage_ids)

    def test_query_id_grid(self):
        ids = all_query_ids(toy_topics(), [f"pr{i}" for i in range(19)])
        assert len(ids) == 5 * (1 + 19 * 3)
        assert len(set(ids)) == len(ids)


PINNED_WORKSPACE_SHA256 = {
    "topics.tsv": "00182985137447889b8cc3ef44dfc3c0a468e17b316a2bf9dcc208d7a37c4c6c",
    "passages.tsv": "d4f92ae7719de2f2e2af4a1a1d3cb9558f737811ca49e40b126ee80d0e8bd056",
    "qrels.txt": "9028075d5e50921ce94adbaa0aeec00f2a06911fda150d5ac75822fa0c5d9e99",
    "runs/fixture_a.run": "055a9988e939215b46b3a360f6a5b5da7e60a4c81ce6638a5914061c22e11f49",
    "runs/fixture_b.run": "823cf59f458dfe166a95d36c9350bd24a570bc59cfb215674b8490ceff9ed0b5",
}


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
            run = parse_trec_run(root / "runs" / f"{system_id}.run")
            assert {query_id for _, query_id in run} == expected_queries
            assert {s for s, _ in run} == {system_id}

        from qvbench.cli import parse_config_file

        values = parse_config_file(config_path)
        assert values["provider"] == "mock"
        assert values["topics"] == "topics.tsv"

    def test_reproducible(self, tmp_path):
        def tree(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        a = tree(write_toy_workspace(tmp_path / "a").parent)
        b = tree(write_toy_workspace(tmp_path / "b").parent)
        assert sorted(a) == [
            "passages.tsv",
            "profiles.json",
            "qrels.txt",
            "runs/fixture_a.run",
            "runs/fixture_b.run",
            "topics.tsv",
            "toy.cfg",
        ]
        assert a == b

    def test_default_workspace_bytes_pinned(self, tmp_path):
        # The default toy workspace (5 topics, 200 passages, seed 0): every
        # reference output downstream is computed from these exact inputs.
        root = write_toy_workspace(tmp_path / "ws").parent
        digests = {
            name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in PINNED_WORKSPACE_SHA256
        }
        assert digests == PINNED_WORKSPACE_SHA256

