"""Coverage, labeling, and human/LLM agreement metrics."""

import hashlib
import json
import random
import re
import sys
import threading
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qvbench.judge as judge
from qvbench.core import (
    ParseError,
    Passage,
    Qrel,
    Topic,
    ValidationError,
    query_cell,
)
from qvbench.genkit import GenerationError, MockProvider
from qvbench.judge import (
    CoverageReport,
    LabelStore,
    agreement_report,
    binarize,
    build_label_prompt,
    cohen_kappa,
    coverage,
    krippendorff_alpha,
    label,
    label_topk,
    load_label_template,
    mae,
    merge_qrels,
    paired_grades,
    pool_topk,
)

TOPIC = Topic("t1", "asthma symptoms in children", backstory="You worry about a wheezing child.")
PASSAGE = Passage("p1", "Asthma in children often shows up as wheezing and coughing at night.")
TEMPLATE = load_label_template()


def oracle_alpha_ordinal(pairs):
    """Definitional route: disagreement averaged over value tokens."""
    values = [v for pair in pairs for v in pair]
    n = len(values)
    margin = Counter(values)
    levels = sorted(margin)

    def delta2(a, b):
        lo, hi = min(a, b), max(a, b)
        between = sum(margin[g] for g in levels if lo <= g <= hi)
        return (between - (margin[a] + margin[b]) / 2) ** 2

    d_obs = sum(2 * delta2(a, b) for a, b in pairs) / n
    d_exp = sum(
        delta2(x, y) for i, x in enumerate(values) for j, y in enumerate(values) if i != j
    ) / (n * (n - 1))
    return 1 - d_obs / d_exp


class CountingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return self.inner.complete(prompt)


class ScriptedProvider:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return self.responses[min(self.calls - 1, len(self.responses) - 1)]


class Result(NamedTuple):
    """One ranked result, as the per-record oracles below read a run."""

    system_id: str
    query_id: str
    passage_id: str
    rank: int
    score: float


def run(system, query, pid, rank):
    return Result(system, query, pid, rank, 100.0 - rank)


def top_k(runs, k=10):
    """The (system, query) -> top-k passage ids mapping `coverage` reads,
    in the order of runs."""
    ranked = {}
    for system_id, query_id, passage_id, rank, _ in runs:
        if rank <= k:
            ranked.setdefault((system_id, query_id), []).append(passage_id)
    return ranked


def ranked_lists(results):
    """Results whose ranks are 1..n per (system, query) as the run that
    `parse_trec_run` returns: keys sorted, each list in rank order."""
    ranked = {}
    for r in sorted(results, key=lambda r: (r.system_id, r.query_id, r.rank)):
        ranked.setdefault((r.system_id, r.query_id), []).append((r.passage_id, r.score))
    return ranked


def label_runs(provider, runs, topics, passages, store, k=10):
    """Pool the runs' top k, then label the sorted pairs, as `judge` does."""
    pairs = pool_topk(
        ranked_lists(runs), {t.topic_id for t in topics}, {p.passage_id for p in passages}, k
    )
    return label_topk(provider, sorted(pairs), topics, passages, store)


class TestCoverage:
    TEN = {("s1", "t1"): [f"p{i}" for i in range(1, 11)]}

    def test_all_judged(self):
        qrels = [Qrel("t1", f"p{i}", 1) for i in range(1, 11)]
        reports = coverage(self.TEN, qrels, k=10)
        assert all(r.missing_fraction == 0.0 for r in reports)

    def test_no_qrels(self):
        reports = coverage(self.TEN, [], k=10)
        assert all(r.missing_fraction == 1.0 for r in reports)

    def test_seven_of_ten(self):
        qrels = [Qrel("t1", f"p{i}", 2) for i in range(1, 8)]
        reports = coverage(self.TEN, qrels, k=10)
        overall = next(r for r in reports if r.system_id == "all")
        assert overall.judged == 7 and overall.total == 10
        assert overall.missing_fraction == pytest.approx(0.3)

    def test_rows_split_by_system_and_profile(self):
        ranked = {
            ("s1", "t1"): ["p1"],
            ("s1", "t1__emily__1"): ["p2"],
            ("s2", "t1__emily__2"): ["p3"],
        }
        qrels = [Qrel("t1", "p1", 1), Qrel("t1", "p2", 0)]
        reports = coverage(ranked, qrels, k=10)
        keys = [(r.system_id, r.profile_id) for r in reports]
        assert keys == [("all", "all"), ("s1", "emily"), ("s1", "seed"), ("s2", "emily")]
        by_key = {(r.system_id, r.profile_id): r for r in reports}
        assert by_key[("s1", "seed")].missing_fraction == 0.0
        assert by_key[("s2", "emily")].missing_fraction == 1.0
        assert by_key[("all", "all")].judged == 2

    def test_variant_queries_resolve_to_topic_qrels(self):
        qrels = [Qrel("t1", "p1", 3)]
        reports = coverage({("s1", "t1__emily__1"): ["p1"]}, qrels, k=10)
        assert reports[0].missing_fraction == 0.0

    def test_llm_qrels_do_not_count(self):
        qrels = [Qrel("t1", "p1", 1, source="llm")]
        reports = coverage({("s1", "t1"): ["p1"]}, qrels, k=10)
        overall = next(r for r in reports if r.system_id == "all")
        assert overall.total == 1
        assert overall.missing_fraction == 1.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            coverage({}, [], k=0)


def _coverage_per_record(runs, qrels, k=10):
    """`coverage` as it was before it counted per query, kept as its
    oracle: one (topic, passage) lookup and two bucket updates per
    top-k record."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    human = {(q.query_id, q.passage_id) for q in qrels if q.source == "human"}
    top = [record for record in runs if record.rank <= k]
    cell_of = {query_id: query_cell(query_id) for query_id in {r.query_id for r in top}}
    counts = {}
    for record in top:
        topic, profile, _ = cell_of[record.query_id]
        judged = (topic, record.passage_id) in human
        for key in ((record.system_id, profile), ("all", "all")):
            bucket = counts.setdefault(key, [0, 0])
            bucket[0] += judged
            bucket[1] += 1
    return [
        CoverageReport(system_id, profile_id, k, judged, total, 1 - judged / total)
        for (system_id, profile_id), (judged, total) in sorted(counts.items())
    ]


_COVERAGE_QUERIES = ("t1", "t2", "t1__emily__1", "t1__emily__3", "t2__bob__2", "t3__emily__1")


@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(("s1", "s2", "s3")),
            st.sampled_from(_COVERAGE_QUERIES),
            st.sampled_from(("p1", "p2", "p3", "p4")),
            st.integers(1, 14),
        ),
        max_size=40,
    ),
    qrels=st.lists(
        st.tuples(
            st.sampled_from(("t1", "t2", "t3", "t1__emily__1")),
            st.sampled_from(("p1", "p2", "p3", "p4")),
            st.integers(0, 3),
            st.sampled_from(("human", "llm")),
        ),
        max_size=12,
    ),
    k=st.integers(1, 12),
    rnd=st.randoms(use_true_random=False),
)
def test_coverage_matches_the_per_record_count(records, qrels, k, rnd):
    """Shuffled records, so a (system, query)'s results are not together
    and a passage may repeat; ranks beyond k; seed and variant ids; human
    and LLM labels, and a label keyed by a variant id, which no run
    record's topic matches. `coverage` reads the mapping built from the
    shuffled records."""
    runs = [run(system, query, pid, rank) for system, query, pid, rank in records]
    rnd.shuffle(runs)
    labels = [Qrel(*fields) for fields in qrels]
    assert coverage(top_k(runs, k), labels, k) == _coverage_per_record(runs, labels, k)


class TestQueryIdsDecodedOnce:
    RUNS = [
        run(system, query, f"p{i}", i)
        for system in ("s1", "s2")
        for query in ("t1", "t1__emily__1", "t2__emily__2")
        for i in range(1, 4)
    ]
    TOPICS = [Topic(t, "q", backstory="Backstory.") for t in ("t1", "t2")]
    PASSAGES = [Passage(f"p{i}", f"passage text {i}") for i in range(1, 4)]

    @pytest.fixture
    def decoded(self, monkeypatch):
        ids = []
        original = judge.query_cell

        def counting(query_id):
            ids.append(query_id)
            return original(query_id)

        monkeypatch.setattr(judge, "query_cell", counting)
        return ids

    def test_coverage(self, decoded):
        coverage(top_k(self.RUNS), [], k=10)
        assert sorted(decoded) == ["t1", "t1__emily__1", "t2__emily__2"]

    def test_label_topk(self, decoded):
        label_runs(MockProvider(), self.RUNS, self.TOPICS, self.PASSAGES, LabelStore(), k=10)
        assert sorted(decoded) == ["t1", "t1__emily__1", "t2__emily__2"]


class TestLabelPrompt:
    def test_contains_both_texts_verbatim(self):
        prompt = build_label_prompt(TOPIC.backstory, PASSAGE.text, TEMPLATE)
        assert TOPIC.backstory in prompt
        assert PASSAGE.text in prompt
        assert "integer" in prompt

    def test_deterministic(self):
        a = build_label_prompt(TOPIC.backstory, PASSAGE.text, TEMPLATE)
        b = build_label_prompt(TOPIC.backstory, PASSAGE.text, TEMPLATE)
        assert a == b

    def test_missing_backstory_points_at_generator(self):
        with pytest.raises(ValidationError, match="backstory"):
            build_label_prompt("", PASSAGE.text, TEMPLATE)


class TestLabeling:
    def test_mock_grade_is_deterministic(self):
        store_a, store_b = LabelStore(), LabelStore()
        first = label(MockProvider(seed_material="j"), TOPIC, PASSAGE, store_a, TEMPLATE)
        second = label(MockProvider(seed_material="j"), TOPIC, PASSAGE, store_b, TEMPLATE)
        assert first == second
        assert first.source == "llm"
        assert first.grade in (0, 1, 2, 3)
        assert first.query_id == "t1"

    def test_cache_prevents_second_call(self):
        provider = CountingProvider(MockProvider())
        store = LabelStore()
        label(provider, TOPIC, PASSAGE, store, TEMPLATE)
        label(provider, TOPIC, PASSAGE, store, TEMPLATE)
        assert provider.calls == 1
        assert len(store) == 1

    def test_textual_response_retries_then_fails(self):
        provider = ScriptedProvider(["relevant"])
        with pytest.raises(GenerationError) as excinfo:
            label(provider, TOPIC, PASSAGE, LabelStore(), TEMPLATE)
        assert provider.calls == 4
        assert excinfo.value.raw_responses == ("relevant",) * 4

    def test_out_of_range_integer_is_a_parse_failure(self):
        provider = ScriptedProvider(["7", "4", "2"])
        qrel = label(provider, TOPIC, PASSAGE, LabelStore(), TEMPLATE)
        assert qrel.grade == 2
        assert provider.calls == 3

    def test_topic_without_backstory_rejected(self):
        bare = Topic("t9", "some query")
        with pytest.raises(ValidationError, match="backstory"):
            label(MockProvider(), bare, PASSAGE, LabelStore(), TEMPLATE)


class TestLabelTopk:
    TOPICS = [
        Topic("t1", "q one", backstory="Backstory one."),
        Topic("t2", "q two", backstory="Backstory two."),
    ]
    PASSAGES = [Passage(f"p{i}", f"passage text {i}") for i in range(1, 6)]

    def test_shared_passages_labeled_once(self):
        runs = [
            run("s1", "t1", "p1", 1),
            run("s1", "t1__emily__1", "p1", 1),  # same pair via a variant
            run("s2", "t1", "p1", 1),  # same pair via another system
            run("s1", "t1", "p2", 2),
            run("s1", "t2", "p1", 1),  # different topic, same passage
        ]
        provider = CountingProvider(MockProvider())
        store = LabelStore()
        qrels = label_runs(provider, runs, self.TOPICS, self.PASSAGES, store, k=10)
        assert provider.calls == 3  # (t1,p1), (t1,p2), (t2,p1)
        assert len(qrels) == 3
        assert {(q.query_id, q.passage_id) for q in qrels} == {
            ("t1", "p1"),
            ("t1", "p2"),
            ("t2", "p1"),
        }

    def test_k_truncates(self):
        runs = [run("s1", "t1", f"p{i}", i) for i in range(1, 6)]
        store = LabelStore()
        label_runs(MockProvider(), runs, self.TOPICS, self.PASSAGES, store, k=2)
        assert len(store) == 2

    def test_template_read_once_for_many_new_labels(self, monkeypatch):
        """One template read, and `judge.label` called once per pair, cached
        or not, through the module attribute, where a traced run counts
        both by replacing them."""
        runs = [run("s1", t.topic_id, p.passage_id, i + 1)
                for t in self.TOPICS for i, p in enumerate(self.PASSAGES)]
        loads, labelled = [], []
        original_load, original_label = judge.load_label_template, judge.label

        def counting(*args, **kwargs):
            loads.append(args)
            return original_load(*args, **kwargs)

        def counting_label(provider, topic, passage, store, template):
            labelled.append((topic.topic_id, passage.passage_id))
            return original_label(provider, topic, passage, store, template)

        monkeypatch.setattr(judge, "load_label_template", counting)
        monkeypatch.setattr(judge, "label", counting_label)
        provider = CountingProvider(MockProvider())
        store = LabelStore()
        store.put("t1", "p1", 2, "2")
        label_runs(provider, runs, self.TOPICS, self.PASSAGES, store, k=10)
        assert provider.calls == 9
        assert labelled == sorted((t.topic_id, p.passage_id) for t in self.TOPICS
                                  for p in self.PASSAGES)
        assert len(loads) == 1

    def test_overlapped_labels_match_serial(self, tmp_path):
        passages = [Passage(f"p{i}", f"passage text {i}") for i in range(1, 201)]
        runs = [run("s1", t.topic_id, p.passage_id, i + 1)
                for t in self.TOPICS for i, p in enumerate(passages)]
        serial = LabelStore()
        expected = label_runs(MockProvider(), runs, self.TOPICS, passages, serial, k=200)
        provider = MockProvider()
        provider.in_flight = 8  # more threads than cores
        store = LabelStore()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            qrels = label_runs(provider, runs, self.TOPICS, passages, store, k=200)
        finally:
            sys.setswitchinterval(interval)
        assert qrels == expected
        serial.save(tmp_path / "serial.txt", tmp_path / "serial.jsonl")
        store.save(tmp_path / "overlapped.txt", tmp_path / "overlapped.jsonl")
        for suffix in ("txt", "jsonl"):
            serial_bytes = (tmp_path / f"serial.{suffix}").read_bytes()
            assert (tmp_path / f"overlapped.{suffix}").read_bytes() == serial_bytes

    def test_unknown_passage_rejected(self):
        runs = [run("s1", "t1", "ghost", 1)]
        with pytest.raises(ValidationError):
            label_runs(MockProvider(), runs, self.TOPICS, self.PASSAGES, LabelStore())

    @pytest.mark.parametrize(
        "runs, k, message",
        [
            # an unknown topic whose list also holds an unknown passage
            ([run("s1", "t1", "p1", 1), run("s1", "t9__emily__1", "ghost", 1),
              run("s1", "t9__emily__1", "p1", 2)], 10, "run references unknown topic 't9'"),
            # the pair (t1, ghost) after a known pair of the same list
            ([run("s1", "t1", "p1", 1), run("s1", "t1", "ghost", 2),
              run("s1", "t9", "p1", 1)], 10, "run references unknown passage 'ghost'"),
            # beyond k, a passage is not looked at
            ([run("s1", "t1", "p1", 1), run("s1", "t1", "ghost", 2),
              run("s1", "t2", "spook", 1)], 1, "run references unknown passage 'spook'"),
        ],
        ids=["topic", "passage", "beyond-k"],
    )
    def test_first_bad_record_names_its_fault(self, runs, k, message):
        provider = CountingProvider(MockProvider())
        with pytest.raises(ValidationError) as info:
            label_runs(provider, runs, self.TOPICS, self.PASSAGES, LabelStore(), k=k)
        assert str(info.value) == message
        assert provider.calls == 0


def _parse_grade_by_pattern(text):
    """`judge._parse_grade` as it was, with `re.fullmatch`, kept as its oracle."""
    stripped = text.strip()
    if not re.fullmatch(r"\d+", stripped):
        raise ParseError(f"expected a bare integer, got {text!r}")
    grade = int(stripped)
    if grade not in (0, 1, 2, 3):
        raise ParseError(f"grade {grade} outside 0..3")
    return grade


def _grade_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# Arabic-Indic three (Nd, a decimal digit) and superscript two (No, a
# digit that is not decimal) among ASCII digits, signs and whitespace.
@given(st.text(st.sampled_from("0123457 \t\n+-_x\u0663\u00b2\u0661\u06f2"), max_size=4))
@example("\u0663")
@example("\u00b2")
@example(" 2 ")
@example("")
def test_parse_grade_accepts_what_the_digit_pattern_did(text):
    assert _grade_outcome(judge._parse_grade, text) == _grade_outcome(
        _parse_grade_by_pattern, text
    )


def _needed_pairs_per_record(runs, topic_ids, passage_ids, k):
    """The pooling loop `label_topk` once ran, kept as `pool_topk`'s oracle: each top-k record's
    topic, then passage, checked in (system, query, rank) order; the sorted pairs to label."""
    needed = set()
    for record in runs:
        if record.rank > k:
            continue
        topic_id = record.query_id.split("__")[0]
        if topic_id not in topic_ids:
            raise ValidationError(f"run references unknown topic {topic_id!r}")
        if record.passage_id not in passage_ids:
            raise ValidationError(f"run references unknown passage {record.passage_id!r}")
        needed.add((topic_id, record.passage_id))
    return sorted(needed)


@given(
    st.dictionaries(
        st.tuples(
            st.sampled_from(["s1", "s2"]),
            st.sampled_from(["t1", "t2", "t9", "t1__emily__1", "t9__emily__2"]),
        ),
        st.lists(st.sampled_from(["p1", "p2", "ghost"]), min_size=1, max_size=3),
        max_size=6,
    )
)
def test_label_topk_checks_and_pairs_match_the_per_record_loop(lists):
    runs = [
        run(system_id, query_id, pid, rank)
        for (system_id, query_id), pids in lists.items()
        for rank, pid in enumerate(pids, 1)
    ]
    topics = [Topic(t, "q", backstory="Backstory.") for t in ("t1", "t2")]
    passages = [Passage(p, f"text {p}") for p in ("p1", "p2")]
    ordered = sorted(runs, key=lambda r: (r.system_id, r.query_id, r.rank))
    try:
        expected = _needed_pairs_per_record(ordered, {"t1", "t2"}, {"p1", "p2"}, k=2)
    except ValidationError as exc:
        expected = str(exc)
    try:
        qrels = label_runs(MockProvider(), runs, topics, passages, LabelStore(), k=2)
    except ValidationError as exc:
        outcome = str(exc)
    else:
        outcome = [(q.query_id, q.passage_id) for q in qrels]
    assert outcome == expected


@pytest.mark.parametrize(
    "ranked, message",
    [
        # the lists in key order: s1's t1 is fine, s1's t2 names the ghost
        ({("s1", "t1"): [("p1", 2.0)], ("s1", "t2"): [("ghost", 1.0)],
          ("s2", "t9"): [("p1", 1.0)]}, "run references unknown passage 'ghost'"),
        # a list's topic is checked before its passages
        ({("s1", "t1"): [("p1", 2.0)], ("s1", "t9__emily__1"): [("ghost", 1.0)]},
         "run references unknown topic 't9'"),
        # a pair already pooled is not looked up again, the next new one is
        ({("s1", "t1"): [("p1", 2.0), ("p2", 1.0)], ("s1", "t1__emily__1"):
          [("p2", 3.0), ("spook", 2.0)]}, "run references unknown passage 'spook'"),
    ],
    ids=["key-order", "topic-first", "new-pair"],
)
def test_pool_topk_names_the_first_bad_result(ranked, message):
    with pytest.raises(ValidationError) as info:
        pool_topk(ranked, {"t1", "t2"}, {"p1", "p2"}, k=10)
    assert (type(info.value), str(info.value)) == (ValidationError, message)


def test_pool_topk_reads_k_per_list_and_leaves_the_lists_as_they_are():
    shared = [("p1", 3.0), ("p2", 2.0), ("ghost", 1.0)]
    ranked = {("s1", "t1"): shared, ("s1", "t2__emily__1"): shared}
    assert pool_topk(ranked, {"t1", "t2"}, {"p1", "p2"}, k=2) == {
        ("t1", "p1"), ("t1", "p2"), ("t2", "p1"), ("t2", "p2")
    }
    assert shared == [("p1", 3.0), ("p2", 2.0), ("ghost", 1.0)]


class TestLabelStorePersistence:
    def test_roundtrip_with_sidecar(self, tmp_path):
        store = LabelStore()
        store.put("t1", "p1", 3, "3")
        store.put("t1", "p2", 0, "0")
        qrels_path = tmp_path / "llm_qrels.txt"
        raw_path = tmp_path / "raw.jsonl"
        store.save(qrels_path, raw_path)
        text = qrels_path.read_text()
        assert "llm" in text.split()
        loaded = LabelStore.load(qrels_path, raw_path)
        assert loaded.qrels() == store.qrels()
        assert loaded.get("t1", "p1").grade == 3

    def test_loaded_store_serves_cache(self, tmp_path):
        store = LabelStore()
        first = label(MockProvider(), TOPIC, PASSAGE, store, TEMPLATE)
        path = tmp_path / "labels.txt"
        store.save(path, tmp_path / "labels_raw.jsonl")
        provider = CountingProvider(MockProvider())
        reloaded = LabelStore.load(path)
        again = label(provider, TOPIC, PASSAGE, reloaded, TEMPLATE)
        assert provider.calls == 0
        assert again == first

    def test_human_rows_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 p1 2 human\n")
        with pytest.raises(ValidationError):
            LabelStore.load(path)

    def test_human_row_error_names_file_and_pair(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("t1 0 p1 2 llm\nt1 0 p2 1 human\n")
        with pytest.raises(ValidationError) as info:
            LabelStore.load(path)
        assert str(info.value) == (
            f"{path}: label store holds llm labels only, found source 'human' for (t1, p2)"
        )

    def test_sidecar_row_without_key_names_file_and_line(self, tmp_path):
        qrels_path = tmp_path / "llm_qrels.txt"
        qrels_path.write_text("t1 0 p1 2 llm\n")
        raw_path = tmp_path / "llm_raw.jsonl"
        raw_path.write_text('{"topic_id": "t1", "passage_id": "p1", "raw_response": "2"}\n'
                            '{"topic_id": "t1", "raw_response": "1"}\n')
        with pytest.raises(ParseError, match=r"llm_raw\.jsonl:2: missing key 'passage_id'"):
            LabelStore.load(qrels_path, raw_path)


class TestBinarize:
    def test_mapping(self):
        assert binarize(0) == 0
        assert binarize(1) == 0
        assert binarize(2) == 1
        assert binarize(3) == 1

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            binarize(4)
        with pytest.raises(ValidationError):
            binarize(-1)


class TestMae:
    def test_identical_lists(self):
        assert mae([(0, 0), (3, 3), (2, 2)]) == 0.0

    def test_graded_hand_example(self):
        assert mae([(3, 0), (2, 2)]) == 1.5

    def test_binary_collapses_first(self):
        assert mae([(3, 0), (2, 2)], binary=True) == 0.5
        assert mae([(1, 0)], binary=True) == 0.0

    def test_symmetric_in_label_streams(self):
        rng = random.Random(8)
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(60)]
        flipped = [(b, a) for a, b in pairs]
        assert mae(pairs) == mae(flipped)
        assert mae(pairs, binary=True) == mae(flipped, binary=True)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mae([])


class TestCohenKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa([(0, 0), (3, 3), (2, 2), (1, 1)]) == pytest.approx(1.0)

    def test_hand_contingency(self):
        # binary confusion counts [[20, 5], [10, 15]]
        pairs = (
            [(0, 0)] * 20 + [(0, 2)] * 5 + [(2, 0)] * 10 + [(2, 2)] * 15
        )
        assert cohen_kappa(pairs, binary=True) == pytest.approx(0.4, abs=1e-12)

    def test_constant_identical_raters_return_zero(self):
        assert cohen_kappa([(3, 3), (3, 3)]) == 0.0

    def test_rater_swap_invariance(self):
        rng = random.Random(17)
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(80)]
        swapped = [(b, a) for a, b in pairs]
        assert cohen_kappa(pairs) == pytest.approx(cohen_kappa(swapped), abs=1e-12)

    def test_binary_relabeling_invariance(self):
        # nominal kappa: swapping both raters' 0/1 labels changes nothing
        rng = random.Random(18)
        pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(80)]
        relabeled = [(3 - a, 3 - b) for a, b in pairs]  # flips the binary classes
        assert cohen_kappa(pairs, binary=True) == pytest.approx(
            cohen_kappa(relabeled, binary=True), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cohen_kappa([])


class TestKrippendorffAlpha:
    def test_identical_pairs_with_two_categories(self):
        assert krippendorff_alpha([(0, 0), (3, 3)]) == pytest.approx(1.0)

    def test_hand_value(self):
        # margins 3:1, one discordant unit; both routes give exactly 0
        assert krippendorff_alpha([(0, 3), (0, 0)]) == pytest.approx(0.0, abs=1e-15)

    def test_four_item_fixture_matches_oracle(self):
        pairs = [(0, 1), (2, 2), (3, 2), (1, 1)]
        assert krippendorff_alpha(pairs) == pytest.approx(oracle_alpha_ordinal(pairs), abs=1e-12)

    def test_randomized_against_oracle(self):
        rng = random.Random(23)
        trials = 0
        while trials < 50:
            pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(3, 15))]
            if len({v for p in pairs for v in p}) < 2:
                continue
            trials += 1
            assert krippendorff_alpha(pairs) == pytest.approx(
                oracle_alpha_ordinal(pairs), abs=1e-12
            ), pairs

    def test_nonmonotone_relabeling_changes_ordinal_alpha(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 3), (0, 0), (2, 2)]
        scrambled = {0: 0, 1: 3, 2: 2, 3: 1}
        relabeled = [(scrambled[a], scrambled[b]) for a, b in pairs]
        before = krippendorff_alpha(pairs)
        after = krippendorff_alpha(relabeled)
        assert abs(before - after) > 1e-6

    def test_too_few_items(self):
        with pytest.raises(ValidationError):
            krippendorff_alpha([(0, 0)])

    def test_zero_expected_disagreement(self):
        with pytest.raises(ValidationError, match="expected disagreement"):
            krippendorff_alpha([(2, 2), (2, 2), (2, 2)])

    def test_unknown_metric_and_level(self):
        # the metric is always ordinal over the grades 0..3
        with pytest.raises(ValidationError, match="outside levels"):
            krippendorff_alpha([(0, 5), (1, 0)])


class TestAgreementReport:
    def test_components_line_up(self):
        pairs = [(0, 1), (2, 2), (3, 2), (1, 1), (0, 0), (3, 0)]
        report = agreement_report(pairs)
        assert report.n == 6
        assert report.mae_graded == pytest.approx(mae(pairs))
        assert report.kappa_binary == pytest.approx(cohen_kappa(pairs, binary=True))
        assert report.alpha_graded == pytest.approx(krippendorff_alpha(pairs))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=30))
    def test_bounds_hold_on_every_report(self, pairs):
        """AgreementReport is a plain tuple: `agreement_report` rejects
        fewer than two pairs or one grade throughout, and otherwise
        yields kappa, alpha <= 1 and MAE >= 0."""
        if len(pairs) < 2 or len({g for pair in pairs for g in pair}) < 2:
            with pytest.raises(ValidationError):
                agreement_report(pairs)
            return
        report = agreement_report(pairs)
        assert report.n == len(pairs)
        assert report.kappa_binary <= 1 and report.alpha_graded <= 1
        assert report.mae_binary >= 0 and report.mae_graded >= 0


class TestMergePolicies:
    HUMAN = [Qrel("t1", "p1", 3), Qrel("t1", "p2", 1)]
    LLM = [Qrel("t1", "p2", 2, source="llm"), Qrel("t1", "p3", 2, source="llm")]

    def test_human_only(self):
        merged = merge_qrels(self.HUMAN, self.LLM, "human-only")
        assert merged == sorted(self.HUMAN, key=lambda q: (q.query_id, q.passage_id))

    def test_llm_only(self):
        merged = merge_qrels(self.HUMAN, self.LLM, "llm-only")
        assert all(q.source == "llm" for q in merged)
        assert len(merged) == 2

    def test_human_preferred_fills_gaps(self):
        merged = merge_qrels(self.HUMAN, self.LLM, "human-preferred")
        by_key = {(q.query_id, q.passage_id): q for q in merged}
        assert by_key[("t1", "p1")].source == "human"
        assert by_key[("t1", "p2")].source == "human"  # human judgment wins
        assert by_key[("t1", "p2")].grade == 1
        assert by_key[("t1", "p3")].source == "llm"

    def test_wrong_source_rejected(self):
        with pytest.raises(ValidationError):
            merge_qrels(self.LLM, self.LLM, "human-only")
        with pytest.raises(ValidationError):
            merge_qrels(self.HUMAN, self.HUMAN, "llm-only")

    def test_unknown_policy(self):
        with pytest.raises(ValidationError):
            merge_qrels(self.HUMAN, self.LLM, "llm-preferred")

    def test_paired_grades_intersection(self):
        pairs = paired_grades(self.HUMAN, self.LLM)
        assert pairs == [(1, 2)]


# The cold label path as it was, kept as the oracle for the one that
# fills each topic's backstory once, draws the mock's grade with bisect
# and writes the store's rows without dicts.


def _old_label_prompt(backstory, passage_text, template):
    """`build_label_prompt` as one `_substitute` over all three keys."""
    for key, value in (
        ("backstory", backstory),
        ("passage", passage_text),
        ("scale_description", judge.SCALE_DESCRIPTION),
    ):
        template = template.replace("{" + key + "}", str(value))
    return template


def _old_mock_grade(seed, prompt):
    digest = hashlib.sha256((seed + "\x00" + prompt).encode("utf-8")).digest()
    return random.Random(digest).choices((0, 1, 2, 3), cum_weights=(35, 60, 82, 100))[0]


def _old_save(store, qrels_path, raw_path):
    """`LabelStore.save` as it was: a dict per row, one
    `JSONEncoder.encode` a line."""
    keys = sorted(store._labels)
    with open(qrels_path, "w", encoding="utf-8") as fh:
        for key in keys:
            fh.write(f"{key[0]} 0 {key[1]} {store._labels[key].grade} llm\n")
    encoder = json.JSONEncoder(ensure_ascii=False)
    rows = [
        {"topic_id": key[0], "passage_id": key[1], "grade": store._labels[key].grade,
         "raw_response": store._raw.get(key, "")}
        for key in keys
    ]
    with open(raw_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(encoder.encode(row) + "\n")


_PROMPT_PIECES = ["{passage}", "{scale_description}", "{backstory}", "{", "}", "{}", "{{x}}",
                  "é", "漢字", " ", "\U0001F600", " ", "\n", "x"]
_prompt_texts = st.lists(st.sampled_from(_PROMPT_PIECES), max_size=10).map("".join)


class RecordingProvider:
    def __init__(self):
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return "2"


@given(
    backstories=st.lists(_prompt_texts.map(lambda text: "b" + text), min_size=2, max_size=2),
    texts=st.lists(_prompt_texts.map(lambda text: text + "p"), min_size=1, max_size=3),
)
def test_label_prompts_are_the_bytes_one_substitution_made(backstories, texts):
    topics = [Topic(f"t{i}", "q", backstory=b) for i, b in enumerate(backstories)]
    passages = [Passage(f"p{i}", text) for i, text in enumerate(texts)]
    expected = [_old_label_prompt(t.backstory, p.text, TEMPLATE) for t in topics for p in passages]
    assert [build_label_prompt(t.backstory, p.text, TEMPLATE)
            for t in topics for p in passages] == expected
    provider = RecordingProvider()
    pairs = [(t.topic_id, p.passage_id) for t in topics for p in passages]
    label_topk(provider, pairs, topics, passages, LabelStore())
    assert provider.prompts == expected


def test_eight_threads_labelling_at_once_give_the_serial_grades():
    """Eight threads share one mock and one store, each labelling every
    pair from its own starting point, with threads switching often."""
    topics = [Topic(f"t{i}", f"query {i}", backstory=f"Backstory {i}.") for i in range(3)]
    passages = [Passage(f"p{i}", f"passage text {i}") for i in range(40)]
    pairs = [(t, p) for t in topics for p in passages]
    expected = {
        (t.topic_id, p.passage_id): _old_mock_grade("j", _old_label_prompt(t.backstory, p.text, TEMPLATE))
        for t, p in pairs
    }
    provider, store = MockProvider(seed_material="j"), LabelStore()
    barrier = threading.Barrier(8)
    failures = []

    def work(start):
        try:
            barrier.wait(timeout=10)
            for topic, passage in pairs[start:] + pairs[:start]:
                label(provider, topic, passage, store, TEMPLATE)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(15 * i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert {(q.query_id, q.passage_id): q.grade for q in store.qrels()} == expected
    assert all(store._raw[key] == str(grade) for key, grade in expected.items())


_ids = st.text(st.sampled_from("ab1é_"), min_size=1, max_size=4)
# JSON-escaped and line-breaking characters among the raw responses
_raw_texts = st.text(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\x85\t\n\r\u2028\u2029\ufeffé漢\U0001F600 x{}'), max_size=12
)


@given(st.dictionaries(st.tuples(_ids, _ids), st.tuples(st.integers(0, 3), _raw_texts),
                       max_size=12))
def test_saved_label_bytes_match_the_dict_rows(tmp_path_factory, labels):
    tmp_path = tmp_path_factory.mktemp("labels")
    store = LabelStore()
    for (topic_id, passage_id), (grade, raw) in labels.items():
        store.put(topic_id, passage_id, grade, raw)
    store.save(tmp_path / "llm_qrels.txt", tmp_path / "llm_raw.jsonl")
    _old_save(store, tmp_path / "old_qrels.txt", tmp_path / "old_raw.jsonl")
    for new, old in (("llm_qrels.txt", "old_qrels.txt"), ("llm_raw.jsonl", "old_raw.jsonl")):
        assert (tmp_path / new).read_bytes() == (tmp_path / old).read_bytes()
    loaded = LabelStore.load(tmp_path / "llm_qrels.txt", tmp_path / "llm_raw.jsonl")
    assert loaded._raw == store._raw
