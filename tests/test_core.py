"""Domain types, parsers, writers, and round-trips."""

import csv
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qvbench.core import (
    QUERY_ID_SEP,
    VARIANTS_PER_PAIR,
    AnnotationRecord,
    ParseError,
    Passage,
    Profile,
    Qrel,
    QueryVariant,
    Topic,
    ValidationError,
    expected_variant_count,
    json_lines,
    nfc,
    parse_passages,
    parse_qrels,
    parse_topics,
    parse_trec_run,
    parse_variant_query_id,
    query_cell,
    read_annotations,
    read_csv,
    read_variants,
    variant_query_id,
    write_csv,
    write_jsonl,
    write_passages,
    write_qrels,
    write_topics,
    write_trec_run,
    write_variants,
)
from qvbench.cli import PipelineConfig, parse_config_file
from qvbench.judge import AgreementReport, CoverageReport
from qvbench.retrieval import Bm25Params
from qvbench.textkit import VariantFeatureRecord
from qvbench.validate import ConsensusReport, ValidationVerdict


def test_parse_topics_tsv(tmp_path):
    p = tmp_path / "topics.tsv"
    p.write_text("2001\thow much money do I need in Bangkok\n", encoding="utf-8")
    topics = parse_topics(p)
    assert topics == [Topic("2001", "how much money do I need in Bangkok")]


def test_parse_topics_empty_file(tmp_path):
    p = tmp_path / "topics.tsv"
    p.write_text("", encoding="utf-8")
    assert parse_topics(p) == []


def test_parse_topics_bad_column_count(tmp_path):
    p = tmp_path / "topics.tsv"
    p.write_text("2001\tok query\n2002\ta\tb\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2:"):
        parse_topics(p)


def test_parse_topics_duplicate_id(tmp_path):
    p = tmp_path / "topics.tsv"
    p.write_text("2001\tone\n2001\ttwo\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_topics(p)


def test_topics_jsonl_roundtrip(tmp_path):
    topics = [
        Topic("2001", "money in Bangkok", backstory="I am planning a trip."),
        Topic("2002", "best dog breeds"),
    ]
    p = tmp_path / "topics.jsonl"
    write_topics(topics, p)
    assert parse_topics(p) == topics


@pytest.mark.parametrize(
    "reader, name, text, error",
    [
        (parse_topics, "topics.tsv", "2001\tok query\n2002\t   \n", ValidationError),
        (parse_passages, "passages.tsv", "p1\tfine\np2\t \n", ValidationError),
        (parse_topics, "topics.jsonl", '{"topic_id": "1", "seed_query": "ok"}\n'
         '{"topic_id": "2", "seed_query": 5}\n', ParseError),
        (parse_passages, "passages.jsonl", '{"passage_id": "p1", "text": "ok"}\n'
         '{"passage_id": "p2", "text": null}\n', ParseError),
        (read_variants, "variants.jsonl",
         '{"topic_id": "1", "profile_id": "a", "index": 1, "text": "ok"}\n'
         '{"topic_id": "1", "profile_id": "a", "index": 2, "text": 5}\n', ParseError),
    ],
    ids=["topics-tsv-empty-query", "passages-tsv-empty-text", "topics-jsonl-int-query",
         "passages-jsonl-null-text", "variants-int-text"],
)
def test_bad_record_names_file_and_line(tmp_path, reader, name, text, error):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        reader(p)
    assert str(info.value).startswith(f"{p}:2: ")


def test_topic_normalized_to_nfc():
    decomposed = "café"
    t = Topic("1", decomposed)
    assert t.seed_query == "café"


DECOMPOSED = "cafe\u0301"
COMPOSED = "caf\u00e9"


@pytest.mark.parametrize(
    "record",
    [
        Topic(DECOMPOSED, DECOMPOSED, DECOMPOSED),
        Profile(DECOMPOSED, "persona", DECOMPOSED, DECOMPOSED),
        QueryVariant(DECOMPOSED, DECOMPOSED, 1, DECOMPOSED),
        Qrel(DECOMPOSED, DECOMPOSED, 2),
        AnnotationRecord(
            DECOMPOSED, DECOMPOSED, "similarity", DECOMPOSED, DECOMPOSED, DECOMPOSED,
            True, DECOMPOSED,
        ),
        Passage(DECOMPOSED, DECOMPOSED),
    ],
    ids=lambda record: type(record).__name__,
)
def test_record_stores_composed_text(record):
    # each field of the record, however it was given to the constructor
    fields = [getattr(record, name) for name in type(record)._fields]
    given_text = [v for v in fields if isinstance(v, str) and v.startswith("caf")]
    assert given_text
    assert all(text == COMPOSED for text in given_text)


def test_nfc_returns_ascii_unchanged():
    text = "plain ascii id"
    assert nfc(text) is text
    assert nfc(DECOMPOSED) == COMPOSED


# Ids and text mixing ASCII, precomposed letters and combining marks
# (acute, diaeresis, cedilla, ring), so many draws are not NFC.
_MARKED = "aeoncAEOC019_-\u00e9\u00f1\u0301\u0308\u0327\u030a"
_ids = st.text(st.sampled_from(_MARKED), min_size=1, max_size=6)
_texts = st.text(st.sampled_from(_MARKED + " ,.?"), min_size=1, max_size=20).filter(str.strip)
_round_trip = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def _runs(draw):
    """A run as `parse_trec_run` returns one, its ids drawn in any
    normal form, and the same run with every id NFC'd and keys sorted."""
    run, composed = {}, {}
    for system_id in draw(st.lists(_ids, min_size=1, max_size=2, unique_by=nfc)):
        for query_id in draw(st.lists(_ids, min_size=1, max_size=3, unique_by=nfc)):
            pids = draw(st.lists(_ids, min_size=1, max_size=4, unique_by=nfc))
            scores = draw(
                st.lists(
                    st.one_of(st.sampled_from([0.0, 2.5]), st.floats(-1e6, 1e6)),
                    min_size=len(pids),
                    max_size=len(pids),
                )
            )
            hits = sorted(zip(pids, scores), key=lambda hit: (-hit[1], nfc(hit[0])))
            run[system_id, query_id] = hits
            composed[nfc(system_id), nfc(query_id)] = [(nfc(pid), score) for pid, score in hits]
    return run, dict(sorted(composed.items()))


@_round_trip
@given(runs=_runs())
def test_trec_run_round_trip_with_combining_marks(tmp_path, runs):
    run, composed = runs
    path = tmp_path / "marked.run"
    write_trec_run(run, path)
    parsed = parse_trec_run(path)
    assert parsed == composed
    assert list(parsed) == list(composed)


@_round_trip
@given(
    keys=st.lists(
        st.tuples(_ids, _ids, st.sampled_from(["human", "llm"])),
        max_size=8,
        unique_by=lambda key: (nfc(key[0]), nfc(key[1]), key[2]),
    ),
    grades=st.lists(st.integers(0, 3), min_size=8, max_size=8),
)
def test_qrels_round_trip_with_combining_marks(tmp_path, keys, grades):
    qrels = [Qrel(q, p, grade, source) for (q, p, source), grade in zip(keys, grades)]
    path = tmp_path / "marked_qrels.txt"
    write_qrels(qrels, path, with_source=True)
    assert parse_qrels(path) == sorted(
        qrels, key=lambda q: (q.query_id, q.passage_id, q.source)
    )


@_round_trip
@given(
    ids=st.lists(_ids, min_size=1, max_size=6, unique_by=nfc),
    texts=st.lists(_texts, min_size=6, max_size=6),
)
def test_passages_round_trip_with_combining_marks(tmp_path, ids, texts):
    passages = [Passage(pid, text) for pid, text in zip(ids, texts)]
    path = tmp_path / "marked_passages.tsv"
    write_passages(passages, path)
    assert parse_passages(path) == passages


# JSON-escaped characters too: quotes, backslashes, tabs and newlines.
_json_texts = st.text(
    st.sampled_from(_MARKED + ' ,.?"\\\t\n{}'), min_size=1, max_size=20
).filter(str.strip)


@_round_trip
@given(
    # a topic id holds no QUERY_ID_SEP, which `_ids` can draw
    ids=st.lists(
        _ids.filter(lambda s: QUERY_ID_SEP not in s), min_size=1, max_size=4, unique_by=nfc
    ),
    seeds=st.lists(_json_texts, min_size=4, max_size=4),
    backstories=st.lists(st.none() | _json_texts, min_size=4, max_size=4),
)
def test_topics_round_trip_with_combining_marks(tmp_path, ids, seeds, backstories):
    topics = [Topic(*fields) for fields in zip(ids, seeds, backstories)]
    path = tmp_path / "marked_topics.jsonl"
    write_topics(topics, path)
    assert parse_topics(path) == topics


@_round_trip
@given(
    cells=st.lists(
        st.tuples(_ids, _ids, st.integers(1, VARIANTS_PER_PAIR), _json_texts), max_size=8
    )
)
def test_variants_round_trip_with_combining_marks(tmp_path, cells):
    variants = [QueryVariant(*cell) for cell in cells]
    path = tmp_path / "marked_variants.jsonl"
    write_variants(variants, path)
    assert read_variants(path) == variants


# Any JSON value, with strings holding what JSON escapes, what it need
# not (U+2028, non-ASCII) and a str subclass.
class _Str(str):
    pass


_json_strings = st.text(
    st.sampled_from('"\\/%\x00\x1f\x7f\t\n\u2028é漢\U0001F600 x{}'), max_size=8
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_strings
    | _json_strings.map(_Str),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner)
    | st.dictionaries(_json_strings, inner, max_size=3),
    max_leaves=6,
)


@given(st.lists(st.lists(_json_values, min_size=3, max_size=3), max_size=4))
def test_json_lines_are_json_dumps_of_each_object(rows):
    """Both forms, dicts or values under keys, write what one
    `json.dumps(..., ensure_ascii=False)` a line wrote."""
    keys = ("a", 'q"%s', "é\n")
    objects = [dict(zip(keys, row)) for row in rows]
    expected = [json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects]
    assert list(json_lines(objects)) == expected
    assert list(json_lines(rows, keys)) == expected


@pytest.mark.parametrize("keys", [None, ("a",)])
def test_json_lines_refuse_what_json_cannot_hold(keys):
    rows = [{"a": {1, 2}}] if keys is None else [({1, 2},)]
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        list(json_lines(rows, keys))


def _failing(rows):
    """The rows, then an error, as a writer meets a fault part-way."""
    yield from rows
    raise RuntimeError("fault part-way through the rows")


@pytest.mark.parametrize(
    "write",
    [
        lambda rows, path: write_csv(path, ["a", "b"], rows),
        lambda rows, path: write_jsonl(({"a": a, "b": b} for a, b in rows), path),
        lambda rows, path: write_qrels((Qrel(a, b, 1) for a, b in rows), path),
    ],
    ids=["csv", "jsonl", "qrels"],
)
def test_failed_write_keeps_the_old_file(tmp_path, write):
    path = tmp_path / "table"
    write([("q1", "p1")], path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="part-way"):
        write(_failing([("q2", "p2"), ("q3", "p3")]), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table"]
    with pytest.raises(RuntimeError, match="part-way"):
        write(_failing([("q2", "p2")]), tmp_path / "new")
    assert [p.name for p in tmp_path.iterdir()] == ["table"]


def test_topic_empty_seed_rejected():
    with pytest.raises(ValidationError):
        Topic("1", "   ")


def test_parse_trec_run_single_line(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 p7 1 12.5 bm25\n", encoding="utf-8")
    assert parse_trec_run(p) == {("bm25", "q1"): [("p7", 12.5)]}


def test_parse_trec_run_rank_gap(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 p7 1 12.5 bm25\nq1 Q0 p8 3 11.0 bm25\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="gap-free"):
        parse_trec_run(p)


def test_parse_trec_run_groups_interleaved_systems(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text(
        "q1 Q0 p1 1 9.0 sysA\n"
        "q1 Q0 p1 1 8.0 sysB\n"
        "q1 Q0 p2 2 7.5 sysA\n"
        "q1 Q0 p3 2 6.0 sysB\n",
        encoding="utf-8",
    )
    assert parse_trec_run(p) == {
        ("sysA", "q1"): [("p1", 9.0), ("p2", 7.5)],
        ("sysB", "q1"): [("p1", 8.0), ("p3", 6.0)],
    }


def test_parse_trec_run_bad_rank(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 p7 first 12.5 bm25\n", encoding="utf-8")
    with pytest.raises(ParseError, match="rank"):
        parse_trec_run(p)


def test_parse_trec_run_bad_score(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 p7 1 high bm25\n", encoding="utf-8")
    with pytest.raises(ParseError, match="score"):
        parse_trec_run(p)


@pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf", "-Infinity"])
def test_parse_trec_run_rejects_non_finite_score(tmp_path, score):
    # NaN compares false with everything, so the ordering checks cannot see it
    p = tmp_path / "run.txt"
    p.write_text(f"q1 Q0 p7 1 1.0 bm25\nq1 Q0 p8 2 {score} bm25\nq1 Q0 p9 3 7.0 bm25\n")
    with pytest.raises(ParseError) as info:
        parse_trec_run(p)
    assert str(info.value) == f"{p}:2: non-finite score {score!r}"


def test_parse_trec_run_increasing_score(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 p7 1 1.0 bm25\nq1 Q0 p8 2 2.0 bm25\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="score increases"):
        parse_trec_run(p)


def test_parse_trec_run_tie_order(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 p9 1 1.0 bm25\nq1 Q0 p1 2 1.0 bm25\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="tied scores"):
        parse_trec_run(p)


@pytest.mark.parametrize(
    "text, prefix, message",
    [
        ("q1 Q0 p7 1 2.0 sys\nq1 Q0 p8 0 1.0 sys\n", "{p}:2: ", "rank 0 must be >= 1"),
        ("q1 Q0 p7 1 2.0 sys\nq1 Q0 p8 1 1.0 sys\n", "{p}: ",
         "run sys, query q1: ranks are not a gap-free 1..n sequence"),
    ],
    ids=["record-rank-zero", "query-duplicate-rank"],
)
def test_bad_run_names_file(tmp_path, text, prefix, message):
    p = tmp_path / "sys.run"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        parse_trec_run(p)
    assert str(info.value) == prefix.format(p=p) + message


def test_trec_run_roundtrip(tmp_path):
    run = {("bm25", "q1"): [("p7", 12.5), ("p3", 11.25)], ("bm25", "q2"): [("p1", 3.0)]}
    p = tmp_path / "run.txt"
    write_trec_run(run, p)
    assert p.read_text(encoding="utf-8") == (
        "q1 Q0 p7 1 12.5 bm25\nq1 Q0 p3 2 11.25 bm25\nq2 Q0 p1 1 3.0 bm25\n"
    )
    assert parse_trec_run(p) == run


def _parse_trec_run_flat(path):
    """`parse_trec_run` as it was when it returned one record per result,
    kept as its oracle: a (tag, qid, docid, rank, score) tuple per line,
    each line checked as it is read, then one global sort by (tag, qid,
    rank) and each record checked against the one before."""
    records = []
    share = {}.setdefault
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cols = line.split()
            if not cols:
                continue
            if len(cols) != 6:
                raise ParseError(f"{path}:{lineno}: expected 6 columns, got {len(cols)}")
            qid, _, docid, rank_text, score_text, tag = cols
            try:
                rank = int(rank_text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer rank {rank_text!r}") from exc
            try:
                score = float(score_text)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric score {score_text!r}") from exc
            if not -math.inf < score < math.inf:
                raise ParseError(f"{path}:{lineno}: non-finite score {score_text!r}")
            if rank < 1:
                raise ValidationError(f"{path}:{lineno}: rank {rank} must be >= 1")
            tag, qid, docid = nfc(tag), nfc(qid), nfc(docid)
            records.append((share(tag, tag), share(qid, qid), share(docid, docid), rank, score))
    records.sort(key=lambda r: (r[0], r[1], r[3]))
    for prev, cur in zip([(None,) * 5, *records], records):
        system_id, query_id, passage_id, rank, score = cur
        new_query = query_id != prev[1] or system_id != prev[0]
        if rank != (1 if new_query else prev[3] + 1):
            fault = "ranks are not a gap-free 1..n sequence"
        elif new_query:
            continue
        elif score > prev[4]:
            fault = f"score increases at rank {rank}"
        elif score == prev[4] and passage_id < prev[2]:
            fault = f"tied scores out of passage_id order at rank {rank}"
        else:
            continue
        raise ValidationError(f"{path}: run {system_id}, query {query_id}: {fault}")
    return records


def _flat_records(run):
    """A run mapping as the oracle's records, each rank its list position."""
    return [
        (system_id, query_id, passage_id, rank, score)
        for (system_id, query_id), hits in run.items()
        for rank, (passage_id, score) in enumerate(hits, 1)
    ]


# Run-file tokens: ids with decomposed (e + U+0301) and precomposed
# non-ASCII letters, and rank and score texts each check rejects.
_RUN_TAGS = ("bm25", "sys")
_RUN_QIDS = ("q1", "q2", "t1__p__1")
_RUN_PIDS = ("p1", "p2", "p3")
_NON_ASCII_IDS = ("cafe\u0301", "caf\u00e9")
_RUN_SCORES = (9.5, 3.0, 2.5, 1.0, 0.0, -0.5)
_BAD_RANKS = ("0", "-1", "x", "7", "1", "2")  # 1 and 2 repeat a rank or leave a gap
_BAD_SCORES = ("nan", "inf", "-inf", "1e999", "high") + ("99.0",) * 4  # 99.0 rises, but not at rank 1
_BLANKS = ("", " ", "\t", "  \t ")


@st.composite
def _run_file_texts(draw):
    """Run-file text that is mostly valid: per (tag, qid), ranks 1..n over
    scores that do not rise, with passage ids drawn freely, so tied
    scores come in and out of order. Draws then break a rank or a score,
    change a line's column count, shuffle lines, add blank and
    whitespace-only lines, and pick LF, CRLF or lone CR line ends. About
    one file in three has non-ASCII ids, NFD and NFC spellings of one id."""
    extra = _NON_ASCII_IDS if draw(st.integers(0, 2)) == 0 else ()
    rows = []
    tags = st.sampled_from(_RUN_TAGS + extra)
    for tag in draw(st.lists(tags, min_size=1, max_size=2, unique=True)):
        for qid in draw(st.lists(st.sampled_from(_RUN_QIDS), min_size=1, max_size=2, unique=True)):
            n = draw(st.integers(1, 4))
            scores = sorted(draw(st.lists(st.sampled_from(_RUN_SCORES), min_size=n, max_size=n)))
            pids = draw(st.lists(st.sampled_from(_RUN_PIDS + extra), min_size=n, max_size=n))
            for rank, (pid, score) in enumerate(zip(pids, reversed(scores)), 1):
                rows.append([qid, "Q0", pid, str(rank), repr(score), tag])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        column, bad = draw(st.sampled_from(
            [(3, text) for text in _BAD_RANKS] + [(4, text) for text in _BAD_SCORES]
        ))
        row[column] = bad
    lines = [" ".join(row) for row in rows]
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from([lines[at].rsplit(" ", 1)[0], lines[at] + " extra"]))
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANKS)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _parse_outcome(parse, path):
    """What parse does with path: the records, each as its repr (field
    values and their types), or the exception type and message."""
    try:
        return [repr(record) for record in parse(path)]
    except Exception as exc:
        return type(exc), str(exc)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=_run_file_texts())
@example(text="q1 Q0 p1 1 2.0 s\r\n \r\n\r\nq1 Q0 p2 2 1.0 s\r\n\t\r\n")
@example(text="q1 Q0 p1 1 2.0\n")
@example(text="q1 Q0 p1 1 2.0 s x\n")
@example(text="q1 Q0 p1 0 2.0 s\n")
@example(text="q1 Q0 p1 -1 2.0 s\n")
@example(text="q1 Q0 p1 x 2.0 s\n")
@example(text="q1 Q0 p1 1 high s\n")
@example(text="q1 Q0 p1 1 nan s\n")
@example(text="q1 Q0 p1 1 inf s\n")
@example(text="q1 Q0 p1 1 1e999 s\n")
@example(text="q1 Q0 cafe\u0301 1 2.0 s\u0301\nq1 Q0 caf\u00e9 2 1.0 s\u0301\n")
@example(text="q1 Q0 p1 1 2.0\u00a0s\rq1\u2003Q0 p2 2 1.0 s\r")
@example(text="q1 Q0 p1 1 2.0 s\nq1 Q0 p2 3 1.0 s\n")
@example(text="q1 Q0 p1 1 1.0 s\nq1 Q0 p2 2 2.0 s\n")
@example(text="q1 Q0 p2 1 1.0 s\nq1 Q0 p1 2 1.0 s\n")
@example(text="q2 Q0 p1 2 1.0 t\nq1 Q0 p3 1 5.0 s\nq2 Q0 p2 1 2.0 t\nq1 Q0 p1 2 4.0 s\n")
@example(text="q1 Q0 p1 1 1.0 s\nq1 Q0 p2 2 2.0 s\nq1 Q0 p3 2 0.5 s\n")
@example(text="q1 Q0 p1 2 1.0 s\nq1 Q0 p2 2 0.5 s\nq1 Q0 p3 1 2.0 s\n")
@example(text="q1 Q0 p1 1 2.0 s\rq2 Q0 p1 1 2.0 s\rq1 Q0 p2 3 1.0 s\r")
def test_parse_trec_run_matches_per_line_oracle(tmp_path, text):
    path = tmp_path / "oracle.run"
    path.write_bytes(text.encode("utf-8"))
    outcome = _parse_outcome(lambda p: _flat_records(parse_trec_run(p)), path)
    assert outcome == _parse_outcome(_parse_trec_run_flat, path)
    if isinstance(outcome, list):
        run = parse_trec_run(path)
        assert list(run) == sorted(run)
        # equal ids of one file, NFC-equal ones included, are one string object
        first = {}
        for record in _flat_records(run):
            for column, value in zip(("system_id", "query_id", "passage_id"), record):
                assert first.setdefault((column, value), value) is value


def _parse_qrels_per_line(path):
    """`parse_qrels` as it was before its one-loop rewrite, kept as its
    oracle: lines from `rstrip`, blank ones skipped by `strip`, every
    record built by `Qrel`, duplicates keyed by attribute."""
    qrels = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        lines = [(n, raw.rstrip("\n")) for n, raw in enumerate(fh, start=1)]
    for lineno, line in lines:
        if not line.strip():
            continue
        cols = line.split()
        if len(cols) not in (4, 5):
            raise ParseError(f"{path}:{lineno}: expected 4 or 5 columns, got {len(cols)}")
        qid, _, docid, grade_text = cols[:4]
        source = cols[4] if len(cols) == 5 else "human"
        try:
            grade = int(grade_text)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer grade {grade_text!r}") from exc
        try:
            qrel = Qrel(qid, docid, grade, source)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        key = (qrel.query_id, qrel.passage_id, qrel.source)
        if key in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate qrel for {key}")
        seen.add(key)
        qrels.append(qrel)
    return qrels


_QREL_GRADES = ("0", "1", "2", "3")
_BAD_GRADES = ("x", "4", "-1", "+3", "\u0663")  # U+0663 is an Arabic-Indic 3, which int() reads
_QREL_SOURCES = (None, "human", "llm")


@st.composite
def _qrels_file_texts(draw):
    """Qrels text that is mostly valid: distinct (qid, docid, source)
    rows, with a 5th source column or not, whose keys may still clash:
    a row without a source is human's, an id may be the NFD of another,
    and about one file in four repeats a row.
    Draws then break a grade or a source, change a line's column count
    to 3 or 6, join columns with non-ASCII spaces, add blank and
    whitespace-only lines, and pick LF or CRLF line ends."""
    extra = _NON_ASCII_IDS if draw(st.integers(0, 2)) == 0 else ()
    keys = st.tuples(
        st.sampled_from(_RUN_QIDS + extra),
        st.sampled_from(_RUN_PIDS + extra),
        st.sampled_from(_QREL_SOURCES),
    )
    rows = []
    for qid, pid, source in draw(st.lists(keys, min_size=1, max_size=8, unique=True)):
        row = [qid, "0", pid, draw(st.sampled_from(_QREL_GRADES))]
        rows.append(row if source is None else [*row, source])
    if draw(st.integers(0, 3)) == 0:
        rows.append(list(draw(st.sampled_from(rows))))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["grade", "source", "short", "long"]))
        if kind == "grade":
            row[3:4] = [draw(st.sampled_from(_BAD_GRADES))]
        elif kind == "source":
            row[4:] = ["bogus"]
        elif kind == "short":
            del row[3:]
        else:
            row[4:] = ["llm", "extra"]
    seps = draw(st.lists(st.sampled_from([" ", "\t", " \u2003"]), min_size=1, max_size=2))
    lines = [draw(st.sampled_from(seps)).join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANKS)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=_qrels_file_texts())
@example(text="q1 0 p1 2\r\n \r\n\r\nq1 0 p2 1 llm\r\n\t\r\n")
@example(text="q1 0 p1\n")
@example(text="q1 0 p1 2 llm x\n")
@example(text="q1 0 p1 x\n")
@example(text="q1 0 p1 4\n")
@example(text="q1 0 p1 -1\n")
@example(text="q1 0 p1 2 bogus\n")
@example(text="q1 0 p1 2\nq1 0 p1 3 human\n")
@example(text="q1 0 p1 2 llm\nq1 0 p1 3 human\n")
@example(text="q1 0 cafe\u0301 2\nq1 0 caf\u00e9 1\n")
@example(text="q1\u00a00 p1 2\u2003llm\n")
def test_parse_qrels_matches_per_line_oracle(tmp_path, text):
    path = tmp_path / "oracle.qrels"
    path.write_bytes(text.encode("utf-8"))
    assert _parse_outcome(parse_qrels, path) == _parse_outcome(_parse_qrels_per_line, path)


def test_parse_qrels(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 p7 3\n", encoding="utf-8")
    assert parse_qrels(p) == [Qrel("q1", "p7", 3, "human")]


def test_parse_qrels_duplicate(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 p7 3\nq1 0 p7 2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_qrels(p)


@pytest.mark.parametrize("grade", ["-1", "4"])
def test_parse_qrels_grade_range(tmp_path, grade):
    p = tmp_path / "qrels.txt"
    p.write_text(f"q1 0 p7 {grade}\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_qrels(p)


def test_qrels_source_column_roundtrip(tmp_path):
    qrels = [Qrel("q1", "p7", 3, "human"), Qrel("q1", "p8", 1, "llm")]
    p = tmp_path / "qrels.txt"
    write_qrels(qrels, p, with_source=True)
    assert parse_qrels(p) == qrels


def test_qrels_same_pair_two_sources_allowed(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 p7 3 human\nq1 0 p7 2 llm\n", encoding="utf-8")
    assert len(parse_qrels(p)) == 2


def test_variants_roundtrip_at_full_scale(tmp_path):
    variants = [
        QueryVariant(f"t{t}", f"prof{p}", i, f"variant text {t} {p} {i}")
        for t in range(53)
        for p in range(6)
        for i in (1, 2, 3)
    ]
    assert len(variants) == 954
    p = tmp_path / "variants.jsonl"
    write_variants(variants, p)
    back = read_variants(p)
    assert back == variants


def test_variants_empty_roundtrip(tmp_path):
    p = tmp_path / "variants.jsonl"
    write_variants([], p)
    assert read_variants(p) == []


def test_read_variants_missing_key(tmp_path):
    p = tmp_path / "variants.jsonl"
    p.write_text('{"topic_id": "1", "profile_id": "a", "index": 1}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=":1:.*text"):
        read_variants(p)


def test_read_variants_non_utf8(tmp_path):
    p = tmp_path / "variants.jsonl"
    p.write_bytes(b'{"topic_id": "1"\xff}\n')
    with pytest.raises(ParseError, match=":1:"):
        read_variants(p)


_RUN_LINES = [b"q1 Q0 p1 1 2.0 s", b"q1 Q0 p2 2 1.0 s", b"q1 Q0 p\xff 3 0.5 s"]


@pytest.mark.parametrize(
    "reader, name, data, reason",
    [
        (parse_trec_run, "bad.run", b"\n".join(_RUN_LINES) + b"\n", "invalid start byte"),
        (parse_trec_run, "crlf.run", b"\r\n".join(_RUN_LINES), "invalid start byte"),
        (parse_trec_run, "cr.run", b"\r".join(_RUN_LINES) + b"\r", "invalid start byte"),
        (parse_qrels, "qrels.txt", b"q1 0 p1 1\n\nq1 0 p\xff 3\n", "invalid start byte"),
        # Latin-1: the e-acute byte is followed by an ASCII letter
        (parse_topics, "topics.tsv", b"t1\tone\nt2\ttwo\nt3\tthr\xe9e\n",
         "invalid continuation byte"),
        (read_variants, "variants.jsonl", b"{}\n{}\n{\"text\": \"\xc3\"}\n",
         "invalid continuation byte"),
        (parse_config_file, "bad.cfg", b"# toy\nk = 10\nout = \xff\n", "invalid start byte"),
    ],
    ids=["run-lf", "run-crlf", "run-cr", "qrels", "topics-tsv", "variants", "config"],
)
def test_undecodable_byte_names_file_and_line(tmp_path, reader, name, data, reason):
    p = tmp_path / name
    p.write_bytes(data)
    with pytest.raises(ParseError) as info:
        reader(p)
    assert str(info.value) == f"{p}:3: not valid UTF-8 ({reason})"


def test_undecodable_byte_past_the_first_decoded_chunk(tmp_path):
    """The text reader decodes the file in chunks of a few kilobytes; the
    line named is the file's, not one counted within a chunk."""
    p = tmp_path / "long.run"
    lines = [f"q1 Q0 p{rank} {rank} {2000.0 - rank!r} s\n".encode() for rank in range(1, 1201)]
    lines[1000] = lines[1000].replace(b"p1001", b"p\x80")
    p.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as info:
        parse_trec_run(p)
    assert str(info.value) == f"{p}:1001: not valid UTF-8 (invalid start byte)"


def test_variant_index_bounds():
    with pytest.raises(ValidationError):
        QueryVariant("t", "p", 0, "text")
    with pytest.raises(ValidationError):
        QueryVariant("t", "p", 4, "text")


def test_expected_variant_count_published_sizes():
    assert expected_variant_count(53, 6) == 954
    assert expected_variant_count(76, 8) == 1824
    assert expected_variant_count(0, 8) == 0


def test_expected_variant_count_rejects_negative():
    with pytest.raises(ValueError):
        expected_variant_count(-1, 6)


def test_query_id_roundtrip():
    qid = variant_query_id("2001", "child", 2)
    assert qid == "2001__child__2"
    assert parse_variant_query_id(qid) == ("2001", "child", 2)
    assert parse_variant_query_id("2001") is None
    assert query_cell(qid) == ("2001", "child", 2)
    assert query_cell("2001") == ("2001", "seed", 0)


def test_query_id_rejects_separator_in_components():
    with pytest.raises(ValidationError):
        variant_query_id("a__b", "child", 1)


def test_profile_neutral_description_must_be_empty():
    Profile("neutral", "neutral", "Neutral", "")
    with pytest.raises(ValidationError):
        Profile("neutral", "neutral", "Neutral", "some text")


def test_run_record_rank_positive(tmp_path):
    p = tmp_path / "sys.run"
    for rank in (0, -1):
        p.write_text(f"q Q0 p1 1 2.0 s\nq Q0 p2 {rank} 1.0 s\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            parse_trec_run(p)
        assert str(info.value) == f"{p}:2: rank {rank} must be >= 1"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Qrel("q", "p", 4), "grade 4 outside 0..3"),
        (lambda: Qrel("q", "p", 2, "crowd"), "unknown qrel source 'crowd'"),
    ],
    ids=["grade-four", "unknown-source"],
)
def test_record_checks_keep_their_messages(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Qrel("q", "p", 2), "grade"),
        (lambda: Qrel("q", "p", 2), "source"),
    ],
    ids=["qrel-grade", "qrel-source"],
)
def test_record_is_immutable(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert hash(record) == hash(build())


def test_record_is_its_tuple_of_fields():
    assert Qrel("q", "p", 1) == ("q", "p", 1, "human")
    assert sorted([Qrel("q2", "p", 1), Qrel("q1", "p", 3)]) == [
        Qrel("q1", "p", 3), Qrel("q2", "p", 1)
    ]
    assert Qrel("q", "p", 2).source == "human"


_TOPIC = Topic("t", "q")
_PROFILE = Profile("p", "persona", "P", "d")
_VARIANT = QueryVariant("t", "p", 1, "v")
_ANNOTATION = AnnotationRecord("g", "a", "similarity", "s", "v", "yes")
_PASSAGE = Passage("p", "text")
_CONFIG = PipelineConfig(Path("t"), Path("c"), Path("p"), Path("o"))


# A valid record of each checked type, one field to set, a value that
# breaks a check, and the check's message.
BROKEN_FIELDS = [
    (_TOPIC, "topic_id", "", "topic_id must be non-empty"),
    (_TOPIC, "topic_id", "t 1", "topic_id 't 1' holds whitespace"),
    (_TOPIC, "topic_id", "t__p__1", "topic_id 't__p__1' holds '__'"),
    (_TOPIC, "seed_query", " ", "topic t: empty seed query"),
    (_PROFILE, "profile_id", "", "profile_id must be non-empty"),
    (_PROFILE, "profile_id", "p\u2003q", "profile_id 'p\\u2003q' holds whitespace"),
    (_PROFILE, "profile_id", "p__q", "profile_id 'p__q' holds '__'"),
    (_PROFILE, "method", "crowd", "unknown profile method 'crowd'"),
    (Profile("n", "neutral", "N"), "description", "d",
     "neutral profile must have empty description"),
    (_VARIANT, "index", True, "variant index must be an integer"),
    (_VARIANT, "index", 4, "variant index 4 outside 1..3"),
    (_VARIANT, "text", " ", "variant (t, p, 1): empty text"),
    (Qrel("q", "p", 2), "grade", 4, "grade 4 outside 0..3"),
    (Qrel("q", "p", 2), "source", "crowd", "unknown qrel source 'crowd'"),
    (_ANNOTATION, "task", "rank", "unknown annotation task 'rank'"),
    (_ANNOTATION, "is_gold", True, "gold pair g lacks gold_answer"),
    (_PASSAGE, "passage_id", "", "passage_id must be non-empty"),
    (_PASSAGE, "passage_id", "p\t1", "passage_id 'p\\t1' holds whitespace"),
    (_PASSAGE, "text", " ", "passage p: empty text"),
    (_CONFIG, "k", 0, "k=0 must be >= 1"),
    (_CONFIG, "alpha", 0.5, "alpha=0.5 outside (0, 0.5)"),
    (_CONFIG, "gain", "log", "unknown gain 'log'"),
    (_CONFIG, "provider", "file", "unknown provider 'file'"),
    (_CONFIG, "merge", "human", "unknown merge policy 'human'"),
    (_CONFIG, "methods", ("crowd",), "unknown methods ['crowd']"),
    (_CONFIG, "methods", (), "methods must not be empty"),
    (Bm25Params(), "k1", 0, "k1=0 must be > 0"),
    (Bm25Params(), "b", 1.5, "b=1.5 outside [0, 1]"),
]


@pytest.mark.parametrize(
    "record, field, value, message",
    BROKEN_FIELDS,
    ids=[f"{type(r).__name__}.{f}={v!r}" for r, f, v, _ in BROKEN_FIELDS],
)
@pytest.mark.parametrize("build", ["constructor", "_make", "_replace"])
def test_every_way_to_build_a_record_checks_it(record, field, value, message, build):
    cls = type(record)
    values = list(record)
    values[cls._fields.index(field)] = value
    error = ValueError if cls is Bm25Params else ValidationError
    with pytest.raises(error) as info:
        if build == "constructor":
            cls(*values)
        elif build == "_make":
            cls._make(values)
        else:
            record._replace(**{field: value})
    assert (type(info.value), str(info.value)) == (error, message)


def test_record_replace_is_checked():
    with pytest.raises(ValidationError):
        Qrel("q", "p", 2)._replace(grade=4)
    assert Qrel("q", "p", 2)._replace(passage_id=DECOMPOSED).passage_id == COMPOSED


@pytest.mark.parametrize(
    "reader, name, text",
    [
        (lambda p: _flat_records(parse_trec_run(p)), "sys.run",
         f"q1 Q0 p1 1 2.0 sys\nq1 Q0 {DECOMPOSED} 2 1.0 sys\n"),
        (parse_qrels, "qrels.txt", f"q1 0 p1 2\n{DECOMPOSED} 0 p1 1 llm\n"),
    ],
    ids=["run", "qrels"],
)
def test_reader_composes_text_on_the_last_line(tmp_path, reader, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    fields = list(reader(p)[-1])
    assert COMPOSED in fields
    assert DECOMPOSED not in fields


def test_annotations_roundtrip(tmp_path):
    records = [
        AnnotationRecord("pair1", "ann1", "similarity", "seed q", "variant q", "yes"),
        AnnotationRecord(
            "gold1",
            "ann1",
            "alignment",
            "seed q",
            "variant q",
            "child",
            is_gold=True,
            gold_answer="child",
        ),
    ]
    p = tmp_path / "annotations.jsonl"
    write_jsonl((r._asdict() for r in records), p)
    assert read_annotations(p) == records


@pytest.mark.parametrize("is_gold", ['"false"', '"true"', "0", "1", "null"])
def test_annotation_is_gold_must_be_a_json_boolean(tmp_path, is_gold):
    line = '{"pair_id": "p", "annotator_id": "a", "task": "similarity", "seed_query": "s", ' \
        '"variant": "v", "answer": "similar", "gold_answer": "similar"'
    p = tmp_path / "annotations.jsonl"
    p.write_text(f'{line}, "is_gold": true}}\n{line}}}\n{line}, "is_gold": {is_gold}}}\n')
    with pytest.raises(ParseError) as info:
        read_annotations(p)
    assert str(info.value) == f"{p}:3: is_gold must be a boolean"
    p.write_text(f'{line}, "is_gold": true}}\n{line}}}\n{line}, "is_gold": false}}\n')
    assert [r.is_gold for r in read_annotations(p)] == [True, False, False]


def test_annotation_gold_requires_gold_answer():
    with pytest.raises(ValidationError):
        AnnotationRecord("g", "a", "similarity", "s", "v", "yes", is_gold=True)


def test_parse_passages_tsv(tmp_path):
    p = tmp_path / "passages.tsv"
    p.write_text("p1\tSome passage text.\np2\tAnother one.\n", encoding="utf-8")
    passages = parse_passages(p)
    assert passages == [Passage("p1", "Some passage text."), Passage("p2", "Another one.")]


def test_parse_passages_duplicate(tmp_path):
    p = tmp_path / "passages.tsv"
    p.write_text("p1\ta\np1\tb\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_passages(p)


# One case per record type the pipeline writes as a CSV table; the
# header is the record's field names, in order.
@pytest.mark.parametrize(
    "records, header, rows",
    [
        pytest.param(
            [
                ValidationVerdict("t1", "o", 1, "order", True),
                ValidationVerdict("t1", "o", 2, "order", False, "token multisets differ"),
            ],
            "topic_id,profile_id,index,check,valid,detail",
            [
                ["t1", "o", "1", "order", "true", ""],
                ["t1", "o", "2", "order", "false", "token multisets differ"],
            ],
            id="verdicts",
        ),
        pytest.param(
            [ConsensusReport("alignment", "p", 8, 6, 0.75, 2)],
            "task,profile_id,n_pairs,n_agree_correct,accuracy,n_disagreements",
            [["alignment", "p", "8", "6", "0.75", "2"]],
            id="consensus",
        ),
        pytest.param(
            [VariantFeatureRecord("2001", "child", 1, 0.5, 3, -3.4, 1.0)],
            "topic_id,profile_id,index,jaccard,length_words,fk_grade,lexical_diversity",
            [["2001", "child", "1", "0.5", "3", "-3.4", "1.0"]],
            id="features",
        ),
        pytest.param(
            [CoverageReport("s", "p", 10, 7, 10, 1 - 7 / 10)],
            "system_id,profile_id,k,judged,total,missing_fraction",
            [["s", "p", "10", "7", "10", "0.30000000000000004"]],
            id="coverage",
        ),
        pytest.param(
            [AgreementReport(4, 0.25, 0.5, 0.75, 0.6)],
            "n,mae_binary,kappa_binary,mae_graded,alpha_graded",
            [["4", "0.25", "0.5", "0.75", "0.6"]],
            id="agreement",
        ),
    ],
)
def test_write_csv_dataclass_rows(tmp_path, records, header, rows):
    path = tmp_path / "table.csv"
    write_csv(path, type(records[0])._fields, records)
    text = path.read_bytes().decode("utf-8")
    assert text.split("\r\n")[0] == header
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1:] == rows


def test_write_csv_cells_and_bytes(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(
        path,
        ["a", "b"],
        [
            (None, True),
            (False, 0.1 + 0.2),
            (7, 'say "hi", ünï'),
        ],
    )
    assert path.read_bytes() == (
        'a,b\r\n,true\r\nfalse,0.30000000000000004\r\n7,"say ""hi"", ünï"\r\n'
    ).encode("utf-8")


def test_read_csv_returns_written_cells(tmp_path):
    path = tmp_path / "table.csv"
    header = ["name", "value", "flag", "note"]
    write_csv(path, header, [("a", 0.1 + 0.2, True, None), ("b,c", 7, False, 'say "hi", ünï')])
    # requested out of header order, with `flag` not requested
    columns, types = ("note", "value", "name"), (str, float, str)
    assert read_csv(path, columns, types) == [
        ("", 0.1 + 0.2, "a"),
        ('say "hi", ünï', 7.0, "b,c"),
    ]
    write_csv(path, header, [])
    assert read_csv(path, columns, types) == []
