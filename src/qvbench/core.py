"""Domain types and file I/O for the variant-benchmarking pipeline.

Flat value objects plus parsers/writers for the on-disk formats: topics
as TSV or JSONL, profiles as a JSON array, runs and qrels as TREC plain
text, variants and annotations as JSONL, and every result table as
CSV through `write_csv` and back through `read_csv`. Every writer goes
through `atomic_write`, so a process that fails part-way never leaves
a half-written file.
All ingested text is normalized to Unicode NFC so downstream equality
checks are stable.

It also holds the provider-call contract that generation and labelling
share: the error types, placeholder filling and the
retry-until-parsed loop. A stage that only reads labels, or only
reports provider failures, needs no more than this module.
"""

from __future__ import annotations

import csv
import json
import math
import os
import unicodedata
from contextlib import contextmanager
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence, TypeVar

PROFILE_METHODS = ("persona", "group", "textual", "neutral")
QREL_SOURCES = ("human", "llm")
MERGE_POLICIES = ("human-only", "llm-only", "human-preferred")
ANNOTATION_TASKS = ("similarity", "alignment")

QUERY_ID_SEP = "__"

# The relevance scale of human judgments and LLM labels alike.
GRADES = (0, 1, 2, 3)

# The study protocol: every (topic, profile) pair gets this many
# variants, indexed 1..VARIANTS_PER_PAIR.
VARIANTS_PER_PAIR = 3

# The profile id the seed query of a topic runs under (index 0); no
# profile may take it.
SEED_PROFILE = "seed"

# A run: each (system_id, query_id)'s (passage_id, score) results in rank order.
Run = dict[tuple[str, str], list[tuple[str, float]]]


class ParseError(ValueError):
    """A file does not match its on-disk format contract."""


class ValidationError(ValueError):
    """Parsed data violates a domain invariant."""


class GenerationError(Exception):
    """No parseable response after all retries; carries every raw response."""

    def __init__(self, message: str, raw_responses: Sequence[str] = ()):
        super().__init__(message)
        self.raw_responses = tuple(raw_responses)


class TransportError(Exception):
    """The provider endpoint was unreachable or rejected the request."""


def nfc(text: str) -> str:
    """The NFC form of text; ASCII text is already NFC and comes back as is."""
    return text if text.isascii() else unicodedata.normalize("NFC", text)


class _Validated:
    """First base of a record built from a file, a flag or a library
    argument, `class X(_Validated, _XFields)`: `_XFields` is the
    NamedTuple of X's fields and defaults, and X's `__new__` builds
    through it and checks the values. A namedtuple's own `_make`, and so
    its `_replace`, would skip that `__new__`; this `_make` calls X. A
    record that one function of the package computes and builds is a
    plain NamedTuple: its values are checked where they enter, not again.
    Being a tuple, a record is cheap to build, immutable and hashable,
    and equals and orders like the plain tuple of its fields.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _nfc_fields(record):
    """record, or a copy of it with each non-ASCII str field NFC'd."""
    for value in record:
        if isinstance(value, str) and not value.isascii():
            values = [nfc(v) if isinstance(v, str) else v for v in record]
            return tuple.__new__(type(record), values)
    return record


def _check_id(field: str, value: str, composite: bool = False) -> None:
    """An id goes into whitespace-separated run and qrels lines, and a
    `composite` one (a topic's or a profile's) into variant query ids."""
    if not value:
        raise ValidationError(f"{field} must be non-empty")
    if value.split() != [value]:
        raise ValidationError(f"{field} {value!r} holds whitespace")
    if composite and QUERY_ID_SEP in value:
        raise ValidationError(f"{field} {value!r} holds {QUERY_ID_SEP!r}")


class _TopicFields(NamedTuple):
    topic_id: str
    seed_query: str
    backstory: Optional[str] = None


class Topic(_Validated, _TopicFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _nfc_fields(_TopicFields.__new__(cls, *args, **kwargs))
        _check_id("topic_id", self.topic_id, composite=True)
        if not self.seed_query.strip():
            raise ValidationError(f"topic {self.topic_id}: empty seed query")
        return self


class _ProfileFields(NamedTuple):
    profile_id: str
    method: str
    name: str
    description: str = ""


class Profile(_Validated, _ProfileFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _nfc_fields(_ProfileFields.__new__(cls, *args, **kwargs))
        _check_id("profile_id", self.profile_id, composite=True)
        if self.method not in PROFILE_METHODS:
            raise ValidationError(f"unknown profile method {self.method!r}")
        if self.method == "neutral" and self.description:
            raise ValidationError("neutral profile must have empty description")
        return self


class _QueryVariantFields(NamedTuple):
    topic_id: str
    profile_id: str
    index: int
    text: str


class QueryVariant(_Validated, _QueryVariantFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _nfc_fields(_QueryVariantFields.__new__(cls, *args, **kwargs))
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise ValidationError("variant index must be an integer")
        if not 1 <= self.index <= VARIANTS_PER_PAIR:
            raise ValidationError(f"variant index {self.index} outside 1..{VARIANTS_PER_PAIR}")
        if not self.text.strip():
            raise ValidationError(
                f"variant ({self.topic_id}, {self.profile_id}, {self.index}): empty text"
            )
        return self

    @property
    def query_id(self) -> str:
        return variant_query_id(self.topic_id, self.profile_id, self.index)


class _QrelFields(NamedTuple):
    query_id: str
    passage_id: str
    grade: int
    source: str


class Qrel(_Validated, _QrelFields):
    """One relevance grade (0..3) for a (query, passage), from a human
    judge or the LLM. Built by the thousand, it builds its own tuple, not
    through `_QrelFields`, and only a non-ASCII id costs an `nfc` call."""

    __slots__ = ()

    def __new__(cls, query_id: str, passage_id: str, grade: int, source: str = "human"):
        if grade not in GRADES:
            raise ValidationError(f"grade {grade} outside 0..3")
        if source not in QREL_SOURCES:
            raise ValidationError(f"unknown qrel source {source!r}")
        if not (query_id.isascii() and passage_id.isascii()):
            query_id, passage_id = nfc(query_id), nfc(passage_id)
        return tuple.__new__(cls, (query_id, passage_id, grade, source))


class _AnnotationRecordFields(NamedTuple):
    pair_id: str
    annotator_id: str
    task: str
    seed_query: str
    variant: str
    answer: str
    is_gold: bool = False
    gold_answer: Optional[str] = None


class AnnotationRecord(_Validated, _AnnotationRecordFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _nfc_fields(_AnnotationRecordFields.__new__(cls, *args, **kwargs))
        if self.task not in ANNOTATION_TASKS:
            raise ValidationError(f"unknown annotation task {self.task!r}")
        if self.is_gold and self.gold_answer is None:
            raise ValidationError(f"gold pair {self.pair_id} lacks gold_answer")
        return self


class _PassageFields(NamedTuple):
    passage_id: str
    text: str


class Passage(_Validated, _PassageFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _nfc_fields(_PassageFields.__new__(cls, *args, **kwargs))
        _check_id("passage_id", self.passage_id)
        if not self.text.strip():
            raise ValidationError(f"passage {self.passage_id}: empty text")
        return self


def variant_query_id(topic_id: str, profile_id: str, index: int) -> str:
    """Stable query id for a variant: topic__profile__index.

    Seed queries run under the bare topic_id, so the separator must not
    occur inside either component.
    """
    if QUERY_ID_SEP in topic_id or QUERY_ID_SEP in profile_id:
        raise ValidationError(f"{QUERY_ID_SEP!r} not allowed inside id components")
    return f"{topic_id}{QUERY_ID_SEP}{profile_id}{QUERY_ID_SEP}{index}"


def parse_variant_query_id(query_id: str):
    """(topic_id, profile_id, index) for variant ids, None for seed ids."""
    parts = query_id.split(QUERY_ID_SEP)
    if len(parts) != 3:
        return None
    topic_id, profile_id, index_text = parts
    if not (topic_id and profile_id and index_text.isdigit()):
        return None
    return topic_id, profile_id, int(index_text)


def query_cell(query_id: str) -> tuple[str, str, int]:
    """(topic_id, profile_id, index) of any query id; a seed id is its
    own topic under SEED_PROFILE with index 0."""
    return parse_variant_query_id(query_id) or (query_id, SEED_PROFILE, 0)


@contextmanager
def atomic_write(path, newline=None):
    """A UTF-8 text file to write that takes the place of `path` only when
    the block completes.

    The text goes to a temporary file beside `path`, which `os.replace`
    moves over it on success and which is deleted when the block raises,
    so a failed process leaves the old file or the new one, never part
    of either. Nothing is fsynced: this guards against a process that
    fails, not against power loss. `newline` is `open`'s.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _decoding(path):
    """Turns a UnicodeDecodeError from reading `path` into a ParseError naming its line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # the reader decoded in chunks, so find the byte in the file
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as found:  # bytes.splitlines splits where text reading does
            line = len(data[: found.start + 1].splitlines())
            raise ParseError(f"{path}:{line}: not valid UTF-8 ({found.reason})") from exc
        raise


def _read_records(path, build, required=(), text=(), columns=None) -> list:
    """Records of a TSV or JSONL file, one per non-blank line.

    The file is JSONL when `columns` is None or its name ends in
    `.jsonl`; otherwise each line holds the tab-separated `columns`,
    the first (an id) stripped. Each line becomes a dict that must hold
    the `required` keys and a string under every `text` key (an
    optional one may be absent or null); `build` turns it into a
    record. Every ParseError and ValidationError names the file and line.
    """
    jsonl = columns is None or str(path).endswith(".jsonl")
    records = []
    with open(path, encoding="utf-8") as fh, _decoding(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            if jsonl:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{where}: invalid JSON ({exc.msg})") from exc
                if not isinstance(obj, dict):
                    raise ParseError(f"{where}: expected a JSON object")
            else:
                cols = line.split("\t")
                if len(cols) != len(columns):
                    raise ParseError(
                        f"{where}: expected {len(columns)} tab-separated fields, got {len(cols)}"
                    )
                obj = dict(zip(columns, [cols[0].strip(), *cols[1:]]))
            for key in required:
                if key not in obj:
                    raise ParseError(f"{where}: missing key {key!r}")
            for key in text:
                value = obj.get(key)
                if not isinstance(value, str) and (value is not None or key in required):
                    raise ParseError(f"{where}: {key} must be a string, got {type(value).__name__}")
            try:
                records.append(build(obj))
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{where}: {exc}") from exc
    return records


def _read_id_text(path, cls, id_key: str, text_key: str, optional=()) -> list:
    """Records of `cls(id, text, *optional)`, from TSV `id<TAB>text` or JSONL.

    Ids go through str() and must be unique.
    """
    seen: set[str] = set()

    def build(obj):
        record = cls(str(obj[id_key]), obj[text_key], *(obj.get(k) for k in optional))
        record_id = getattr(record, id_key)
        if record_id in seen:
            raise ValidationError(f"duplicate {id_key} {record_id}")
        seen.add(record_id)
        return record

    keys = (id_key, text_key)
    return _read_records(path, build, keys, (text_key, *optional), columns=keys)


def parse_topics(path) -> list[Topic]:
    """Seed topics: `topic_id<TAB>seed_query`, or JSONL when the name ends in `.jsonl`."""
    return _read_id_text(path, Topic, "topic_id", "seed_query", optional=("backstory",))


def load_profiles(path=None) -> list[Profile]:
    """Bundled or user-supplied profile descriptions as Profile records."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "profiles.json")
    with open(path, encoding="utf-8") as fh, _decoding(path):
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a JSON array of profiles")
    profiles = []
    seen = set()
    for i, entry in enumerate(data):
        try:
            if not isinstance(entry, dict):
                raise ParseError("not an object")
            missing = [key for key in ("profile_id", "method", "name") if key not in entry]
            if missing:
                raise ParseError(f"lacks key {missing[0]!r}")
            fields = {key: entry[key] for key in Profile._fields if key in entry}
            for key, value in fields.items():
                if not isinstance(value, str):
                    raise ParseError(f"{key} must be a string")
            profile = Profile(**fields)
            if profile.profile_id == SEED_PROFILE:
                raise ParseError(f"profile_id {SEED_PROFILE!r} is reserved for seed queries")
            if profile.profile_id in seen:
                raise ParseError(f"duplicate profile_id {profile.profile_id!r}")
        except ValueError as exc:
            raise ParseError(f"{path}: profiles entry {i}: {exc}") from exc
        seen.add(profile.profile_id)
        profiles.append(profile)
    return profiles


def write_topics(topics: Iterable[Topic], path) -> None:
    """JSONL; a topic without a backstory is written without the key."""
    write_jsonl(({k: v for k, v in t._asdict().items() if v is not None} for t in topics), path)


def parse_trec_run(path) -> Run:
    """A TREC run file (lines: qid Q0 docid rank score tag) as a `Run`,
    keys sorted, whatever the order of its lines.

    Every score must be finite and every rank >= 1. Per (tag, qid), ranks
    are exactly 1..n, scores do not increase with rank, and tied scores
    are ordered by ascending passage_id; a line's own fault is reported
    first, then the first of these in (tag, qid, rank) order. Equal ids
    (after NFC) are one string object across the run, through a table
    local to the call.
    """
    groups: dict[tuple[str, str], tuple[list[int], list[tuple[str, float]]]] = {}
    share = {}.setdefault
    tag_seen = qid_seen = ranks = hits = None
    with open(path, encoding="utf-8") as fh, _decoding(path):
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
                # NaN would pass every ordering check below: its comparisons are all false
                raise ParseError(f"{path}:{lineno}: non-finite score {score_text!r}")
            if rank < 1:
                raise ValidationError(f"{path}:{lineno}: rank {rank} must be >= 1")
            if not line.isascii():
                tag, qid, docid = nfc(tag), nfc(qid), nfc(docid)
            if qid != qid_seen or tag != tag_seen:  # a list's lines mostly come together
                tag_seen, qid_seen = share(tag, tag), share(qid, qid)
                ranks, hits = groups.setdefault((tag_seen, qid_seen), ([], []))
            ranks.append(rank)
            hits.append((share(docid, docid), score))
    run = {}
    for key in sorted(groups):
        ranks, hits = groups[key]
        if ranks != list(range(1, len(ranks) + 1)):
            order = sorted(range(len(ranks)), key=ranks.__getitem__)  # stable: ties keep file order
            ranks, hits = [ranks[i] for i in order], [hits[i] for i in order]
        prev_pid, prev_score = hits[0]
        for position, (rank, (pid, score)) in enumerate(zip(ranks, hits), 1):
            if rank != position:
                fault = "ranks are not a gap-free 1..n sequence"
            elif score > prev_score:
                fault = f"score increases at rank {rank}"
            elif score == prev_score and pid < prev_pid:
                fault = f"tied scores out of passage_id order at rank {rank}"
            else:
                prev_pid, prev_score = pid, score
                continue
            raise ValidationError(f"{path}: run {key[0]}, query {key[1]}: {fault}")
        run[key] = hits
    return run


def format_trec_run(run: Run) -> str:
    """The text of a TREC run file, the lists in key order."""
    return "".join(
        f"{query_id} Q0 {passage_id} {rank} {score!r} {system_id}\n"
        for system_id, query_id in sorted(run)
        for rank, (passage_id, score) in enumerate(run[system_id, query_id], 1)
    )


def write_trec_run(run: Run, path) -> None:
    with atomic_write(path) as fh:
        fh.write(format_trec_run(run))


def parse_qrels(path) -> list[Qrel]:
    """TREC qrels: qid 0 docid grade, with an optional 5th source column."""
    qrels: list[Qrel] = []
    seen: set[tuple[str, str, str]] = set()
    with open(path, encoding="utf-8") as fh, _decoding(path):
        for lineno, line in enumerate(fh, start=1):
            cols = line.split()
            if not cols:
                continue
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
            if (key := (qrel[0], qrel[1], source)) in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate qrel for {key}")
            seen.add(key)
            qrels.append(qrel)
    return qrels


def write_qrels(qrels: Iterable[Qrel], path, with_source: bool = False) -> None:
    with atomic_write(path) as fh:
        for q in sorted(qrels, key=lambda q: (q.query_id, q.passage_id, q.source)):
            line = f"{q.query_id} 0 {q.passage_id} {q.grade}"
            if with_source:
                line += f" {q.source}"
            fh.write(line + "\n")


def parse_passages(path) -> list[Passage]:
    """Passages: `passage_id<TAB>text`, or JSONL when the name ends in `.jsonl`."""
    return _read_id_text(path, Passage, "passage_id", "text")


def write_passages(passages: Iterable[Passage], path) -> None:
    with atomic_write(path) as fh:
        for p in passages:
            fh.write(f"{p.passage_id}\t{p.text}\n")


def _variant(obj: dict) -> QueryVariant:
    return QueryVariant(str(obj["topic_id"]), str(obj["profile_id"]), obj["index"], obj["text"])


def read_variants(path) -> list[QueryVariant]:
    return _read_records(path, _variant, ("topic_id", "profile_id", "index", "text"), ("text",))


def write_variants(variants: Iterable[QueryVariant], path) -> None:
    write_jsonl(variants, path, QueryVariant._fields)


def _annotation(obj: dict) -> AnnotationRecord:
    """An absent optional key takes the record's default."""
    if "is_gold" in obj and not isinstance(obj["is_gold"], bool):
        raise ParseError("is_gold must be a boolean")
    fields = {key: obj[key] for key in AnnotationRecord._fields if key in obj}
    for key in ("pair_id", "annotator_id", "answer"):  # may be JSON numbers
        fields[key] = str(fields[key])
    return AnnotationRecord(**fields)


def read_annotations(path) -> list[AnnotationRecord]:
    return _read_records(
        path,
        _annotation,
        ("pair_id", "annotator_id", "task", "seed_query", "variant", "answer"),
        ("task", "seed_query", "variant", "gold_answer"),
    )


def read_jsonl(path, required=()) -> list[dict]:
    return _read_records(path, dict, required)


_JSON = json.JSONEncoder(ensure_ascii=False)  # json.dumps would build one per line


def json_lines(objects: Iterable, keys: Optional[Sequence[str]] = None) -> Iterator[str]:
    """Each object as one line of JSON text with non-ASCII kept.

    Without keys each object is a dict. With keys each is a sequence of
    values in the keys' order, written as the object with those keys
    without building a dict: a str or int value is written by the
    function the encoder would call for it, any other value by the
    encoder.
    """
    encode = _JSON.encode
    if keys is None:
        for obj in objects:
            yield encode(obj) + "\n"
        return
    line = "{" + ", ".join(encode(key).replace("%", "%%") + ": %s" for key in keys) + "}\n"
    quote = {str: encode_basestring, int: int.__repr__}.get  # what the encoder calls for them
    for values in objects:
        yield line % tuple([quote(v.__class__, encode)(v) for v in values])


def write_jsonl(objects: Iterable, path, keys: Optional[Sequence[str]] = None) -> None:
    """The objects as `json_lines` writes them, keys as there."""
    with atomic_write(path) as fh:
        fh.writelines(json_lines(objects, keys))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A UTF-8 CSV table in the default csv dialect (CRLF line ends).

    Cells: None is empty, a bool is `true`/`false`, a float its repr
    (shortest round-trip digits), anything else its str.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(value) for value in row])


def read_csv(path, columns: Sequence[str], types: Sequence[Callable]) -> list[tuple]:
    """One tuple per non-blank row of a CSV table: the row's `columns`
    cells, in that order, each converted by its entry in `types`.

    The header must name every one of `columns` and each row must have
    one cell per header column. Every error, and a ValueError from a
    conversion, names the file and line.
    """
    records = []
    with open(path, encoding="utf-8", newline="") as fh, _decoding(path):
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in columns:
            if column not in header:
                raise ParseError(f"{path}:1: missing column {column!r}")
        picks = [(header.index(column), kind) for column, kind in zip(columns, types)]
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(row)}")
                records.append(tuple([kind(row[i]) for i, kind in picks]))
            except ValueError as exc:
                raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def expected_variant_count(num_seeds: int, num_profiles: int) -> int:
    for name, value in (("num_seeds", num_seeds), ("num_profiles", num_profiles)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return num_seeds * num_profiles * VARIANTS_PER_PAIR


# ---------------------------------------------------------- provider calls

# A response that does not parse is asked for again with the same
# prompt this many times before the call fails.
PARSE_RETRIES = 3


class Provider(Protocol):
    """A completion source. An optional ``in_flight`` attribute (1 when
    absent) is how many calls ``genkit.run_in_order`` may overlap."""

    def complete(self, prompt: str) -> str: ...


def _substitute(text: str, mapping: dict[str, object]) -> str:
    # plain replacement, not str.format: template files may contain
    # literal braces in their JSON examples
    for key, value in mapping.items():
        text = text.replace("{" + key + "}", str(value))
    return text


T = TypeVar("T")


def complete_parsed(
    provider: Provider, prompt: str, parse: Callable[[str], T], what: str
) -> tuple[T, str, int]:
    """Ask for a completion until parse accepts it: the parsed value, the
    raw text that parsed, and the 1-based attempt number.

    A ParseError from parse costs one retry with the same prompt; after
    PARSE_RETRIES + 1 attempts, GenerationError names `what` and carries
    every raw response.
    """
    raw_responses: list[str] = []
    for attempt in range(1, PARSE_RETRIES + 2):
        raw = provider.complete(prompt)
        raw_responses.append(raw)
        try:
            return parse(raw), raw, attempt
        except ParseError:
            continue
    raise GenerationError(
        f"no parseable {what} after {len(raw_responses)} attempts", raw_responses
    )
