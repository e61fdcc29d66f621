"""Judgment coverage, LLM relevance labeling, and agreement with human qrels.

Labels live on the 4-point scale used by the human judgments. They come
from the same provider path as query variants: the label template read
once per ``label_topk`` through ``genkit.load_template``, and asked
through ``core.complete_parsed`` until the response is a bare grade,
with ``genkit.run_in_order`` keeping the provider's calls in flight. A
prompt is filled in two steps, in ``core._substitute``'s order: the
topic's backstory, once per topic (which is when a missing backstory is
refused, before the topic's first provider call), then the passage and
the scale description for each label. Only ``load_label_template`` and
``label_topk``, each run once per labelling pass, import genkit, so
reading labels, merging qrels and measuring coverage do not load it.

The pairs to label are pooled apart from the labelling: ``pool_topk``
folds a run's ranked lists, one run file at a time if need be, into the
distinct (topic, passage) pairs of their top k and checks each against
the known topics and passages. So ``judge`` checks every run before its
first provider call, and no run is alive while labels are asked for.

A label store caches grades by (topic, passage) so a passage retrieved
by many systems and variants costs one provider call, and persists
them, sorted by key whatever order the calls finished in, as TREC-style
qrels with a source column plus a JSONL sidecar of raw responses, both
written from one sorted list of keys with no dict built per row.
Agreement metrics compare the two label sources: mean absolute error
and Cohen's kappa after binarizing, Krippendorff's ordinal alpha on the
full scale.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    MERGE_POLICIES,
    ParseError,
    Passage,
    Provider,
    Qrel,
    Run,
    Topic,
    ValidationError,
    complete_parsed,
    parse_qrels,
    query_cell,
    read_jsonl,
    write_jsonl,
    write_qrels,
)

__all__ = [
    "CoverageReport",
    "AgreementReport",
    "LabelStore",
    "SCALE_DESCRIPTION",
    "coverage",
    "build_label_prompt",
    "load_label_template",
    "label",
    "pool_topk",
    "label_topk",
    "binarize",
    "mae",
    "cohen_kappa",
    "krippendorff_alpha",
    "agreement_report",
    "paired_grades",
    "merge_qrels",
]

GRADES = (0, 1, 2, 3)

SCALE_DESCRIPTION = (
    "Grade the passage on this scale. 3: the passage is dedicated to the "
    "need and contains the exact answer. 2: the passage answers a "
    "substantial part of the need. 1: the passage is on topic but does "
    "not answer the need. 0: the passage has nothing to do with the need."
)


class CoverageReport(NamedTuple):
    """Built only by `coverage`, which computes every field."""
    system_id: str
    profile_id: str
    k: int
    judged: int
    total: int
    missing_fraction: float


class AgreementReport(NamedTuple):
    """Built only by `agreement_report`, which computes every field."""
    n: int
    mae_binary: float
    kappa_binary: float
    mae_graded: float
    alpha_graded: float


def coverage(
    ranked: Mapping[tuple[str, str], Sequence[str]], qrels: Sequence[Qrel], k: int = 10
) -> list[CoverageReport]:
    """Fraction of top-k results without a human judgment.

    `ranked` maps each (system, query) to the passage ids it ranks
    within k in rank order, the top k that `evaluate` also scores. One
    row per (system, profile) plus an overall row labeled ("all",
    "all"). Run query ids are resolved to their topic, which is how
    qrels are keyed; seed-query runs count under the "seed" profile.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    human: dict[str, set[str]] = defaultdict(set)  # topic -> its human-judged passages
    for q in qrels:
        if q.source == "human":
            human[q.query_id].add(q.passage_id)
    cell_of = {q: query_cell(q) for q in {q for _, q in ranked}}  # each id decoded once
    counts: dict[tuple[str, str], list[int]] = {}
    for (system_id, query_id), passages in ranked.items():
        topic, profile, _ = cell_of[query_id]
        judged = sum(map(human[topic].__contains__, passages))
        for key in ((system_id, profile), ("all", "all")):
            bucket = counts.setdefault(key, [0, 0])
            bucket[0] += judged
            bucket[1] += len(passages)
    return [
        CoverageReport(system_id, profile_id, k, judged, total, 1 - judged / total)
        for (system_id, profile_id), (judged, total) in sorted(counts.items())
    ]


def load_label_template() -> str:
    from .genkit import load_template

    return load_template("label")


def build_label_prompt(backstory: str, passage_text: str, template: str) -> str:
    """Labeling prompt around the backstory, not the seed query, from the
    text ``load_label_template`` returns."""
    return _with_passage(_with_backstory(template, backstory), passage_text)


# Memoised here, not in label_topk, because label_topk must reach each
# label through the module global `label` with the raw template (tracing
# counts those calls). label_topk asks for a topic's labels together, so
# any bound of at least in_flight keeps each topic filled once.
@lru_cache(maxsize=16)
def _with_backstory(template: str, backstory: str) -> str:
    """The label template with the topic's backstory filled in: the part
    of a label prompt that is the same for all the topic's passages."""
    if not backstory or not backstory.strip():
        raise ValidationError(
            "topic has no backstory; generate one with genkit.generate_backstory first"
        )
    return template.replace("{backstory}", backstory)


def _with_passage(topic_template: str, passage_text: str) -> str:
    # `_substitute`'s order: a placeholder inside an earlier value is
    # filled by a later key, so the order is part of the prompt bytes
    return topic_template.replace("{passage}", passage_text).replace(
        "{scale_description}", SCALE_DESCRIPTION
    )


# The fields of each row of the raw-response sidecar.
_RAW_KEYS = ("topic_id", "passage_id", "grade", "raw_response")


class LabelStore:
    """Cache of LLM labels keyed by (topic_id, passage_id). Threads may
    get and put at once; qrels and save list labels sorted by key."""

    def __init__(self):
        self._labels: dict[tuple[str, str], Qrel] = {}
        self._raw: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._labels)

    def get(self, topic_id: str, passage_id: str) -> Optional[Qrel]:
        with self._lock:
            return self._labels.get((topic_id, passage_id))

    def put(self, topic_id: str, passage_id: str, grade: int, raw_response: str) -> Qrel:
        qrel = Qrel(topic_id, passage_id, grade, source="llm")
        with self._lock:
            existing = self._labels.get((topic_id, passage_id))
            if existing is not None:
                return existing
            self._labels[(topic_id, passage_id)] = qrel
            self._raw[(topic_id, passage_id)] = raw_response
        return qrel

    def qrels(self) -> list[Qrel]:
        with self._lock:
            return [self._labels[key] for key in sorted(self._labels)]

    def save(self, qrels_path, raw_path) -> None:
        with self._lock:
            # written under the lock so both files are one snapshot of the store
            keys = sorted(self._labels)
            labels, raw = self._labels, self._raw
            # write_qrels sorts again, but only references already in order
            write_qrels((labels[key] for key in keys), qrels_path, with_source=True)
            write_jsonl(
                ((*key, labels[key].grade, raw.get(key, "")) for key in keys), raw_path, _RAW_KEYS
            )

    @classmethod
    def load(cls, qrels_path, raw_path=None) -> "LabelStore":
        store = cls()
        for qrel in parse_qrels(qrels_path):
            if qrel.source != "llm":
                raise ValidationError(
                    f"{qrels_path}: label store holds llm labels only, found source"
                    f" {qrel.source!r} for ({qrel.query_id}, {qrel.passage_id})"
                )
            store._labels[(qrel.query_id, qrel.passage_id)] = qrel
        if raw_path is not None and Path(raw_path).exists():
            for row in read_jsonl(raw_path, required=("topic_id", "passage_id")):
                key = (row["topic_id"], row["passage_id"])
                if key in store._labels:
                    store._raw[key] = row.get("raw_response", "")
        return store


def _parse_grade(text: str) -> int:
    stripped = text.strip()
    # one or more Unicode decimal digits (category Nd), which int() reads
    if not stripped.isdecimal():
        raise ParseError(f"expected a bare integer, got {text!r}")
    grade = int(stripped)
    if grade not in GRADES:
        raise ParseError(f"grade {grade} outside 0..3")
    return grade


def label(
    provider: Provider,
    topic: Topic,
    passage: Passage,
    store: LabelStore,
    template: str,
) -> Qrel:
    """One LLM grade for (topic, passage), served from the store when known;
    template is the text ``load_label_template`` returns."""
    cached = store.get(topic.topic_id, passage.passage_id)
    if cached is not None:
        return cached
    prompt = build_label_prompt(topic.backstory or "", passage.text, template)
    grade, raw, _ = complete_parsed(
        provider,
        prompt,
        _parse_grade,
        f"grade for topic {topic.topic_id}, passage {passage.passage_id}",
    )
    return store.put(topic.topic_id, passage.passage_id, grade, raw)


def pool_topk(
    run: Run, topic_ids: Container[str], passage_ids: Container[str], k: int = 10
) -> set[tuple[str, str]]:
    """The distinct (topic, passage) pairs in the top k of a run's ranked
    lists, which are only read.

    Each list's query must be of a known topic, checked at its first
    list, and each passage within k a known passage, checked at its first
    new pair; the first bad one in (system, query, rank) order raises
    ValidationError. Pooling several run files is the union of their pools.
    """
    topic_of: dict[str, str] = {}
    needed: set[tuple[str, str]] = set()
    for (_, query_id), hits in run.items():
        topic_id = topic_of.get(query_id)
        if topic_id is None:
            topic_id = topic_of[query_id] = query_cell(query_id)[0]
            if topic_id not in topic_ids:
                raise ValidationError(f"run references unknown topic {topic_id!r}")
        for passage_id, _ in hits[:k]:
            pair = (topic_id, passage_id)
            if pair not in needed:
                if passage_id not in passage_ids:
                    raise ValidationError(f"run references unknown passage {passage_id!r}")
                needed.add(pair)
    return needed


def label_topk(
    provider: Provider,
    pairs: Iterable[tuple[str, str]],
    topics: Sequence[Topic],
    passages: Sequence[Passage],
    store: LabelStore,
) -> list[Qrel]:
    """Label each (topic, passage) pair that `pool_topk` pooled, reading
    the label template once; the qrels come back in the order of pairs.
    The caller pools, and so checks, every run before the first label is
    asked for, and holds no run while the labels are."""
    from .genkit import run_in_order

    topic_by = {t.topic_id: t for t in topics}
    passage_by = {p.passage_id: p for p in passages}
    template = load_label_template()
    return run_in_order(
        provider,
        lambda pair: label(provider, topic_by[pair[0]], passage_by[pair[1]], store, template),
        pairs,
    )


def binarize(grade: int) -> int:
    """Grades 0 and 1 collapse to 0; grades 2 and 3 collapse to 1."""
    if grade not in GRADES:
        raise ValidationError(f"grade {grade} outside 0..3")
    return 0 if grade <= 1 else 1


def _checked_pairs(pairs, binary: bool) -> list[tuple[int, int]]:
    checked = []
    for human, llm in pairs:
        if human not in GRADES or llm not in GRADES:
            raise ValidationError(f"grade pair ({human}, {llm}) outside 0..3")
        if binary:
            checked.append((binarize(human), binarize(llm)))
        else:
            checked.append((human, llm))
    if not checked:
        raise ValidationError("no grade pairs")
    return checked


def mae(pairs: Iterable[tuple[int, int]], binary: bool = False) -> float:
    """Mean absolute difference, optionally after binarizing both sides."""
    checked = _checked_pairs(pairs, binary)
    return sum(abs(h - l) for h, l in checked) / len(checked)


def cohen_kappa(pairs: Iterable[tuple[int, int]], binary: bool = True) -> float:
    """Chance-corrected agreement with marginal-product expected agreement.

    Two constant, identical raters give p_o = p_e = 1; that degenerate
    case returns 0 rather than 0/0.
    """
    checked = _checked_pairs(pairs, binary)
    n = len(checked)
    p_observed = sum(1 for h, l in checked if h == l) / n
    categories = {v for pair in checked for v in pair}
    p_expected = 0.0
    for c in categories:
        p_expected += (
            sum(1 for h, _ in checked if h == c) * sum(1 for _, l in checked if l == c)
        ) / (n * n)
    if p_expected == 1:
        return 0.0
    return (p_observed - p_expected) / (1 - p_expected)


def krippendorff_alpha(pairs: Iterable[tuple[int, int]]) -> float:
    """Two-rater ordinal Krippendorff's alpha over GRADES, via the
    coincidence matrix.

    The ordinal squared difference between grades c and k is the
    squared sum of coincidence margins from c through k, minus half the
    two endpoint margins. Complete pairs only; there is no missing-data
    handling.
    """
    checked = list(pairs)
    if len(checked) < 2:
        raise ValidationError("alpha needs at least 2 pairs")
    coincidence: dict[tuple[int, int], int] = {}
    margins: dict[int, int] = {}
    for a, b in checked:
        if a not in GRADES or b not in GRADES:
            raise ValidationError(f"grade pair ({a}, {b}) outside levels {GRADES}")
        coincidence[(a, b)] = coincidence.get((a, b), 0) + 1
        coincidence[(b, a)] = coincidence.get((b, a), 0) + 1
        margins[a] = margins.get(a, 0) + 1
        margins[b] = margins.get(b, 0) + 1
    n = 2 * len(checked)

    def delta_sq(c: int, k: int) -> float:
        lo, hi = sorted((c, k))
        between = sum(margins.get(grade, 0) for grade in GRADES if lo <= grade <= hi)
        return (between - (margins.get(c, 0) + margins.get(k, 0)) / 2) ** 2

    observed = 0.0
    expected = 0.0
    present = sorted(margins)
    for i, c in enumerate(present):
        for k in present[i + 1 :]:
            d2 = delta_sq(c, k)
            observed += coincidence.get((c, k), 0) * d2
            expected += margins[c] * margins[k] * d2
    if expected == 0:
        raise ValidationError(
            "zero expected disagreement: every grade is identical, alpha is undefined"
        )
    return 1 - (n - 1) * observed / expected


def agreement_report(pairs: Iterable[tuple[int, int]]) -> AgreementReport:
    checked = list(pairs)
    return AgreementReport(
        n=len(checked),
        mae_binary=mae(checked, binary=True),
        kappa_binary=cohen_kappa(checked, binary=True),
        mae_graded=mae(checked, binary=False),
        alpha_graded=krippendorff_alpha(checked),
    )


def paired_grades(
    human_qrels: Iterable[Qrel], llm_qrels: Iterable[Qrel]
) -> list[tuple[int, int]]:
    """(human, llm) grade pairs over the common (query, passage) keys."""
    human_by = {(q.query_id, q.passage_id): q.grade for q in human_qrels}
    llm_by = {(q.query_id, q.passage_id): q.grade for q in llm_qrels}
    return [(human_by[key], llm_by[key]) for key in sorted(human_by.keys() & llm_by.keys())]


def merge_qrels(
    human_qrels: Sequence[Qrel], llm_qrels: Sequence[Qrel], policy: str = "human-preferred"
) -> list[Qrel]:
    """Combine the two label sources under an explicit policy.

    human-only and llm-only pass one source through; human-preferred
    keeps every human judgment and fills unjudged (query, passage) keys
    from the LLM labels.
    """
    if policy not in MERGE_POLICIES:
        raise ValidationError(f"unknown merge policy {policy!r}")
    for q in human_qrels:
        if q.source != "human":
            raise ValidationError(f"human qrel list contains source {q.source!r}")
    for q in llm_qrels:
        if q.source != "llm":
            raise ValidationError(f"llm qrel list contains source {q.source!r}")
    if policy == "human-only":
        merged = list(human_qrels)
    elif policy == "llm-only":
        merged = list(llm_qrels)
    else:
        merged = list(human_qrels)
        covered = {(q.query_id, q.passage_id) for q in human_qrels}
        merged.extend(
            q for q in llm_qrels if (q.query_id, q.passage_id) not in covered
        )
    return sorted(merged, key=lambda q: (q.query_id, q.passage_id))

