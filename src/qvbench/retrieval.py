"""Desk-scale lexical retrieval: inverted index, BM25, run records.

Indexing and querying share the textkit pipeline (lowercase, strip
punctuation, Porter stem). Scores follow the Robertson BM25 form with
the +1-smoothed IDF, which keeps every term weight positive. Scoring is
term-at-a-time over the postings: each query token's posting list adds
its weight to a per-passage accumulator.

The index caches, per `Bm25Params`, each passage's length norm and each
queried term's (passage_id, weight) list, so a term is weighted once
per params however many queries hold it. `run_queries` searches each
distinct query text once and reuses its hits for every query id that
carries the same text; profile variants often collide on one string.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .core import Passage, RunRecord, _Validated
from .textkit import porter_stem, tokenize


class _Bm25ParamsFields(NamedTuple):
    k1: float
    b: float


class Bm25Params(_Validated, _Bm25ParamsFields):
    __slots__ = ()

    def __new__(cls, k1=0.9, b=0.4):
        if k1 <= 0:
            raise ValueError(f"k1={k1} must be > 0")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b={b} outside [0, 1]")
        return tuple.__new__(cls, (k1, b))


class InvertedIndex:
    """Immutable term postings over a stemmed passage collection."""

    def __init__(
        self,
        postings: dict[str, tuple[tuple[str, int], ...]],
        doc_lengths: dict[str, int],
    ):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths.values()) / self.doc_count
        self._length_norms: dict[Bm25Params, dict[str, float]] = {}
        self._term_weights: dict[Bm25Params, dict[str, tuple[tuple[str, float], ...]]] = {}

    def length_norms(self, params: Bm25Params) -> dict[str, float]:
        """k1 * (1 - b + b * length / avg) per passage, computed once per params."""
        norms = self._length_norms.get(params)
        if norms is None:
            avg = self.avg_doc_length
            one_minus_b = 1.0 - params.b
            norms = {
                pid: params.k1 * (one_minus_b + params.b * (length / avg))
                for pid, length in self.doc_lengths.items()
            }
            self._length_norms[params] = norms
        return norms

    def term_weights(self, params: Bm25Params, term: str) -> tuple[tuple[str, float], ...]:
        """(passage_id, BM25 weight) over term's postings, computed once per params."""
        cache = self._term_weights.get(params)
        if cache is None:
            cache = self._term_weights[params] = {}
        weights = cache.get(term)
        if weights is None:
            plist = self.postings.get(term, ())
            df = len(plist)
            n = self.doc_count
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            norms = self.length_norms(params)
            k1_plus_1 = params.k1 + 1.0
            weights = tuple(
                (pid, idf * tf * k1_plus_1 / (tf + norms[pid])) for pid, tf in plist
            )
            cache[term] = weights
        return weights


def index_tokens(text: str) -> list[str]:
    return [porter_stem(token) for token in tokenize(text)]


def build_index(passages: Iterable[Passage]) -> InvertedIndex:
    """Index a corpus; deterministic regardless of input order."""
    doc_lengths: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for passage in passages:
        if passage.passage_id in doc_lengths:
            raise ValueError(f"duplicate passage_id {passage.passage_id}")
        tokens = index_tokens(passage.text)
        doc_lengths[passage.passage_id] = len(tokens)
        for term in tokens:
            per_doc = counts.setdefault(term, {})
            per_doc[passage.passage_id] = per_doc.get(passage.passage_id, 0) + 1
    if not doc_lengths:
        raise ValueError("empty corpus")
    postings = {
        term: tuple(sorted(counts[term].items())) for term in sorted(counts)
    }
    return InvertedIndex(postings, dict(sorted(doc_lengths.items())))


def search(
    index: InvertedIndex,
    params: Bm25Params,
    query: str,
    k: int = 10,
) -> list[tuple[str, float]]:
    """Top-k passages by BM25, score descending, ties by passage_id.

    Repeated query tokens count again; each passage's weights are summed
    in query-token order.
    """
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    scores: dict[str, float] = {}
    get = scores.get
    for term in index_tokens(query):
        for pid, w in index.term_weights(params, term):
            scores[pid] = get(pid, 0.0) + w
    hits = list(scores.items())
    if len(hits) > k:
        # every candidate scoring at least the k-th best can reach the top k
        kth = sorted(scores.values(), reverse=True)[k - 1]
        hits = [hit for hit in hits if hit[1] >= kth]
    # by passage_id, then stably by score descending: (-score, passage_id) order
    hits.sort()
    hits.sort(key=itemgetter(1), reverse=True)
    return hits[:k]


def run_queries(
    index: InvertedIndex,
    params: Bm25Params,
    queries: Mapping[str, str],
    system_id: str,
    k: int = 10,
) -> list[RunRecord]:
    """Run records for every query id; each distinct text is searched once."""
    hits_by_text: dict[str, list[tuple[str, float]]] = {}
    records = []
    for query_id in sorted(queries):
        text = queries[query_id]
        hits = hits_by_text.get(text)
        if hits is None:
            hits = hits_by_text[text] = search(index, params, text, k)
        for rank, (pid, score) in enumerate(hits, 1):
            records.append(RunRecord(system_id, query_id, pid, rank, score))
    return records
