"""Desk-scale lexical retrieval: inverted index, BM25, run records.

Indexing and querying share the textkit pipeline (lowercase, strip
punctuation, Porter stem). Scores follow the Robertson BM25 form with
the +1-smoothed IDF, which keeps every term weight positive. Scoring is
term-at-a-time over the postings: each query token's posting list adds
its weight to a per-passage accumulator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import Passage, RunRecord
from .textkit import porter_stem, tokenize


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError(f"k1={self.k1} must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b={self.b} outside [0, 1]")


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
    n = index.doc_count
    norms = index.length_norms(params)
    k1_plus_1 = params.k1 + 1.0
    scores: dict[str, float] = {}
    for term in index_tokens(query):
        plist = index.postings.get(term, ())
        df = len(plist)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for pid, tf in plist:
            w = idf * tf * k1_plus_1 / (tf + norms[pid])
            scores[pid] = scores.get(pid, 0.0) + w
    # the same list as sorted(...)[:k], without sorting every candidate
    return heapq.nsmallest(k, scores.items(), key=lambda hit: (-hit[1], hit[0]))


def run_queries(
    index: InvertedIndex,
    params: Bm25Params,
    queries: Mapping[str, str],
    system_id: str,
    k: int = 10,
) -> list[RunRecord]:
    records = []
    for query_id in sorted(queries):
        for rank, (pid, score) in enumerate(search(index, params, queries[query_id], k), 1):
            records.append(RunRecord(system_id, query_id, pid, rank, score))
    return records
