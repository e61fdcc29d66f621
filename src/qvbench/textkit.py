"""Deterministic text analytics for seed queries and their variants.

Preprocessing is fixed: lowercase, drop Unicode punctuation characters,
split on whitespace. No stop-word removal anywhere. Lexical overlap is
measured on Porter-stemmed token sets; readability uses a vowel-group
syllable heuristic, so grade values are internally consistent rather
than comparable to external calculators.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple, Sequence

from .porter import porter_stem

__all__ = [
    "tokenize",
    "porter_stem",
    "stemmed_set",
    "jaccard",
    "lexical_diversity",
    "count_syllables",
    "flesch_kincaid_grade",
    "VariantFeatureRecord",
]


class _DropPunctuation(dict):
    """A `str.translate` table that deletes Unicode punctuation (category P).

    Each code point is classified on first sight and remembered.
    """

    def __missing__(self, code: int):
        value = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = value
        return value


_DROP_PUNCTUATION = _DropPunctuation()


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation-category characters, split on whitespace.

    Apostrophes are punctuation, so they are removed in place:
    "what's" becomes "whats". Empty input gives an empty list.
    """
    return text.lower().translate(_DROP_PUNCTUATION).split()


def stemmed_set(text: str) -> set[str]:
    return {porter_stem(tok) for tok in tokenize(text)}


def jaccard(seed_text: str, variant_text: str) -> float:
    """Jaccard index over Porter-stemmed token sets; 1.0 when both are empty."""
    a = stemmed_set(seed_text)
    b = stemmed_set(variant_text)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def lexical_diversity(texts: Sequence[str]) -> float:
    """Distinct-token count over total-token count for the concatenation."""
    tokens: list[str] = []
    for text in texts:
        tokens.extend(tokenize(text))
    if not tokens:
        raise ValueError("no tokens: cannot compute lexical diversity")
    return len(set(tokens)) / len(tokens)


def count_syllables(word: str) -> int:
    """Vowel-group count (aeiouy), minus a trailing 'e', floored at 1."""
    groups = len(re.findall(r"[aeiouy]+", word))
    if word.endswith("e"):
        groups -= 1
    return max(groups, 1)


_TERMINAL_RUNS = re.compile(r"[.!?]+")


def count_sentences(text: str) -> int:
    """Terminal-punctuation runs, floored at 1 (queries rarely carry any)."""
    return max(1, len(_TERMINAL_RUNS.findall(text)))


def flesch_kincaid_grade(text: str) -> float:
    """0.39*(words/sentences) + 11.8*(syllables/words) - 15.59.

    Words and syllables come from `tokenize`/`count_syllables`; sentences
    are counted on the raw text. Raises on zero words.
    """
    words = tokenize(text)
    if not words:
        raise ValueError("zero words: cannot compute readability grade")
    sentences = count_sentences(text)
    syllables = sum(count_syllables(w) for w in words)
    return 0.39 * (len(words) / sentences) + 11.8 * (syllables / len(words)) - 15.59


class VariantFeatureRecord(NamedTuple):
    """Per-variant lexical features relative to its seed query."""

    topic_id: str
    profile_id: str
    index: int
    jaccard: float
    length_words: int
    fk_grade: float
    lexical_diversity: float


def variant_features(
    topic_id: str,
    profile_id: str,
    index: int,
    seed_text: str,
    variant_text: str,
) -> VariantFeatureRecord:
    return VariantFeatureRecord(
        topic_id=topic_id,
        profile_id=profile_id,
        index=index,
        jaccard=jaccard(seed_text, variant_text),
        length_words=len(tokenize(variant_text)),
        fk_grade=flesch_kincaid_grade(variant_text),
        lexical_diversity=lexical_diversity([variant_text]),
    )

