"""Automatic checks for query transformations and human-annotation scoring.

Two validators cover the lexical transformation profiles: word-order
change (same token multiset, different sequence) and misspelling (an
out-of-dictionary token whose correction is a seed token). Spell
correction is hermetic: a bundled word list plus Damerau-Levenshtein
distance in the optimal-string-alignment variant, capped at 2. Typos are
mostly one edit away, so a word's single edits are looked up in the
dictionary before any distance is computed (Norvig, "How to Write a
Spelling Corrector", 2007).

Annotation scoring drops any annotator who missed a gold question,
rejects a pair with more than two annotators and leaves out one with
fewer, and computes consensus accuracy per profile in one pass: for
similarity, the share of pairs both annotators marked similar; for
alignment, the share where both picked the pair's profile, with
"equally likely" counting as that pick. A split verdict is one
disagreement and never correct.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .core import (
    AnnotationRecord,
    QueryVariant,
    Profile,
    Topic,
    ValidationError,
    query_cell,
)
from .textkit import tokenize

__all__ = [
    "ValidationVerdict",
    "ConsensusReport",
    "load_dictionary",
    "osa_distance",
    "spell_correct",
    "validate_order",
    "validate_misspelling",
    "validate_variants",
    "filter_by_gold",
    "consensus_reports",
    "SIMILARITY_ANSWERS",
    "EQUALLY_LIKELY",
    "CHECKED_PROFILES",
]

_DICT_PATH = Path(__file__).parent / "data" / "words.txt"

SIMILARITY_ANSWERS = ("similar", "dissimilar")
EQUALLY_LIKELY = "equally likely"

# Profiles whose variants are checked mechanically rather than by the
# similarity task, in the order `validate` reports them; matched on the
# profile name, case-insensitive, and named by each verdict's check.
CHECKED_PROFILES = ("order", "misspelling")


class ValidationVerdict(NamedTuple):
    """Built only by `validate_variants`, which details every failure."""
    topic_id: str
    profile_id: str
    index: int
    check: str
    valid: bool
    detail: str = ""


class ConsensusReport(NamedTuple):
    """Built only by `consensus_reports`, which computes every field."""
    task: str
    profile_id: str
    n_pairs: int
    n_agree_correct: int
    accuracy: float
    n_disagreements: int


@lru_cache(maxsize=1)
def load_dictionary() -> frozenset[str]:
    """The bundled newline-delimited word list, lowercased."""
    text = _DICT_PATH.read_text("utf-8")
    words = frozenset(
        stripped.lower()
        for line in text.splitlines()
        if (stripped := line.strip()) and not stripped.startswith("#")
    )
    if not words:
        raise ValidationError("dictionary is empty")
    return words


def osa_distance(a: str, b: str) -> int:
    """Damerau-Levenshtein distance, optimal-string-alignment variant.

    Adjacent transpositions count as one edit but no substring is edited
    twice, so osa_distance("ca", "abc") is 3, not 2.
    """
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d = min(d, prev2[j - 2] + 1)
            cur[j] = d
        prev2, prev = prev, cur
    return prev[lb]


@lru_cache(maxsize=8)
def _dictionary_view(dictionary: frozenset[str]) -> tuple[str, tuple[str, ...]]:
    """The characters the dictionary's words use, and its words sorted."""
    return "".join(sorted(set("".join(dictionary)))), tuple(sorted(dictionary))


def _single_edits(word: str, alphabet: str) -> set[str]:
    """Every string one OSA edit from word: a delete, an adjacent
    transposition, or a substitution or insert of an alphabet character."""
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    edits = {left + right[1:] for left, right in splits if right}
    edits.update(
        left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1
    )
    edits.update(left + c + right[1:] for left, right in splits if right for c in alphabet)
    edits.update(left + c + right for left, right in splits for c in alphabet)
    return edits


def spell_correct(word: str, dictionary: Collection[str]) -> Optional[str]:
    """Nearest dictionary word within distance 2, or None.

    A word already in the dictionary corrects to itself. Ties at the
    minimum distance break to the lexicographically smallest candidate.

    Candidates come in two steps. The dictionary words at distance 1 are
    exactly those among the word's single edits, with substitutions and
    inserts drawn from the characters the dictionary uses, so the edits
    are looked up first and the smallest hit wins. Only when none is a
    word are the sorted words within two characters of its length
    scanned with `osa_distance`, and the first within distance 2 wins.
    The alphabet and the sorted words are cached per dictionary, which
    is made a frozenset first unless it is one, as `load_dictionary`'s is.
    """
    if not isinstance(dictionary, frozenset):
        dictionary = frozenset(dictionary)
    if word in dictionary:
        return word
    alphabet, ordered = _dictionary_view(dictionary)
    hits = _single_edits(word, alphabet).intersection(dictionary)
    if hits:
        return min(hits)
    for candidate in ordered:
        if abs(len(candidate) - len(word)) <= 2 and osa_distance(word, candidate) <= 2:
            return candidate
    return None


def validate_order(seed: str, variant: str) -> bool:
    """True iff the variant reorders the seed's tokens without changing them."""
    s = tokenize(seed)
    v = tokenize(variant)
    return s != v and sorted(s) == sorted(v)


def validate_misspelling(seed: str, variant: str, dictionary: Collection[str]) -> bool:
    """True iff some out-of-dictionary variant token corrects to a seed token."""
    seed_tokens = set(tokenize(seed))
    for token in tokenize(variant):
        if token in dictionary:
            continue
        corrected = spell_correct(token, dictionary)
        if corrected is not None and corrected in seed_tokens:
            return True
    return False


def validate_variants(
    topics: Iterable[Topic],
    variants: Iterable[QueryVariant],
    profiles: Iterable[Profile],
    dictionary: Collection[str],
) -> list[ValidationVerdict]:
    """Run the mechanical check matching each variant's profile.

    Only the order and misspelling profiles have a mechanical check;
    variants of other profiles produce no verdict.
    """
    topic_by = {t.topic_id: t for t in topics}
    profile_by = {p.profile_id: p for p in profiles}
    verdicts: list[ValidationVerdict] = []
    for v in variants:
        profile = profile_by.get(v.profile_id)
        if profile is None:
            raise ValidationError(f"variant references unknown profile {v.profile_id!r}")
        check = profile.name.lower()
        if check not in CHECKED_PROFILES:
            continue
        topic = topic_by.get(v.topic_id)
        if topic is None:
            raise ValidationError(f"variant references unknown topic {v.topic_id!r}")
        if check == "order":
            ok = validate_order(topic.seed_query, v.text)
            if ok:
                detail = ""
            elif tokenize(topic.seed_query) == tokenize(v.text):
                detail = "variant repeats the seed token sequence"
            else:
                detail = "token multisets differ"
        else:
            ok = validate_misspelling(topic.seed_query, v.text, dictionary)
            detail = "" if ok else "no out-of-dictionary token corrects to a seed token"
        verdicts.append(
            ValidationVerdict(v.topic_id, v.profile_id, v.index, check, ok, detail)
        )
    return verdicts


def filter_by_gold(
    annotations: Iterable[AnnotationRecord],
) -> tuple[frozenset[str], frozenset[str]]:
    """Split annotators into (kept, rejected) by their gold answers.

    One wrong gold answer rejects the annotator entirely; annotators who
    saw no gold question are kept. Applying the filter to an already
    filtered batch changes nothing.
    """
    kept: set[str] = set()
    rejected: set[str] = set()
    for record in annotations:
        kept.add(record.annotator_id)
        if record.is_gold and record.answer != record.gold_answer:
            rejected.add(record.annotator_id)
    return frozenset(kept - rejected), frozenset(rejected)


def consensus_reports(
    annotations: Sequence[AnnotationRecord], profiles: Sequence[Profile]
) -> tuple[list[ConsensusReport], list[ConsensusReport]]:
    """(similarity rows, alignment rows) of consensus accuracy per profile.

    Similarity scores each profile not in CHECKED_PROFILES, alignment
    each persona and group profile, whose answers must be a profile id
    or "equally likely". Pair ids are variant query ids. A pair with
    more than two annotators raises first (similarity pairs checked
    first), then an unknown answer in row order. Rows keep the profiles'
    order and skip a profile with no scored pair.
    """
    # task -> scored profile id -> [pairs, correct, disagreements]
    tallies = {
        "similarity": {p.profile_id: [0, 0, 0] for p in profiles
                       if p.name.lower() not in CHECKED_PROFILES},
        "alignment": {p.profile_id: [0, 0, 0] for p in profiles
                      if p.method in ("persona", "group")},
    }
    kept, _ = filter_by_gold(annotations)
    pairs: dict[str, dict[str, list[str]]] = {task: {} for task in tallies}
    for record in annotations:
        if tallies[record.task] and not record.is_gold and record.annotator_id in kept:
            pairs[record.task].setdefault(record.pair_id, []).append(record.answer)
    position = {p.profile_id: i for i, p in enumerate(profiles)}
    scored = []
    for order, (task, grouped) in enumerate(pairs.items()):
        for pair_id, answers in grouped.items():
            if len(answers) > 2:
                raise ValidationError(f"pair {pair_id} has more than two annotators")
            profile_id = query_cell(pair_id)[1]
            if len(answers) == 2 and profile_id in tallies[task]:
                scored.append((position[profile_id], order, pair_id, task, profile_id, answers))
    allowed = {
        "similarity": SIMILARITY_ANSWERS,
        "alignment": {p.profile_id for p in profiles} | {EQUALLY_LIKELY},
    }
    for _, _, pair_id, task, profile_id, answers in sorted(scored):
        for answer in answers:
            if answer not in allowed[task]:
                raise ValidationError(f"pair {pair_id}: unknown {task} answer {answer!r}")
        first, second = (profile_id if a == EQUALLY_LIKELY else a for a in answers)
        correct = "similar" if task == "similarity" else profile_id
        tally = tallies[task][profile_id]
        tally[0] += 1
        if first != second:
            tally[2] += 1
        elif first == correct:
            tally[1] += 1
    similarity, alignment = (
        [ConsensusReport(task, pid, n, c, c / n, d) for pid, (n, c, d) in by_profile.items() if n]
        for task, by_profile in tallies.items()
    )
    return similarity, alignment
