"""Porter (1980) suffix-stripping stemmer, all five steps.

Implemented from the original rule set. Within each step the longest
matching suffix is selected; if its condition fails, no other rule in
that step fires. Words of one or two letters are returned unchanged,
matching Porter's reference implementation (and hence the published
vocabulary/output lists).
"""

from __future__ import annotations

from functools import lru_cache

VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """*o: stem ends consonant-vowel-consonant, final consonant not w, x or y."""
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _replace_longest(word: str, rules):
    """Apply the longest-suffix rule whose suffix matches.

    `rules` is a list of (suffix, replacement, condition) with condition
    taking the candidate stem. Returns the (possibly unchanged) word.
    Only the longest matching suffix is considered, per the algorithm.
    """
    best = None
    for suffix, replacement, condition in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, replacement, condition)
    if best is None:
        return word
    suffix, replacement, condition = best
    stem = word[: len(word) - len(suffix)]
    if condition is None or condition(stem):
        return stem + replacement
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    removed = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        removed = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        removed = word[:-3]
    if removed is None:
        return word
    # fixups only after a successful ED/ING removal
    if removed.endswith(("at", "bl", "iz")):
        return removed + "e"
    if _ends_double_consonant(removed) and removed[-1] not in "lsz":
        return removed[:-1]
    if _measure(removed) == 1 and _ends_cvc(removed):
        return removed + "e"
    return removed


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_M_POSITIVE = lambda stem: _measure(stem) > 0  # noqa: E731
_M_GT_1 = lambda stem: _measure(stem) > 1  # noqa: E731

_STEP2_RULES = [
    ("ational", "ate", _M_POSITIVE),
    ("tional", "tion", _M_POSITIVE),
    ("enci", "ence", _M_POSITIVE),
    ("anci", "ance", _M_POSITIVE),
    ("izer", "ize", _M_POSITIVE),
    ("abli", "able", _M_POSITIVE),
    ("alli", "al", _M_POSITIVE),
    ("entli", "ent", _M_POSITIVE),
    ("eli", "e", _M_POSITIVE),
    ("ousli", "ous", _M_POSITIVE),
    ("ization", "ize", _M_POSITIVE),
    ("ation", "ate", _M_POSITIVE),
    ("ator", "ate", _M_POSITIVE),
    ("alism", "al", _M_POSITIVE),
    ("iveness", "ive", _M_POSITIVE),
    ("fulness", "ful", _M_POSITIVE),
    ("ousness", "ous", _M_POSITIVE),
    ("aliti", "al", _M_POSITIVE),
    ("iviti", "ive", _M_POSITIVE),
    ("biliti", "ble", _M_POSITIVE),
]

_STEP3_RULES = [
    ("icate", "ic", _M_POSITIVE),
    ("ative", "", _M_POSITIVE),
    ("alize", "al", _M_POSITIVE),
    ("iciti", "ic", _M_POSITIVE),
    ("ical", "ic", _M_POSITIVE),
    ("ful", "", _M_POSITIVE),
    ("ness", "", _M_POSITIVE),
]


def _ion_condition(stem: str) -> bool:
    """Step 4 drops -ion after an s or a t, if m > 1."""
    return _M_GT_1(stem) and stem.endswith(("s", "t"))


_STEP4_RULES = [
    ("al", "", _M_GT_1),
    ("ance", "", _M_GT_1),
    ("ence", "", _M_GT_1),
    ("er", "", _M_GT_1),
    ("ic", "", _M_GT_1),
    ("able", "", _M_GT_1),
    ("ible", "", _M_GT_1),
    ("ant", "", _M_GT_1),
    ("ement", "", _M_GT_1),
    ("ment", "", _M_GT_1),
    ("ent", "", _M_GT_1),
    ("ion", "", _ion_condition),
    ("ou", "", _M_GT_1),
    ("ism", "", _M_GT_1),
    ("ate", "", _M_GT_1),
    ("iti", "", _M_GT_1),
    ("ous", "", _M_GT_1),
    ("ive", "", _M_GT_1),
    ("ize", "", _M_GT_1),
]


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1:
            return stem
        if m == 1 and not _ends_cvc(stem):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


# Bounded so an open-ended vocabulary cannot grow the cache without
# limit; a corpus and its query sweep fit many times over.
@lru_cache(maxsize=1 << 16)
def porter_stem(word: str) -> str:
    """Stem a lowercase word with the Porter algorithm (memoized)."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2_RULES)
    word = _replace_longest(word, _STEP3_RULES)
    word = _replace_longest(word, _STEP4_RULES)
    word = _step5a(word)
    word = _step5b(word)
    return word
