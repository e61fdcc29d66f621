"""Text analytics: tokenization, stemming, overlap, readability."""

import random
import unicodedata

import pytest

from qvbench.textkit import (
    VariantFeatureRecord,
    count_syllables,
    flesch_kincaid_grade,
    jaccard,
    lexical_diversity,
    porter_stem,
    tokenize,
    variant_features,
)

# Hand-traced through the 1980 algorithm definition, step by step.
# Each pair runs the full five-step pipeline, not a single step.
PORTER_GOLDEN = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("say", "sai"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valency", "valenc"),
    ("hesitancy", "hesit"),
    ("digitizer", "digit"),
    ("conformably", "conform"),
    ("radically", "radic"),
    ("differently", "differ"),
    ("vilely", "vile"),
    ("analogously", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angularity", "angular"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("running", "run"),
    ("flies", "fli"),
    ("universities", "univers"),
    ("university", "univers"),
    ("money", "monei"),
    ("reporter", "report"),
]


def test_porter_golden_pairs():
    for word, expected in PORTER_GOLDEN:
        assert porter_stem(word) == expected, word


def test_porter_short_words_unchanged():
    for word in ["a", "is", "be", "on", "it", ""]:
        assert porter_stem(word) == word


def test_porter_idempotent_on_stems():
    # The algorithm assumes word inputs, so two classes of outputs are
    # genuine non-fixed-points: a lone trailing "s" is stripped again by
    # the plural rule (decis -> deci), and "agre" loses its e once more.
    # Everything else in the list is stable under re-stemming.
    for _, stem in PORTER_GOLDEN:
        if stem == "agre" or (stem.endswith("s") and not stem.endswith("ss")):
            continue
        assert porter_stem(stem) == stem, stem
    assert porter_stem("agre") == "agr"
    assert porter_stem("decis") == "deci"


def test_tokenize_lowercases_and_splits():
    assert tokenize("Collins The Good to Great") == [
        "collins",
        "the",
        "good",
        "to",
        "great",
    ]


def test_tokenize_strips_punctuation_in_place():
    assert tokenize("what's the book?") == ["whats", "the", "book"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_unicode_punctuation():
    assert tokenize("don’t “stop”") == ["dont", "stop"]


def test_tokenize_matches_per_character_rule_over_the_bmp():
    chars = [chr(c) for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF]
    text = " ".join(chars)
    kept = "".join(
        ch for ch in text.lower() if not unicodedata.category(ch).startswith("P")
    )
    assert tokenize(text) == kept.split()


def test_porter_stem_same_on_cold_and_warm_cache():
    rng = random.Random(11)
    words = [w for w, _ in PORTER_GOLDEN]
    words += ["".join(rng.choices("abcdeilnorstuyz", k=rng.randint(1, 12))) for _ in range(300)]
    porter_stem.cache_clear()
    cold = [porter_stem(w) for w in words]
    assert porter_stem.cache_info().misses == len(set(words))
    warm = [porter_stem(w) for w in words]
    assert porter_stem.cache_info().hits >= len(words)
    assert cold == warm == [porter_stem.__wrapped__(w) for w in words]


def test_jaccard_identity():
    q = "how much money do I need in Bangkok"
    assert jaccard(q, q) == 1.0


def test_jaccard_disjoint():
    assert jaccard("alpha beta", "gamma delta") == 0.0


def test_jaccard_hand_example():
    got = jaccard(
        "how much money do I need in Bangkok",
        "budget for a work trip to Bangkok for a reporter",
    )
    assert got == pytest.approx(1 / 15, abs=1e-12)


def test_jaccard_both_empty():
    assert jaccard("", "...") == 1.0


def test_jaccard_symmetric_and_bounded():
    rng = random.Random(7)
    vocab = ["cat", "cats", "running", "run", "the", "dog", "dogs", "quick"]
    for _ in range(200):
        a = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        b = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        ab = jaccard(a, b)
        assert ab == jaccard(b, a)
        assert 0.0 <= ab <= 1.0


def test_jaccard_stems_before_comparing():
    # "running" and "runs" share the stem "run".
    assert jaccard("running", "runs") == 1.0


def test_lexical_diversity_all_distinct():
    assert lexical_diversity(["a b c"]) == 1.0


def test_lexical_diversity_repeats():
    assert lexical_diversity(["a a a a"]) == 0.25


def test_lexical_diversity_pooled():
    assert lexical_diversity(["the cat", "the dog"]) == 0.75


def test_lexical_diversity_empty_errors():
    with pytest.raises(ValueError):
        lexical_diversity(["", "  "])


def test_lexical_diversity_bounds():
    rng = random.Random(11)
    vocab = ["w%d" % i for i in range(5)]
    for _ in range(100):
        texts = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        d = lexical_diversity(texts)
        assert 0.0 < d <= 1.0
        tokens = [t for text in texts for t in tokenize(text)]
        assert (d == 1.0) == (len(set(tokens)) == len(tokens))


def test_count_syllables():
    assert count_syllables("cat") == 1
    assert count_syllables("the") == 1
    assert count_syllables("anxiety") == 3
    assert count_syllables("attractions") == 3
    assert count_syllables("free") == 1
    assert count_syllables("e") == 1


def test_fk_grade_hand_example():
    assert flesch_kincaid_grade("The cat sat.") == pytest.approx(-2.62, abs=1e-9)


def test_fk_grade_single_monosyllable():
    assert flesch_kincaid_grade("cat") == pytest.approx(-3.40, abs=1e-9)


def test_fk_grade_two_sentences():
    # 4 words, 2 sentences, 4 syllables.
    got = flesch_kincaid_grade("It runs. It jumps.")
    want = 0.39 * (4 / 2) + 11.8 * (4 / 4) - 15.59
    assert got == pytest.approx(want, abs=1e-12)


def test_fk_grade_zero_words_errors():
    with pytest.raises(ValueError):
        flesch_kincaid_grade("...")


def test_fk_grade_increases_with_syllables():
    # Same word and sentence counts, more syllables per word.
    low = flesch_kincaid_grade("cat cat cat.")
    high = flesch_kincaid_grade("cat anxiety cat.")
    assert high > low


def test_variant_features():
    rec = variant_features("2001", "child", 0, "money in Bangkok", "monies in bangkok")
    assert isinstance(rec, VariantFeatureRecord)
    assert (rec.topic_id, rec.profile_id, rec.index) == ("2001", "child", 0)
    assert rec.length_words == 3
    assert 0.0 <= rec.jaccard <= 1.0
