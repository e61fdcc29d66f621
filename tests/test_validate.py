"""Transformation validators, spell correction, and annotation scoring."""

import random
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvbench.core import (
    AnnotationRecord,
    Profile,
    QueryVariant,
    Topic,
    ValidationError,
    query_cell,
)
from qvbench.validate import (
    ConsensusReport,
    CHECKED_PROFILES,
    EQUALLY_LIKELY,
    SIMILARITY_ANSWERS,
    consensus_reports,
    filter_by_gold,
    load_dictionary,
    osa_distance,
    spell_correct,
    validate_misspelling,
    validate_order,
    validate_variants,
)


def oracle_osa(a, b):
    """Optimal string alignment by the recursive definition."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        best = min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + cost)
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, d(i - 2, j - 2) + 1)
        return best

    return d(len(a), len(b))


def scan_spell_correct(word, dictionary):
    """Spell correction as a scan of every dictionary word in sorted
    order, keeping the nearest within distance 2: the reference."""
    if word in dictionary:
        return word
    best = None
    best_dist = 3
    for candidate in sorted(dictionary):
        if abs(len(candidate) - len(word)) >= best_dist:
            continue
        dist = osa_distance(word, candidate)
        if dist < best_dist:
            best, best_dist = candidate, dist
            if best_dist == 1:
                break
    return best


# the bundled words' letters, plus characters no bundled word uses
TYPO_CHARACTERS = "abcdefghijklmnopqrstuvwxyz" + "éß-1"
EDIT_KINDS = ("delete", "transpose", "substitute", "insert")


@st.composite
def typos(draw, edits=st.integers(0, 3)):
    """A bundled word after random edits of the four OSA kinds."""
    word = draw(st.sampled_from(sorted(load_dictionary())))
    for _ in range(draw(edits)):
        kind = draw(st.sampled_from(EDIT_KINDS))
        if kind == "insert":
            at = draw(st.integers(0, len(word)))
            word = word[:at] + draw(st.sampled_from(TYPO_CHARACTERS)) + word[at:]
        elif kind == "transpose" and len(word) > 1:
            at = draw(st.integers(0, len(word) - 2))
            word = word[:at] + word[at + 1] + word[at] + word[at + 2 :]
        elif kind == "substitute" and word:
            at = draw(st.integers(0, len(word) - 1))
            word = word[:at] + draw(st.sampled_from(TYPO_CHARACTERS)) + word[at + 1 :]
        elif kind == "delete" and word:
            at = draw(st.integers(0, len(word) - 1))
            word = word[:at] + word[at + 1 :]
    return word


# the collection types a dictionary may come as; a list is given sorted
DICTIONARY_KINDS = (frozenset, set, sorted)


class TestOsaDistance:
    def test_hand_anchors(self):
        assert osa_distance("asma", "asthma") == 2
        assert osa_distance("kitten", "sitting") == 3
        assert osa_distance("ashtma", "asthma") == 1
        assert osa_distance("", "abc") == 3
        assert osa_distance("abc", "abc") == 0

    def test_osa_not_unrestricted_damerau(self):
        # unrestricted Damerau-Levenshtein would give 2 here
        assert osa_distance("ca", "abc") == 3

    def test_matches_recursive_definition(self):
        rng = random.Random(20817)
        for _ in range(300):
            a = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 8)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 8)))
            assert osa_distance(a, b) == oracle_osa(a, b), (a, b)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(100):
            a = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 6)))
            b = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 6)))
            assert osa_distance(a, b) == osa_distance(b, a)


class TestSpellCorrect:
    def test_word_in_dictionary_returns_itself(self):
        assert spell_correct("cat", frozenset({"cat", "bat"})) == "cat"

    def test_asma_corrects_to_asthma(self):
        assert spell_correct("asma", frozenset({"asthma", "symptoms"})) == "asthma"

    def test_no_candidate_within_two(self):
        assert spell_correct("xqzw", load_dictionary()) is None

    def test_tie_breaks_lexicographically(self):
        # "aat" is distance 1 from both; "bat" sorts first
        assert spell_correct("aat", frozenset({"cat", "bat"})) == "bat"

    def test_closer_candidate_beats_smaller_name(self):
        # "aandoned" is distance 1 from "abandoned", 2+ from "aa"
        assert spell_correct("aandoned", frozenset({"aa", "abandoned"})) == "abandoned"

    def test_against_bruteforce_on_bundled_dictionary(self):
        dictionary = load_dictionary()
        rng = random.Random(99)
        words = sorted(dictionary)
        for _ in range(40):
            word = rng.choice(words)
            if len(word) < 3:
                continue
            pos = rng.randrange(len(word))
            typo = word[:pos] + word[pos + 1 :]  # single deletion
            got = spell_correct(typo, dictionary)
            if typo in dictionary:
                assert got == typo
                continue
            best = None
            for cand in words:
                dist = oracle_osa(typo, cand)
                if dist <= 2 and (best is None or dist < best[0] or (dist == best[0] and cand < best[1])):
                    best = (dist, cand)
            assert got == (best[1] if best else None), (typo, got, best)

    @settings(max_examples=300)
    @given(word=typos(), kind=st.sampled_from(DICTIONARY_KINDS))
    def test_matches_scan_on_bundled_dictionary(self, word, kind):
        dictionary = load_dictionary()
        assert spell_correct(word, kind(dictionary)) == scan_spell_correct(word, dictionary)

    @given(
        dictionary=st.frozensets(
            st.text("aäbßcé", min_size=1, max_size=5), min_size=1, max_size=12
        ),
        word=st.text("aäbßcéx", max_size=6),
        kind=st.sampled_from(DICTIONARY_KINDS),
    )
    def test_matches_scan_on_non_ascii_dictionaries(self, dictionary, word, kind):
        assert spell_correct(word, kind(dictionary)) == scan_spell_correct(word, dictionary)

    @pytest.mark.parametrize(
        "dictionary, want",
        [
            (load_dictionary(), scan_spell_correct("", load_dictionary())),
            (frozenset({"cd", "b", "a"}), "a"),
            (frozenset({"cd", "ab"}), "ab"),
            (frozenset({"abc"}), None),
            (frozenset({"", "a"}), ""),
        ],
    )
    @pytest.mark.parametrize("kind", DICTIONARY_KINDS)
    def test_empty_string(self, dictionary, want, kind):
        assert spell_correct("", kind(dictionary)) == want == scan_spell_correct("", dictionary)

    @given(word=typos(edits=st.just(1)))
    def test_single_edit_typo_computes_no_distance(self, word):
        dictionary = load_dictionary()
        assume(word not in dictionary)
        want = scan_spell_correct(word, dictionary)
        with mock.patch(
            "qvbench.validate.osa_distance", side_effect=AssertionError("dictionary scanned")
        ):
            assert spell_correct(word, dictionary) == want


class TestValidateOrder:
    def test_reordering_is_valid(self):
        assert validate_order("blue red green", "green blue red") is True

    def test_identical_is_invalid(self):
        assert validate_order("blue red green", "blue red green") is False

    def test_dropped_word_is_invalid(self):
        assert validate_order("blue red green", "blue red") is False

    def test_repeated_words_need_matching_counts(self):
        assert validate_order("big big dog", "big dog") is False
        assert validate_order("big big dog", "dog big big") is True

    def test_case_and_punctuation_insensitive(self):
        assert validate_order("Blue Red, green", "green blue RED") is True

    def test_self_is_never_valid(self):
        rng = random.Random(11)
        vocab = ["alpha", "beta", "gamma", "delta"]
        for _ in range(50):
            q = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
            assert validate_order(q, q) is False

    def test_any_nonidentity_permutation_is_valid(self):
        rng = random.Random(12)
        words = ["one", "two", "three", "four", "five"]
        for _ in range(50):
            shuffled = words[:]
            rng.shuffle(shuffled)
            if shuffled == words:
                continue
            assert validate_order(" ".join(words), " ".join(shuffled)) is True


class TestValidateMisspelling:
    DICT = frozenset({"asthma", "symptoms", "dogs", "the", "in"})

    def test_corrected_token_matches_seed(self):
        assert validate_misspelling("asthma symptoms", "asma symptoms", self.DICT) is True

    def test_no_misspelling_fails(self):
        assert validate_misspelling("asthma symptoms", "asthma symptoms", self.DICT) is False

    def test_unrelated_typo_alone_does_not_qualify(self):
        # "azthma" corrects to the seed token "asthma"; "dogz" corrects
        # to "dogs", which is not in the seed
        assert validate_misspelling("asthma symptoms", "azthma dogz", self.DICT) is True
        assert validate_misspelling("asthma symptoms", "dogz symptoms", self.DICT) is False

    def test_all_dictionary_tokens_never_qualify(self):
        dictionary = load_dictionary()
        rng = random.Random(5)
        words = [w for w in sorted(dictionary) if len(w) > 3]
        for _ in range(30):
            q = " ".join(rng.choice(words) for _ in range(4))
            assert validate_misspelling(q, q, dictionary) is False


class TestValidateVariants:
    def test_checks_follow_profile_and_others_skipped(self):
        topics = [Topic("t1", "blue red green")]
        profiles = [
            Profile("textual_order", "textual", "Order", "shuffle"),
            Profile("textual_misspelling", "textual", "Misspelling", "typos"),
            Profile("persona_emily", "persona", "Emily", "a child"),
        ]
        dictionary = frozenset({"blue", "red", "green"})
        variants = [
            QueryVariant("t1", "textual_order", 1, "green blue red"),
            QueryVariant("t1", "textual_order", 2, "blue red green"),
            QueryVariant("t1", "textual_misspelling", 1, "bleu red green"),
            QueryVariant("t1", "textual_misspelling", 2, "blue red green"),
            QueryVariant("t1", "persona_emily", 1, "what is blue red green"),
        ]
        verdicts = validate_variants(topics, variants, profiles, dictionary)
        assert len(verdicts) == 4
        by_key = {(v.profile_id, v.index): v for v in verdicts}
        assert by_key[("textual_order", 1)].valid is True
        assert by_key[("textual_order", 2)].valid is False
        assert by_key[("textual_order", 2)].detail
        assert by_key[("textual_misspelling", 1)].valid is True
        assert by_key[("textual_misspelling", 2)].valid is False

    def test_unknown_profile_or_topic_raises(self):
        topics = [Topic("t1", "blue red")]
        profiles = [Profile("textual_order", "textual", "Order", "shuffle")]
        variant = QueryVariant("t1", "ghost", 1, "red blue")
        with pytest.raises(ValidationError):
            validate_variants(topics, [variant], profiles, frozenset({"a"}))
        orphan = QueryVariant("t9", "textual_order", 1, "red blue")
        with pytest.raises(ValidationError):
            validate_variants(topics, [orphan], profiles, frozenset({"a"}))

    def test_every_failed_verdict_carries_a_detail(self):
        topics = [Topic("t1", "blue red green")]
        profiles = [
            Profile("textual_order", "textual", "Order", "shuffle"),
            Profile("textual_misspelling", "textual", "Misspelling", "typos"),
        ]
        variants = [
            QueryVariant("t1", "textual_order", 1, "blue red green"),
            QueryVariant("t1", "textual_order", 2, "blue red"),
            QueryVariant("t1", "textual_misspelling", 1, "blue red green"),
        ]
        verdicts = validate_variants(topics, variants, profiles, frozenset({"blue", "red"}))
        assert [(v.check, v.valid, v.detail) for v in verdicts] == [
            ("order", False, "variant repeats the seed token sequence"),
            ("order", False, "token multisets differ"),
            ("misspelling", False, "no out-of-dictionary token corrects to a seed token"),
        ]


def ann(pair, who, answer, task="similarity", gold=None):
    return AnnotationRecord(
        pair_id=pair,
        annotator_id=who,
        task=task,
        seed_query="seed",
        variant="variant",
        answer=answer,
        is_gold=gold is not None,
        gold_answer=gold,
    )


class TestGoldFiltering:
    def test_one_wrong_gold_rejects_annotator(self):
        records = [
            ann("g1", "a1", "similar", gold="similar"),
            ann("g2", "a1", "similar", gold="dissimilar"),
            ann("t1__p__1", "a1", "similar"),
            ann("g1", "a2", "similar", gold="similar"),
            ann("t1__p__1", "a2", "similar"),
        ]
        kept, rejected = filter_by_gold(records)
        assert rejected == frozenset({"a1"})
        assert kept == frozenset({"a2"})

    def test_all_golds_correct_keeps_everyone(self):
        records = [
            ann("g1", "a1", "similar", gold="similar"),
            ann("g1", "a2", "dissimilar", gold="dissimilar"),
        ]
        kept, rejected = filter_by_gold(records)
        assert kept == frozenset({"a1", "a2"})
        assert rejected == frozenset()

    def test_idempotent(self):
        records = [
            ann("g1", "a1", "similar", gold="dissimilar"),
            ann("t1__p__1", "a1", "similar"),
            ann("t1__p__1", "a2", "similar"),
            ann("g1", "a2", "similar", gold="similar"),
        ]
        kept, _ = filter_by_gold(records)
        surviving = [r for r in records if r.annotator_id in kept]
        kept2, rejected2 = filter_by_gold(surviving)
        assert kept2 == kept
        assert rejected2 == frozenset()



NEUTRAL = Profile("p", "neutral", "Plain")
EMILY = Profile("emily", "persona", "Emily", "An 8-year-old.")
NOAH = Profile("noah", "persona", "Noah", "A 19-year-old.")


def only_row(rows, profile_id):
    (row,) = [r for r in rows if r.profile_id == profile_id]
    return row


class TestSimilarityAccuracy:
    @staticmethod
    def report(records, profiles=(NEUTRAL,)):
        similarity, _ = consensus_reports(records, list(profiles))
        return only_row(similarity, "p")

    def test_unanimous_similar_pairs(self):
        records = []
        for i in range(1, 11):
            records.append(ann(f"t{i}__p__1", "a1", "similar"))
            records.append(ann(f"t{i}__p__1", "a2", "similar"))
        report = self.report(records)
        assert report.n_pairs == 10
        assert report.accuracy == 1.0
        assert report.n_disagreements == 0

    def test_split_verdict_counts_dissimilar(self):
        records = []
        for i in range(1, 4):
            records.append(ann(f"t{i}__p__1", "a1", "similar"))
            records.append(ann(f"t{i}__p__1", "a2", "similar"))
        records.append(ann("t4__p__1", "a1", "similar"))
        records.append(ann("t4__p__1", "a2", "dissimilar"))
        report = self.report(records)
        assert report.n_pairs == 4
        assert report.n_agree_correct == 3
        assert report.accuracy == 0.75
        assert report.n_disagreements == 1

    def test_gold_and_incomplete_pairs_excluded(self):
        records = [
            ann("t1__p__1", "a1", "similar"),
            ann("t1__p__1", "a2", "similar"),
            ann("t2__p__1", "a1", "similar"),  # a2 never saw it
            ann("gold1", "a1", "similar", gold="similar"),
            ann("gold1", "a2", "similar", gold="similar"),
        ]
        report = self.report(records)
        assert report.n_pairs == 1
        assert report.accuracy == 1.0

    def test_other_profiles_ignored(self):
        records = [
            ann("t1__p__1", "a1", "similar"),
            ann("t1__p__1", "a2", "similar"),
            ann("t1__q__1", "a1", "dissimilar"),
            ann("t1__q__1", "a2", "dissimilar"),
        ]
        assert self.report(records).n_pairs == 1

    def test_unknown_answer_raises(self):
        records = [
            ann("t1__p__1", "a1", "kinda"),
            ann("t1__p__1", "a2", "similar"),
        ]
        with pytest.raises(ValidationError, match="pair t1__p__1: unknown similarity answer 'kinda'"):
            consensus_reports(records, [NEUTRAL])

    def test_three_annotators_on_a_pair_raises(self):
        records = [
            ann("t1__p__1", "a1", "similar"),
            ann("t1__p__1", "a2", "similar"),
            ann("t1__p__1", "a3", "similar"),
        ]
        with pytest.raises(ValidationError, match="pair t1__p__1 has more than two annotators"):
            consensus_reports(records, [NEUTRAL])


class TestAlignmentAccuracy:
    @staticmethod
    def report(answers_by_pair):
        records = []
        for i, (first, second) in enumerate(answers_by_pair, start=1):
            records.append(ann(f"t{i}__emily__1", "a1", first, task="alignment"))
            records.append(ann(f"t{i}__emily__1", "a2", second, task="alignment"))
        _, alignment = consensus_reports(records, [EMILY, NOAH])
        return only_row(alignment, "emily")

    def test_both_correct_counts(self):
        report = self.report([("emily", "emily")])
        assert report.n_pairs == 1 and report.n_agree_correct == 1
        assert report.accuracy == 1.0

    def test_split_between_correct_and_candidate_is_incorrect(self):
        report = self.report([("emily", "noah")])
        assert report.n_agree_correct == 0
        assert report.n_disagreements == 1

    def test_equally_likely_maps_to_correct(self):
        report = self.report([("equally likely", "emily"), ("equally likely", "equally likely")])
        assert report.n_pairs == 2
        assert report.n_agree_correct == 2
        assert report.n_disagreements == 0

    def test_agreeing_on_wrong_persona_is_incorrect_without_disagreement(self):
        report = self.report([("noah", "noah")])
        assert report.n_agree_correct == 0
        assert report.n_disagreements == 0

    def test_unknown_label_with_known_answers(self):
        with pytest.raises(ValidationError, match="pair t1__emily__1: unknown alignment answer"):
            self.report([("emily", "zorp")])


def test_unknown_answers_raise_in_row_order():
    records = [
        ann("t1__emily__1", "a1", "zorp", task="alignment"),
        ann("t1__emily__1", "a2", "emily", task="alignment"),
        ann("t2__noah__1", "a1", "kinda"),
        ann("t2__noah__1", "a2", "similar"),
    ]
    # noah comes first in the profiles file although t1 sorts before t2
    with pytest.raises(ValidationError, match="pair t2__noah__1: unknown similarity answer"):
        consensus_reports(records, [NOAH, EMILY])
    with pytest.raises(ValidationError, match="pair t1__emily__1: unknown alignment answer"):
        consensus_reports(records, [EMILY, NOAH])


# Consensus scoring as it stood before `consensus_reports`: one call per
# profile and task, each filtering and regrouping every record; the
# reference for the property test below.


def oracle_scored_pairs(annotations, task):
    kept, _ = filter_by_gold(annotations)
    grouped = {}
    for record in annotations:
        if record.task != task or record.is_gold:
            continue
        if record.annotator_id not in kept:
            continue
        grouped.setdefault(record.pair_id, []).append(record)
    for pair_id, records in grouped.items():
        if len(records) > 2:
            raise ValidationError(f"pair {pair_id} has more than two annotators")
    return {p: r for p, r in grouped.items() if len(r) == 2}


def oracle_similarity_accuracy(annotations, profile_id):
    pairs = oracle_scored_pairs(annotations, "similarity")
    n_pairs = n_agree = n_disagree = 0
    for pair_id, records in sorted(pairs.items()):
        if query_cell(pair_id)[1] != profile_id:
            continue
        answers = []
        for record in records:
            if record.answer not in SIMILARITY_ANSWERS:
                raise ValidationError(
                    f"pair {pair_id}: unknown similarity answer {record.answer!r}"
                )
            answers.append(record.answer)
        n_pairs += 1
        if answers[0] != answers[1]:
            n_disagree += 1
        elif answers[0] == "similar":
            n_agree += 1
    accuracy = n_agree / n_pairs if n_pairs else 0.0
    return ConsensusReport("similarity", profile_id, n_pairs, n_agree, accuracy, n_disagree)


def oracle_alignment_accuracy(annotations, profile_id, known_answers):
    pairs = oracle_scored_pairs(annotations, "alignment")
    n_pairs = n_correct = n_disagree = 0
    for pair_id, records in sorted(pairs.items()):
        if query_cell(pair_id)[1] != profile_id:
            continue
        mapped = []
        for record in records:
            answer = record.answer
            if answer != EQUALLY_LIKELY and answer not in known_answers:
                raise ValidationError(f"pair {pair_id}: unknown alignment answer {answer!r}")
            mapped.append(profile_id if answer == EQUALLY_LIKELY else answer)
        n_pairs += 1
        if mapped[0] != mapped[1]:
            n_disagree += 1
        elif mapped[0] == profile_id:
            n_correct += 1
    accuracy = n_correct / n_pairs if n_pairs else 0.0
    return ConsensusReport("alignment", profile_id, n_pairs, n_correct, accuracy, n_disagree)


def oracle_consensus(annotations, profiles):
    """The per-profile loop `validate` ran, with one change of order: a
    pair with more than two annotators in a scored task is reported
    before any unknown answer (similarity pairs first), where the loop
    reported it only when it reached the first profile scored on that
    task."""
    scores_similarity = [p for p in profiles if p.name.lower() not in CHECKED_PROFILES]
    scores_alignment = [p for p in profiles if p.method in ("persona", "group")]
    for task, scored in (("similarity", scores_similarity), ("alignment", scores_alignment)):
        if scored:
            oracle_scored_pairs(annotations, task)
    profile_ids = {p.profile_id for p in profiles}
    similarity_rows = []
    alignment_rows = []
    for profile in profiles:
        if profile in scores_similarity:
            report = oracle_similarity_accuracy(annotations, profile.profile_id)
            if report.n_pairs:
                similarity_rows.append(report)
        if profile in scores_alignment:
            report = oracle_alignment_accuracy(annotations, profile.profile_id, profile_ids)
            if report.n_pairs:
                alignment_rows.append(report)
    return similarity_rows, alignment_rows


# (profile id, method, name); "ghost" is an id no profiles file holds
PROFILE_POOL = (
    ("emily", "persona", "Emily"),
    ("group_child", "group", "Child"),
    ("neutral", "neutral", "Neutral"),
    ("textual_order", "textual", "Order"),
    ("textual_misspelling", "textual", "Misspelling"),
    ("textual_paraphrase", "textual", "Paraphrase"),
)
PAIR_PROFILES = [pid for pid, _, _ in PROFILE_POOL] + ["ghost"]


@st.composite
def annotation_sets(draw):
    """Profiles drawn from the pool in random order, and annotations
    mixing gold records (some answered wrong), one to three annotators
    a pair, unknown answers and pairs of profiles outside the file;
    most pairs name a profile in the file and have two annotators."""
    pool = draw(st.permutations(PROFILE_POOL))
    profiles = [
        Profile(pid, method, name, "" if method == "neutral" else f"{name}.")
        for pid, method, name in pool[: draw(st.integers(1, len(pool)))]
    ]
    alignment_answers = tuple(PAIR_PROFILES) + (EQUALLY_LIKELY, "zorp")
    records = []
    for _ in range(draw(st.integers(0, 10))):
        task = draw(st.sampled_from(("similarity", "alignment")))
        if draw(st.integers(0, 5)) == 0:
            pair_id = f"gold{draw(st.integers(1, 2))}"
            answer = draw(st.sampled_from(SIMILARITY_ANSWERS))
            for who in draw(st.sets(st.sampled_from("abcd"), min_size=1, max_size=3)):
                given_answer = draw(st.sampled_from((answer, answer, "dissimilar")))
                records.append(ann(pair_id, who, given_answer, task=task, gold=answer))
            continue
        topic = draw(st.sampled_from(("t1", "t2")))
        profile_id = draw(st.sampled_from([p.profile_id for p in profiles] * 3 + PAIR_PROFILES))
        pair_id = f"{topic}__{profile_id}__{draw(st.integers(1, 2))}"
        choices = SIMILARITY_ANSWERS + ("kinda",) if task == "similarity" else alignment_answers
        answer = st.sampled_from(choices[:-1] * 8 + choices[-1:])  # the unknown answer is rare
        annotators = draw(st.permutations("abcd"))[: draw(st.sampled_from((1, 2, 2, 2, 2, 2, 2, 3)))]
        for who in annotators:
            records.append(ann(pair_id, who, draw(answer), task=task))
    draw(st.randoms()).shuffle(records)
    return records, profiles


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


@given(annotation_sets())
@settings(max_examples=400, deadline=None)
def test_consensus_reports_match_the_per_profile_oracle(case):
    records, profiles = case
    assert outcome(consensus_reports, records, profiles) == outcome(
        oracle_consensus, records, profiles
    )


def test_consensus_reports_filter_gold_once():
    records = [
        ann("g1", "a1", "similar", gold="dissimilar"),
        ann("t1__emily__1", "a1", "similar"),
        ann("t1__emily__1", "a2", "similar"),
        ann("t1__emily__1", "a3", "dissimilar"),
        ann("t1__emily__1", "a2", "emily", task="alignment"),
        ann("t1__emily__1", "a3", EQUALLY_LIKELY, task="alignment"),
    ]
    with mock.patch("qvbench.validate.filter_by_gold", wraps=filter_by_gold) as spy:
        similarity, alignment = consensus_reports(records, [EMILY, NOAH])
    assert spy.call_count == 1
    assert similarity == [ConsensusReport("similarity", "emily", 1, 0, 0.0, 1)]
    assert alignment == [ConsensusReport("alignment", "emily", 1, 1, 1.0, 0)]


@given(annotation_sets())
@settings(max_examples=200, deadline=None)
def test_every_consensus_row_holds_consistent_counts(case):
    """ConsensusReport is a plain tuple: its counts are right because
    `consensus_reports` computes them, as this checks."""
    records, profiles = case
    rows = outcome(consensus_reports, records, profiles)
    assume(not isinstance(rows[0], str))
    for task, reports in zip(("similarity", "alignment"), rows):
        for r in reports:
            assert r.task == task
            assert 0 <= r.n_agree_correct <= r.n_pairs and 0 <= r.n_disagreements <= r.n_pairs
            assert r.n_pairs > 0 and r.accuracy == r.n_agree_correct / r.n_pairs
