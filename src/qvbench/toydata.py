"""Bundled toy collection: topics, passages, qrels, and fixture runs.

Everything here is generated from fixed seeds so that demo pipelines
and end-to-end checks are byte-reproducible. Queries and passages draw
their vocabulary from the bundled spelling dictionary, which keeps the
mock provider's misspelling machinery applicable to every topic.
"""

import hashlib
import heapq
import random
import shutil
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import (
    VARIANTS_PER_PAIR,
    Passage,
    Qrel,
    RunRecord,
    Topic,
    ValidationError,
    load_profiles,
    variant_query_id,
    write_passages,
    write_qrels,
    write_trec_run,
)
from .textkit import tokenize

SEED_QUERIES = (
    "asthma symptoms in young children",
    "best coffee beans for espresso",
    "how to train a new puppy",
    "cheap flights to bangkok",
    "knee pain after running",
    "planting flowers in early spring",
    "learning spanish grammar basics",
    "electric car battery range",
    "healthy dinner recipes for children",
    "bike brakes repair guide",
    "solar panels installation cost",
    "beginner piano lessons price",
    "baking bread at home",
    "museum hours in the city",
    "coral reef diving safety",
    "best laptop for programming",
    "causes of chronic cough",
    "mortgage interest rate changes",
    "marathon training pace plan",
    "sleep habits for better memory",
    "dog food allergies signs",
    "espresso machine cleaning steps",
    "cheap hotels near the beach",
    "guitar chords for simple songs",
    "garden soil for growing flowers",
    "quiet keyboard for the office",
    "income tax filing deadline",
    "winter tires on snow and ice",
    "protein rich breakfast ideas",
    "saving money on electricity bills",
    "public library opening hours",
    "camping gear checklist for rain",
    "chess openings for beginners",
    "blood pressure and daily exercise",
    "smartphone camera night photos",
    "renewable energy for apartment buildings",
    "stretching routine for lower back",
    "fresh pasta dough recipe",
    "student loan interest rates",
    "bird feeding in cold months",
    "home office chair for posture",
    "city parking rules on weekends",
    "learning python for data analysis",
    "natural remedies for dry skin",
    "train tickets to the coast",
    "indoor plants for low light",
    "wedding venue booking advice",
    "running shoes for flat feet",
    "climate change and coral reefs",
    "first aid for small burns",
    "hiking trails near the river",
    "violin practice for adults",
    "grocery budget for one person",
)

# Function words excluded when picking content terms from a query.
_STOPWORDS = frozenset(
    "a an and at for how in near new of on one per the to with".split()
)

_FILLER = (
    "about",
    "after",
    "almost",
    "always",
    "area",
    "available",
    "because",
    "before",
    "better",
    "between",
    "common",
    "could",
    "daily",
    "during",
    "early",
    "every",
    "example",
    "few",
    "first",
    "full",
    "good",
    "help",
    "high",
    "keep",
    "know",
    "large",
    "less",
    "level",
    "list",
    "long",
    "look",
    "low",
    "many",
    "more",
    "most",
    "need",
    "often",
    "only",
    "open",
    "other",
    "over",
    "part",
    "people",
    "place",
    "plan",
    "right",
    "same",
    "season",
    "second",
    "short",
    "should",
    "simple",
    "small",
    "some",
    "start",
    "still",
    "time",
    "under",
    "useful",
    "usually",
    "ways",
    "well",
    "work",
    "year",
)

FIXTURE_SYSTEMS = ("fixture_a", "fixture_b")

# Relevance strength cycle for passages planned against one topic:
# grade 3 and 2 passages carry that many query terms, grade 0 none.
_STRENGTH_CYCLE = (3, 2, 1, 0)


def toy_topics(n: int = 5) -> list[Topic]:
    """First n topics of the fixed 53-query pool."""
    if not 1 <= n <= len(SEED_QUERIES):
        raise ValidationError(f"n={n} outside 1..{len(SEED_QUERIES)}")
    return [Topic(f"t{i:02d}", query) for i, query in enumerate(SEED_QUERIES[:n], 1)]


def content_words(query: str) -> list[str]:
    words = [w for w in tokenize(query) if w not in _STOPWORDS]
    if not words:
        raise ValidationError(f"query {query!r} has no content words")
    return words


def _passage_plan(n_passages: int, topics: Sequence[Topic]):
    """(passage_id, topic, strength) rows; topics rotate, strengths cycle."""
    plan = []
    for i in range(n_passages):
        topic = topics[i % len(topics)]
        strength = _STRENGTH_CYCLE[(i // len(topics)) % len(_STRENGTH_CYCLE)]
        plan.append((f"p{i + 1:03d}", topic, strength))
    return plan


def _passage_text(topic: Topic, strength: int, rng: random.Random) -> str:
    terms = content_words(topic.seed_query)
    picked = rng.sample(terms, min(strength, len(terms)))
    # Doubling the on-topic terms lifts tf so graded passages tend to
    # outrank incidental matches.
    words = picked * 2 + rng.sample(_FILLER, rng.randint(10, 16))
    rng.shuffle(words)
    sentences = []
    start = 0
    while start < len(words):
        step = rng.randint(6, 9)
        chunk = words[start : start + step]
        start += step
        if len(chunk) < 3 and sentences:
            sentences[-1] = sentences[-1][:-1] + " " + " ".join(chunk) + "."
            continue
        sentences.append(" ".join(chunk).capitalize() + ".")
    return " ".join(sentences)


def toy_passages(n: int = 200, topics: Optional[Sequence[Topic]] = None, seed: int = 0) -> list[Passage]:
    if n < 1:
        raise ValidationError(f"n={n} must be >= 1")
    if topics is None:
        topics = toy_topics()
    passages = []
    for passage_id, topic, strength in _passage_plan(n, topics):
        rng = random.Random(f"passage|{seed}|{passage_id}")
        passages.append(Passage(passage_id, _passage_text(topic, strength, rng)))
    return passages


def toy_qrels(
    n_passages: int = 200, topics: Optional[Sequence[Topic]] = None
) -> list[Qrel]:
    """Human judgments for roughly two thirds of the planned passages.

    The held-out third leaves genuine work for the LLM judging stage.
    """
    if topics is None:
        topics = toy_topics()
    qrels = []
    for i, (passage_id, topic, strength) in enumerate(_passage_plan(n_passages, topics)):
        if (i // len(topics)) % 3 == 2:
            continue
        qrels.append(Qrel(topic.topic_id, passage_id, strength))
    return qrels


def fixture_run_records(
    system_id: str,
    query_ids: Iterable[str],
    passage_ids: Sequence[str],
    k: int = 10,
) -> list[RunRecord]:
    """Pseudo-system results: passages ranked by a keyed content hash.

    A passage's score for a query is the first 8 bytes of
    sha256(f"{system_id}|{query_id}|{passage_id}"), compared as bytes, which
    orders them as the big-endian integers they encode. Each distinct query
    gets the k highest scores, ties broken by passage id ascending.
    Deterministic across runs and platforms, and distinct per system, so
    imported-run plumbing gets exercised with non-degenerate rankings.
    """
    if k < 1:
        raise ValidationError(f"k={k} must be >= 1")
    sha256 = hashlib.sha256
    raw_ids = [pid.encode() for pid in passage_ids]
    records = []
    for query_id in sorted(set(query_ids)):
        prefix = f"{system_id}|{query_id}|".encode()
        scores = [sha256(prefix + raw).digest()[:8] for raw in raw_ids]
        if not scores:
            break
        floor = heapq.nlargest(k, scores)[-1]
        # The k-th largest score is a floor every true top-k passage meets.
        top = sorted((pid, s) for s, pid in zip(scores, passage_ids) if s >= floor)
        top.sort(key=lambda c: c[1], reverse=True)
        for rank, (pid, _) in enumerate(top[:k], 1):
            records.append(RunRecord(system_id, query_id, pid, rank, float(k - rank + 1)))
    return records


def all_query_ids(topics: Sequence[Topic], profile_ids: Sequence[str]) -> list[str]:
    """Seed query ids plus every variant id the sweep will produce."""
    ids = [t.topic_id for t in topics]
    for t in topics:
        for p in profile_ids:
            for i in range(1, VARIANTS_PER_PAIR + 1):
                ids.append(variant_query_id(t.topic_id, p, i))
    return ids


def write_toy_workspace(
    root,
    n_topics: int = 5,
    n_passages: int = 200,
    seed: int = 0,
    k: int = 10,
) -> Path:
    """Materialize a self-contained pipeline workspace; returns the config path.

    Layout: topics.tsv, passages.tsv, qrels.txt, profiles.json, two
    fixture runs under runs/, and a toy.cfg wiring it all together with
    the mock provider.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    topics = toy_topics(n_topics)
    passages = toy_passages(n_passages, topics, seed=seed)

    with open(root / "topics.tsv", "w", encoding="utf-8") as fh:
        for t in topics:
            fh.write(f"{t.topic_id}\t{t.seed_query}\n")
    write_passages(passages, root / "passages.tsv")
    write_qrels(toy_qrels(n_passages, topics), root / "qrels.txt")

    bundled = Path(__file__).parent / "data" / "profiles.json"
    shutil.copyfile(bundled, root / "profiles.json")
    profile_ids = [p.profile_id for p in load_profiles(root / "profiles.json")]

    runs_dir = root / "runs"
    runs_dir.mkdir(exist_ok=True)
    query_ids = all_query_ids(topics, profile_ids)
    passage_ids = [p.passage_id for p in passages]
    for system_id in FIXTURE_SYSTEMS:
        records = fixture_run_records(system_id, query_ids, passage_ids, k=k)
        write_trec_run(records, runs_dir / f"{system_id}.run")

    config_path = root / "toy.cfg"
    out_dir = root / "out"
    lines = [
        "# toy pipeline workspace",
        "topics = topics.tsv",
        "corpus = passages.tsv",
        "profiles = profiles.json",
        "runs = runs",
        "qrels = qrels.txt",
        f"out = {out_dir.name}",
        f"k = {k}",
        f"seed = {seed}",
        "provider = mock",
        "merge = human-preferred",
    ]
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config_path

