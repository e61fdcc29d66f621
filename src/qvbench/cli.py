"""Pipeline orchestration: one stage per invocation, artifacts as files.

Every stage reads its inputs from disk and writes its outputs under the
configured output directory, so stages can be re-run independently and
a finished output directory is byte-reproducible given the same seed
and the mock provider.

Each stage runs in its own process, so each `cmd_*` imports the modules
it runs and importing this module loads only `core`: `import-runs`
needs nothing more, and no stage but `generate` and `judge` loads
`genkit`.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (
    MERGE_POLICIES,
    PROFILE_METHODS,
    SEED_PROFILE,
    GenerationError,
    ParseError,
    TransportError,
    ValidationError,
    _Validated,
    _decoding,
    atomic_write,
    format_trec_run,
    json_lines,
    load_profiles,
    parse_passages,
    parse_qrels,
    parse_topics,
    parse_trec_run,
    query_cell,
    read_annotations,
    read_csv,
    read_variants,
    variant_query_id,
    write_csv,
    write_qrels,
    write_topics,
    write_trec_run,
    write_variants,
)

GAIN_MODES = ("linear", "exp")
PROVIDERS = ("mock", "http")

# (system id, (k1, b)): the retrieval.Bm25Params of each system `search` runs.
BM25_SYSTEMS = (
    ("bm25_k09_b04", (0.9, 0.4)),
    ("bm25_k12_b075", (1.2, 0.75)),
    ("bm25_k20_b075", (2.0, 0.75)),
)

# The columns of ndcg.csv, which evaluate writes and analyze and report
# read, and of marginal_means.csv, which analyze writes and report reads.
_NDCG_COLUMNS = ("topic_id", "system_id", "profile_id", "variant_index", "ndcg")
_MEANS_COLUMNS = ("profile", "mean", "ci_low", "ci_high")


class ImbalanceError(Exception):
    """Effectiveness matrix cannot enter the balanced analysis."""


class _PipelineConfigFields(NamedTuple):
    topics: Path
    corpus: Path
    profiles: Path
    out: Path
    runs: Optional[Path] = None
    qrels: Optional[Path] = None
    annotations: Optional[Path] = None
    methods: tuple = PROFILE_METHODS
    k: int = 10
    alpha: float = 0.05
    gain: str = "linear"
    merge: str = "human-preferred"
    seed: int = 0
    provider: str = "mock"
    endpoint: str = ""
    model: str = ""


class PipelineConfig(_Validated, _PipelineConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _PipelineConfigFields.__new__(cls, *args, **kwargs)
        if self.k < 1:
            raise ValidationError(f"k={self.k} must be >= 1")
        if not 0.0 < self.alpha < 0.5:
            raise ValidationError(f"alpha={self.alpha} outside (0, 0.5)")
        if self.gain not in GAIN_MODES:
            raise ValidationError(f"unknown gain {self.gain!r}")
        if self.provider not in PROVIDERS:
            raise ValidationError(f"unknown provider {self.provider!r}")
        if self.merge not in MERGE_POLICIES:
            raise ValidationError(f"unknown merge policy {self.merge!r}")
        bad = [m for m in self.methods if m not in PROFILE_METHODS]
        if bad:
            raise ValidationError(f"unknown methods {bad}")
        if not self.methods:
            raise ValidationError("methods must not be empty")
        return self


_COMMENT = re.compile(r"(?:^|\s)#.*")


def _methods(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


# Each PipelineConfig field is a config-file key and a flag, given here
# with its conversion from text and its flag help. A Path resolves
# against the config file's directory; PipelineConfig checks the values.
_SETTINGS = {
    "topics": (Path, "seed topics (tsv or jsonl)"),
    "corpus": (Path, "passage collection (tsv or jsonl)"),
    "profiles": (Path, "transformation profiles json"),
    "out": (Path, "output directory"),
    "runs": (Path, "directory of external TREC run files"),
    "qrels": (Path, "human relevance judgments"),
    "annotations": (Path, "annotation export for consensus reports"),
    "methods": (_methods, "comma list from " + ",".join(PROFILE_METHODS)),
    "k": (int, "ranking depth (default 10)"),
    "alpha": (float, "significance level (default 0.05)"),
    "gain": (str, "NDCG gain mode: " + " | ".join(GAIN_MODES)),
    "merge": (
        lambda text: {"human": "human-only", "llm": "llm-only"}.get(text, text),
        "qrels merge policy: human[-only] | llm[-only] | human-preferred",
    ),
    "seed": (int, "random seed for the run"),
    "provider": (str, "variant/label provider: " + " | ".join(PROVIDERS)),
    "endpoint": (str, "http provider endpoint URL"),
    "model": (str, "http provider model name"),
}


def parse_config_file(path) -> dict:
    """Plain `key = value` lines over PipelineConfig's fields; later keys win.

    '#' starts a comment at the start of a line or after whitespace, so
    `out = run#2` keeps its '#'.
    """
    values = {}
    with open(path, encoding="utf-8") as fh, _decoding(path):
        for lineno, raw in enumerate(fh, 1):
            line = _COMMENT.sub("", raw, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SETTINGS:
                raise ParseError(f"{path}:{lineno}: unknown setting {key!r}")
            values[key] = value.strip()
    return values


def build_config(args) -> PipelineConfig:
    """PipelineConfig's defaults, overridden by the config file, overridden
    by flags; every value is text until its _SETTINGS conversion."""
    raw = {}
    base = Path.cwd()
    if args.config:
        config_path = Path(args.config)
        raw.update(parse_config_file(config_path))
        base = config_path.resolve().parent
    flags = vars(args)
    raw.update((key, flags[key]) for key in _SETTINGS if flags.get(key) is not None)

    defaults = PipelineConfig._field_defaults
    missing = [key for key in _SETTINGS if key not in raw and key not in defaults]
    if missing:
        raise ValidationError(f"missing required settings: {', '.join(missing)}")

    fields = {}
    for key, value in raw.items():
        convert = _SETTINGS[key][0]
        try:
            fields[key] = base / value if convert is Path else convert(value)
        except ValueError as exc:  # from int or float
            raise ValidationError(f"bad numeric setting: {exc}") from exc
    return PipelineConfig(**fields)


def make_provider(config: PipelineConfig):
    from .genkit import HttpProvider, MockProvider, ProviderConfig

    if config.provider == "mock":
        return MockProvider(seed_material=str(config.seed))
    if not config.endpoint or not config.model:
        raise ValidationError("http provider needs endpoint and model settings")
    return HttpProvider(ProviderConfig(endpoint=config.endpoint, model_name=config.model))


def _keyed_variants(path, variants) -> dict:
    """Variants read from `path` by (topic, profile, index) key, rejected
    if two share a key."""
    keyed = {}
    for v in variants:
        key = (v.topic_id, v.profile_id, v.index)
        if key in keyed:
            raise ValidationError(f"{path}: duplicate variant (topic, profile, index) {key}")
        keyed[key] = v
    return keyed


def _swept_variants(config: PipelineConfig, topics, profiles) -> list:
    """The variants file `generate` wrote, rejected if two variants share
    a key or one is of a topic or profile that is no longer listed."""
    path = config.out / "variants.jsonl"
    variants = list(_keyed_variants(path, read_variants(path)).values())
    topic_ids = {t.topic_id for t in topics}
    profile_ids = {p.profile_id for p in profiles}
    for v in variants:
        if v.topic_id not in topic_ids:
            raise ValidationError(f"{path}: variant of topic {v.topic_id!r}, not in {config.topics}")
        if v.profile_id not in profile_ids:
            raise ValidationError(
                f"{path}: variant of profile {v.profile_id!r}, not in {config.profiles}"
            )
    return variants


def _runs_by_file(config: PipelineConfig):
    """(path, its parsed run) for each run file under out/runs/, in name
    order. A file is parsed only when the caller asks for it, so a caller
    that folds each file into what it keeps holds one run at a time:
    `judge` keeps the pooled pairs, `evaluate` the top k of each list."""
    runs_dir = config.out / "runs"
    files = sorted(p for p in runs_dir.glob("*.run") if p.is_file()) if runs_dir.is_dir() else []
    if not files:
        raise ValidationError(f"no run files under {runs_dir}; run search/import-runs first")
    for path in files:
        yield path, parse_trec_run(path)


# ---------------------------------------------------------------- stages


def cmd_generate(config: PipelineConfig) -> None:
    from .genkit import GenerationLog, generate_sweep

    topics = parse_topics(config.topics)
    profiles = load_profiles(config.profiles)
    selected = [p for p in profiles if p.method in config.methods]
    if not selected:
        raise ValidationError(f"no profiles match methods {config.methods}")
    config.out.mkdir(parents=True, exist_ok=True)

    variants_path = config.out / "variants.jsonl"
    stored = read_variants(variants_path) if variants_path.exists() else []
    topic_pos = {t.topic_id: i for i, t in enumerate(topics)}
    profile_pos = {p.profile_id: i for i, p in enumerate(profiles)}
    existing = [v for v in stored if v.topic_id in topic_pos and v.profile_id in profile_pos]
    if len(existing) < len(stored):
        print(
            f"warning: dropped {len(stored) - len(existing)} variants of topics or profiles"
            f" no longer listed from {variants_path}",
            file=sys.stderr,
        )
    # Keep previously generated variants for profiles outside this
    # invocation's method selection, which generate_sweep does not
    # regenerate, so a duplicate among them fails before any provider
    # call; order everything canonically.
    selected_ids = {p.profile_id for p in selected}
    merged = _keyed_variants(
        variants_path, (v for v in existing if v.profile_id not in selected_ids)
    )
    provider = make_provider(config)
    logs = []
    produced = generate_sweep(
        provider, topics, selected, existing=existing, logs=logs
    )
    for v in produced:
        merged[(v.topic_id, v.profile_id, v.index)] = v
    ordered = sorted(
        merged.values(), key=lambda v: (topic_pos[v.topic_id], profile_pos[v.profile_id], v.index)
    )
    write_variants(ordered, variants_path)

    log_path = config.out / "genlog.jsonl"
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.writelines(json_lines(logs, GenerationLog._fields))

    by_method = {}
    method_of = {p.profile_id: p.method for p in profiles}
    for v in ordered:
        m = method_of[v.profile_id]
        by_method[m] = by_method.get(m, 0) + 1
    parts = ", ".join(f"{m} {by_method[m]}" for m in PROFILE_METHODS if m in by_method)
    print(f"{len(ordered)} variants on file ({parts}); {len(logs)} provider calls logged")


def cmd_validate(config: PipelineConfig) -> None:
    from .textkit import VariantFeatureRecord, variant_features
    from .validate import (
        CHECKED_PROFILES,
        ConsensusReport,
        ValidationVerdict,
        consensus_reports,
        load_dictionary,
        validate_variants,
    )

    topics = parse_topics(config.topics)
    profiles = load_profiles(config.profiles)
    variants = _swept_variants(config, topics, profiles)
    dictionary = load_dictionary()
    consensus = None
    if config.annotations is not None:
        consensus = consensus_reports(read_annotations(config.annotations), profiles)
    config.out.mkdir(parents=True, exist_ok=True)

    verdicts = validate_variants(topics, variants, profiles, dictionary)
    write_csv(config.out / "verdicts.csv", ValidationVerdict._fields, verdicts)
    n_valid = sum(1 for v in verdicts if v.valid)
    print(f"verdicts: {n_valid}/{len(verdicts)} valid")
    for check in CHECKED_PROFILES:
        checked = [v.valid for v in verdicts if v.check == check]
        print(f"  {check}: {sum(checked)}/{len(checked)} valid")

    seed_text = {t.topic_id: t.seed_query for t in topics}
    features = [
        variant_features(v.topic_id, v.profile_id, v.index, seed_text[v.topic_id], v.text)
        for v in variants
    ]
    write_csv(config.out / "features.csv", VariantFeatureRecord._fields, features)
    print(f"features: {len(features)} rows")

    if consensus is None:
        print("consensus: skipped (no annotations file)")
        return
    similarity_rows, alignment_rows = consensus
    for task, reports in (("similarity", similarity_rows), ("alignment", alignment_rows)):
        write_csv(config.out / f"consensus_{task}.csv", ConsensusReport._fields, reports)
    print(f"consensus: {len(similarity_rows)} similarity rows, {len(alignment_rows)} alignment rows")


def cmd_index(config: PipelineConfig) -> None:
    from .retrieval import build_index

    passages = parse_passages(config.corpus)
    index = build_index(passages)
    config.out.mkdir(parents=True, exist_ok=True)
    stats = {
        "passages": index.doc_count,
        "avg_doc_length": index.avg_doc_length,
        "vocabulary": len(index.postings),
        "postings": sum(len(plist) for plist in index.postings.values()),
    }
    with atomic_write(config.out / "index_stats.json") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"indexed {stats['passages']} passages, {stats['vocabulary']} terms")


def _query_texts(config: PipelineConfig) -> dict:
    topics = parse_topics(config.topics)
    variants = _swept_variants(config, topics, load_profiles(config.profiles))
    queries = {t.topic_id: t.seed_query for t in topics}
    for v in variants:
        queries[variant_query_id(v.topic_id, v.profile_id, v.index)] = v.text
    return queries


def cmd_search(config: PipelineConfig) -> None:
    from .retrieval import Bm25Params, build_index, run_queries

    passages = parse_passages(config.corpus)
    index = build_index(passages)
    queries = _query_texts(config)
    runs_dir = config.out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    for system_id, params in BM25_SYSTEMS:
        run = run_queries(index, Bm25Params(*params), queries, system_id, k=config.k)
        write_trec_run(run, runs_dir / f"{system_id}.run")
        print(f"{system_id}: {sum(map(len, run.values()))} results over {len(queries)} queries")


def cmd_import_runs(config: PipelineConfig) -> None:
    if config.runs is None or not Path(config.runs).is_dir():
        raise ValidationError("runs directory not configured or missing")
    files = sorted(p for p in Path(config.runs).iterdir() if p.is_file())
    if not files:
        raise ValidationError(f"no run files in {config.runs}")
    runs_dir = config.out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    # Every system of every file is rendered and checked before any is
    # written, so a rejected import leaves runs/ as it was.
    imported = []
    planned = {}  # target -> (rendered text, input file it came from)
    for path in files:
        by_system = {}
        for key, hits in parse_trec_run(path).items():
            by_system.setdefault(key[0], {})[key] = hits
        for system_id in by_system:
            # the tag becomes a file name under runs/
            if "/" in system_id or "\\" in system_id or system_id.startswith("."):
                raise ValidationError(f"{path}: run tag {system_id!r} is not a plain file name")
        for system_id in sorted(by_system):
            target = runs_dir / f"{system_id}.run"
            rendered = format_trec_run(by_system[system_id])
            if target in planned:
                present, where = planned[target]
            else:
                present = target.read_text(encoding="utf-8") if target.exists() else None
                where = target
            if present is not None and present != rendered:
                raise ValidationError(
                    f"{path}: system {system_id!r} already present in {where}"
                    " with different content"
                )
            planned[target] = (rendered, path)
            imported.append(system_id)
    for target, (rendered, _) in planned.items():
        with atomic_write(target) as fh:
            fh.write(rendered)
    print(f"imported {len(imported)} systems: {', '.join(imported)}")


def _pooled_pairs(config: PipelineConfig, topic_ids, passage_ids) -> list:
    """The sorted (topic, passage) pairs in the top k of every run file,
    pooled one file at a time; an unknown id is reported with its file.
    No run outlives the call."""
    from .judge import pool_topk

    pairs = set()
    for path, run in _runs_by_file(config):
        try:
            pairs |= pool_topk(run, topic_ids, passage_ids, config.k)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return sorted(pairs)


def cmd_judge(config: PipelineConfig) -> None:
    from .genkit import generate_backstories
    from .judge import LabelStore, label_topk

    # The corpus, the topics, every run, the stored backstories and the
    # label store are read and checked before the provider is made; of
    # the runs, only the pooled pairs are kept.
    passages = parse_passages(config.corpus)
    listed = parse_topics(config.topics)
    pairs = _pooled_pairs(config, {t.topic_id for t in listed}, {p.passage_id for p in passages})
    # A stored backstory is reused only for the topic and seed query it
    # was written for.
    backstories_path = config.out / "backstories.jsonl"
    stored = {}
    if backstories_path.exists():
        stored = {(t.topic_id, t.seed_query): t.backstory for t in parse_topics(backstories_path)}
    topics = [
        t if t.backstory else t._replace(backstory=stored.get((t.topic_id, t.seed_query)))
        for t in listed
    ]
    qrels_path = config.out / "llm_qrels.txt"
    raw_path = config.out / "llm_raw.jsonl"
    store = LabelStore.load(qrels_path, raw_path) if qrels_path.exists() else LabelStore()
    before = len(store)
    config.out.mkdir(parents=True, exist_ok=True)
    provider = make_provider(config)

    topics = generate_backstories(provider, topics)
    write_topics(topics, backstories_path)
    label_topk(provider, pairs, topics, passages, store)
    store.save(qrels_path, raw_path)
    print(f"labels: {len(store)} cached ({len(store) - before} new)")


def _merged_qrels(config: PipelineConfig) -> list:
    from .judge import LabelStore, merge_qrels

    human = []
    if config.qrels is not None:
        human = parse_qrels(config.qrels)
    llm_path = config.out / "llm_qrels.txt"
    llm = LabelStore.load(llm_path).qrels() if llm_path.exists() else []
    return merge_qrels(human, llm, config.merge)


def cmd_evaluate(config: PipelineConfig) -> None:
    from .evalstats.metrics import ideal_dcg, ndcg
    from .judge import CoverageReport, coverage

    expected = sorted(_query_texts(config))
    merged = _merged_qrels(config)
    # a system may be split across run files by query, but ranks each query once
    ranked = {}  # (system, query) -> the passage ids it ranks within k, in rank order
    for path, run in _runs_by_file(config):
        for key, hits in run.items():
            if key in ranked:
                raise ValidationError(
                    f"{path}: run {key[0]}, query {key[1]}: ranked again after an earlier run file"
                )
            ranked[key] = [passage_id for passage_id, _ in hits[: config.k]]
    config.out.mkdir(parents=True, exist_ok=True)
    write_qrels(merged, config.out / "merged_qrels.txt", with_source=True)

    reports = coverage(ranked, merged, k=config.k)
    write_csv(config.out / "coverage.csv", CoverageReport._fields, reports)

    grades = {}
    for q in merged:
        grades.setdefault(q.query_id, {})[q.passage_id] = q.grade
    idcg = {topic: ideal_dcg(g.values(), config.k, config.gain) for topic, g in grades.items()}
    systems = sorted({system_id for system_id, _ in ranked})

    skipped = len({query_id for _, query_id in ranked}.difference(expected))
    if skipped:
        print(
            f"warning: {skipped} run query ids outside the variant sweep were ignored",
            file=sys.stderr,
        )

    cells = [(query_id, query_cell(query_id)) for query_id in expected]
    rows = []
    unscored = []
    for system_id in systems:
        for query_id, (topic_id, profile_id, index) in cells:
            passages = ranked.get((system_id, query_id))
            if not passages:
                unscored.append((system_id, query_id))
                value = 0.0
            else:
                grade_of = grades.get(topic_id, {})
                observed = [grade_of.get(p, 0) for p in passages]
                value = ndcg(observed, idcg.get(topic_id, 0.0), config.k, config.gain)
            rows.append((topic_id, system_id, profile_id, index, value))
    if unscored:
        shown = ", ".join(f"{s}:{q}" for s, q in unscored[:5])
        print(
            f"warning: {len(unscored)} (system, query) pairs missing from runs scored 0.0"
            f" ({shown} ...)",
            file=sys.stderr,
        )

    rows.sort()
    write_csv(config.out / "ndcg.csv", _NDCG_COLUMNS, rows)
    print(f"ndcg: {len(rows)} rows over {len(systems)} systems")


def _read_matrix(config: PipelineConfig):
    """The variant cells of ndcg.csv as a balanced EffectivenessMatrix,
    rejected if it has a topic or profile that is no longer listed."""
    from .evalstats.matrix import EffectivenessMatrix

    path = config.out / "ndcg.csv"
    if not path.exists():
        raise ValidationError(f"{path} missing; run evaluate first")
    rows = read_csv(path, _NDCG_COLUMNS, (str, str, str, int, float))
    cells = [row for row in rows if row[2] != SEED_PROFILE]
    if not cells:
        raise ValidationError("ndcg.csv holds no variant cells")
    try:
        matrix = EffectivenessMatrix.from_scores(cells)
    except ValueError as exc:
        raise ImbalanceError(str(exc)) from exc
    topic_ids = [t.topic_id for t in parse_topics(config.topics)]
    profile_ids = [p.profile_id for p in load_profiles(config.profiles)]
    for what, levels, listed, source in (
        ("topic", matrix.topics, topic_ids, config.topics),
        ("profile", matrix.profiles, profile_ids, config.profiles),
    ):
        unlisted = sorted(set(levels).difference(listed))
        if unlisted:
            raise ValidationError(f"{path}: cells of {what} {unlisted[0]!r}, not in {source}")
    return matrix


def cmd_analyze(config: PipelineConfig) -> None:
    from .evalstats.agreement import AGREEMENT_CLASSES, agreement_from_verdicts, system_verdicts
    from .evalstats.anova import anova, marginal_means
    from .evalstats.metrics import kendall_tau

    matrix = _read_matrix(config)

    table = anova(matrix, ("topic", "system", "profile"))
    write_csv(
        config.out / "anova.csv",
        ["source", "ss", "df", "ms", "f", "p", "omega_sq_p"],
        table.all_rows(),
    )

    profiles = matrix.profiles
    verdicts = {}
    tukeys = {}
    for profile in profiles:
        verdicts[profile], tukeys[profile] = system_verdicts(
            matrix, profile, alpha=config.alpha
        )

    tau_rows = [
        [a] + [1.0 if a == b else kendall_tau(tukeys[a].means, tukeys[b].means) for b in profiles]
        for a in profiles
    ]
    write_csv(config.out / "tau_matrix.csv", ["profile"] + profiles, tau_rows)

    agreement_rows = []
    for i, a in enumerate(profiles):
        for b in profiles[i:]:
            rep = agreement_from_verdicts(a, b, verdicts[a], verdicts[b])
            agreement_rows.append(
                [a, b, rep.total_pairs]
                + [rep.counts[cls] for cls in AGREEMENT_CLASSES]
                + [rep.counts[cls] / rep.total_pairs for cls in AGREEMENT_CLASSES]
            )
    write_csv(
        config.out / "agreement.csv",
        ["profile_a", "profile_b", "total_pairs"]
        + list(AGREEMENT_CLASSES)
        + [f"frac_{cls}" for cls in AGREEMENT_CLASSES],
        agreement_rows,
    )

    means = marginal_means(matrix, table, alpha=config.alpha)
    write_csv(config.out / "marginal_means.csv", _MEANS_COLUMNS, means)

    write_csv(
        config.out / "tukey_pairs.csv",
        ["profile", "system_a", "system_b", "diff", "hsd", "significant"],
        (
            (profile, pair.group_a, pair.group_b, pair.diff, tukeys[profile].hsd, pair.significant)
            for profile in profiles
            for pair in tukeys[profile].pairs
        ),
    )

    print(
        f"analysis over {len(profiles)} profiles, {len(matrix.systems)} systems, "
        f"{len(matrix.topics)} topics written to {config.out}"
    )


# ---------------------------------------------------------------- report


_SVG_WIDTH, _SVG_HEIGHT = 940, 430


def _svg_bar_chart(title, labels, values, errors=None):
    """Static bar chart; coordinates rounded so output is byte-stable.

    Title and labels are escaped, so a run tag such as `a&b` stays
    well-formed XML.
    """
    # html.escape without quotes is xml.sax.saxutils.escape, whose
    # import pulls in urllib.request.
    from html import escape

    width, height = _SVG_WIDTH, _SVG_HEIGHT
    left, right, top, bottom = 64, 16, 42, 110
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max(values)
    if errors:
        peak = max(peak, max(hi for _, hi in errors))
    y_max = max(0.1, math.ceil(peak * 10) / 10)

    def x_of(i):
        return left + plot_w * (i + 0.5) / len(labels)

    def y_of(v):
        return top + plot_h * (1 - v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" font-size="16" text-anchor="middle">'
        f"{escape(title, quote=False)}</text>",
    ]
    for step in range(5):
        value = y_max * step / 4
        y = y_of(value)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{value:.2f}</text>'
        )
    bar_w = plot_w / len(labels) * 0.62
    for i, (label, value) in enumerate(zip(labels, values)):
        x = x_of(i)
        y = y_of(value)
        parts.append(
            f'<rect x="{x - bar_w / 2:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{y_of(0) - y:.2f}" fill="#4477aa"/>'
        )
        if errors:
            lo, hi = errors[i]
            y_lo, y_hi = y_of(lo), y_of(hi)
            cap = bar_w * 0.3
            parts.append(
                f'<line x1="{x:.2f}" y1="{y_lo:.2f}" x2="{x:.2f}" y2="{y_hi:.2f}" '
                f'stroke="#cc6677" stroke-width="1.5"/>'
            )
            for y_c in (y_lo, y_hi):
                parts.append(
                    f'<line x1="{x - cap:.2f}" y1="{y_c:.2f}" x2="{x + cap:.2f}" '
                    f'y2="{y_c:.2f}" stroke="#cc6677" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{x:.2f}" y="{height - bottom + 14}" font-size="11" '
            f'text-anchor="end" transform="rotate(-40 {x:.2f} {height - bottom + 14})">'
            f"{escape(label, quote=False)}</text>"
        )
    parts.append(
        f'<line x1="{left}" y1="{y_of(0):.2f}" x2="{width - right}" y2="{y_of(0):.2f}" '
        f'stroke="#333333" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(config: PipelineConfig) -> None:
    system_means = _read_matrix(config).group_means("system")
    means_path = config.out / "marginal_means.csv"
    if not means_path.exists():
        raise ValidationError(f"{means_path} missing; run analyze first")

    rows = read_csv(means_path, _MEANS_COLUMNS, (str, float, float, float))
    if not rows:
        raise ValidationError(f"{means_path} holds no profile rows")
    svg = _svg_bar_chart(
        "Marginal mean NDCG by profile",
        [r[0] for r in rows],
        [r[1] for r in rows],
        [(r[2], r[3]) for r in rows],
    )
    with atomic_write(config.out / "marginal_means.svg") as fh:
        fh.write(svg)

    systems = sorted(system_means, key=lambda s: (-system_means[s], s))
    svg = _svg_bar_chart(
        "System ranking by mean NDCG over variants",
        systems,
        [system_means[s] for s in systems],
    )
    with atomic_write(config.out / "system_rankings.svg") as fh:
        fh.write(svg)
    print(f"report: 2 charts written to {config.out}")


# ---------------------------------------------------------------- entry


class Stage(NamedTuple):
    run: Callable[[PipelineConfig], None]
    writes: tuple  # files under out/; "runs/" is every file in out/runs/


# The pipeline's stages in order: each stage name, its function, and
# every file it may write.
STAGES = {
    "generate": Stage(cmd_generate, ("variants.jsonl", "genlog.jsonl")),
    "validate": Stage(cmd_validate, (
        "verdicts.csv", "features.csv", "consensus_similarity.csv", "consensus_alignment.csv",
    )),
    "index": Stage(cmd_index, ("index_stats.json",)),
    "search": Stage(cmd_search, ("runs/",)),
    "import-runs": Stage(cmd_import_runs, ("runs/",)),
    "judge": Stage(cmd_judge, ("backstories.jsonl", "llm_qrels.txt", "llm_raw.jsonl")),
    "evaluate": Stage(cmd_evaluate, ("merged_qrels.txt", "coverage.csv", "ndcg.csv")),
    "analyze": Stage(cmd_analyze, (
        "anova.csv", "tau_matrix.csv", "agreement.csv", "marginal_means.csv", "tukey_pairs.csv",
    )),
    "report": Stage(cmd_report, ("marginal_means.svg", "system_rankings.svg")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvbench",
        description="Query-variant generation, validation, and evaluation pipeline.",
        epilog="stages, in pipeline order, and the files each writes under out/:\n" + "".join(
            f"  {name:<12} {', '.join(stage.writes)}\n" for name, stage in STAGES.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("stage", choices=STAGES, metavar="stage", help="one of the stages below")
    parser.add_argument("--config", help="key = value settings file")
    for key, (_, help_text) in _SETTINGS.items():
        parser.add_argument(f"--{key}", help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        STAGES[args.stage].run(config)
    except ImbalanceError as exc:
        print(f"error: unbalanced design: {exc}", file=sys.stderr)
        return 4
    except (GenerationError, TransportError) as exc:
        print(f"error: provider failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
