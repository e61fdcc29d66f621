"""Checks a pipeline's `out/` directory against a stored sketch and its own structure.

A sketch holds, per artifact, a digest of its bytes, a digest of its
exact content (the text with every float literal masked, plus each float
rounded to 8 significant digits) and one weighted sum of its floats. An
artifact then compares as

- "identical": same bytes;
- "equivalent": exact content equal and the floats' weighted sum within
  1e-9 relative, as a last-ulp change in a score leaves it;
- "different": anything else, such as a swapped rank or another text.
"""

import hashlib
import json
import math
import random
import re
from collections import defaultdict
from pathlib import Path

FLOAT_RE = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])"
)
REL_TOL = 1e-9

# Which stage writes each artifact; a failed check is charged to that stage.
ARTIFACT_STAGE = {
    "variants.jsonl": "generate",
    "genlog.jsonl": "generate",
    "verdicts.csv": "validate",
    "features.csv": "validate",
    "index_stats.json": "index",
    "backstories.jsonl": "judge",
    "llm_qrels.txt": "judge",
    "llm_raw.jsonl": "judge",
    "merged_qrels.txt": "evaluate",
    "coverage.csv": "evaluate",
    "ndcg.csv": "evaluate",
    "anova.csv": "analyze",
    "tau_matrix.csv": "analyze",
    "agreement.csv": "analyze",
    "marginal_means.csv": "analyze",
    "tukey_pairs.csv": "analyze",
    "marginal_means.svg": "report",
    "system_rankings.svg": "report",
}
SEARCH_SYSTEMS = ("bm25_k09_b04", "bm25_k12_b075", "bm25_k20_b075")


def stage_of(artifact: str) -> str:
    if artifact.startswith("runs/"):
        return "search" if Path(artifact).stem in SEARCH_SYSTEMS else "import-runs"
    return ARTIFACT_STAGE.get(artifact, "report")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _weights(n: int) -> list:
    rng = random.Random("perfbench-sketch")
    return [rng.uniform(-1.0, 1.0) for _ in range(n)]


def sketch_text(data: bytes) -> dict:
    text = data.decode("utf-8")
    floats = [float(m) for m in FLOAT_RE.findall(text)]
    exact = FLOAT_RE.sub("\x00", text) + "\x00".join(f"{x:.7e}" for x in floats)
    weights = _weights(len(floats))
    terms = [w * x for w, x in zip(weights, floats)]
    return {
        "sha": _digest(data),
        "exact": _digest(exact.encode("utf-8")),
        "sum": math.fsum(terms),
        "mag": math.fsum(abs(t) for t in terms),
    }


def artifacts(out_dir: Path) -> list:
    return sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file())


def sketch(out_dir) -> dict:
    out_dir = Path(out_dir)
    return {name: sketch_text((out_dir / name).read_bytes()) for name in artifacts(out_dir)}


def compare_one(ref: dict, cur: dict) -> str:
    if ref["sha"] == cur["sha"]:
        return "identical"
    if ref["exact"] != cur["exact"]:
        return "different"
    if abs(cur["sum"] - ref["sum"]) <= REL_TOL * ref["mag"] * (1 + 1e-6):
        return "equivalent"
    return "different"


def compare(ref: dict, cur: dict) -> dict:
    """{artifact: status}; an artifact on one side only is "missing" or "extra"."""
    status = {}
    for name in sorted(set(ref) | set(cur)):
        if name not in cur:
            status[name] = "missing"
        elif name not in ref:
            status[name] = "extra"
        else:
            status[name] = compare_one(ref[name], cur[name])
    return status


# ---------------------------------------------------------------- structure


def _lines(path: Path) -> list:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _csv_rows(path: Path) -> int:
    return len(_lines(path)) - 1


def structure_problems(out_dir, expect: dict) -> list:
    """(artifact, problem) pairs for an `out/` that breaks the pipeline's shape.

    `expect` holds n_topics, n_passages, n_profiles, k, systems (every run
    expected under out/runs) and query_ids (every query a run must cover).
    """
    out_dir = Path(out_dir)
    problems = []
    present = set(artifacts(out_dir)) if out_dir.is_dir() else set()
    required = set(ARTIFACT_STAGE) | {f"runs/{s}.run" for s in expect["systems"]}
    for name in sorted(required - present):
        problems.append((name, "missing"))
    if problems:
        return problems

    k = expect["k"]
    query_ids = set(expect["query_ids"])
    n_variants = expect["n_topics"] * expect["n_profiles"] * 3
    if len(_lines(out_dir / "variants.jsonl")) != n_variants:
        problems.append(("variants.jsonl", f"expected {n_variants} variants"))
    if _csv_rows(out_dir / "features.csv") != n_variants:
        problems.append(("features.csv", f"expected {n_variants} rows"))
    stats = json.loads((out_dir / "index_stats.json").read_text(encoding="utf-8"))
    if stats.get("passages") != expect["n_passages"]:
        problems.append(("index_stats.json", f"expected {expect['n_passages']} passages"))

    pool = set()
    for system in expect["systems"]:
        name = f"runs/{system}.run"
        ranked = defaultdict(list)
        for line in _lines(out_dir / name):
            qid, _, pid, rank, _, _ = line.split()
            ranked[qid].append((int(rank), pid))
        bad = [
            q for q, rows in ranked.items()
            if sorted(r for r, _ in rows) != list(range(1, k + 1)) or len({p for _, p in rows}) != k
        ]
        if set(ranked) != query_ids or bad:
            problems.append((name, f"expected {k} distinct ranked results for each of {len(query_ids)} queries"))
        for qid, rows in ranked.items():
            topic = qid.split("__")[0]
            pool.update((topic, pid) for _, pid in rows)
    labels = _lines(out_dir / "llm_qrels.txt")
    if len(labels) != len(pool):
        problems.append(("llm_qrels.txt", f"expected one label per pooled pair ({len(pool)})"))

    n_rows = len(expect["systems"]) * len(query_ids)
    if _csv_rows(out_dir / "ndcg.csv") != n_rows:
        problems.append(("ndcg.csv", f"expected {n_rows} rows"))
    if _csv_rows(out_dir / "marginal_means.csv") != expect["n_profiles"]:
        problems.append(("marginal_means.csv", f"expected {expect['n_profiles']} rows"))
    return problems
