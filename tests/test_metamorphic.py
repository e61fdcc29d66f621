"""Pipeline-level metamorphic relations: inputs changed in ways that must
not matter give an `out/` tree byte-equal to the unchanged run, reversed
topics reorder only the lines of the artifacts listed in topic order,
and a system copied under a new tag scores exactly as the original.

Each run is the toy pipeline's nine stages in-process through
`cli.main`, so an order dependence that enters between two stages, which
no single stage's tests see, shows as a changed artifact.
"""

import csv
import io
import random
from pathlib import Path

import pytest

from qvbench.cli import STAGES, main
from qvbench.toydata import write_toy_workspace


def run_pipeline(config_path: Path) -> dict:
    """Every file under out/ after all nine stages, by relative path."""
    for stage in STAGES:
        assert main([stage, "--config", str(config_path)]) == 0, stage
    out = config_path.parent / "out"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def unchanged(tmp_path_factory):
    return run_pipeline(write_toy_workspace(tmp_path_factory.mktemp("unchanged") / "ws"))


def merge_run_files(ws: Path) -> None:
    """fixture_a.run and fixture_b.run as one run file of both systems."""
    runs = ws / "runs"
    parts = [runs / "fixture_a.run", runs / "fixture_b.run"]
    merged = "".join(p.read_text(encoding="utf-8") for p in parts)
    for p in parts:
        p.unlink()
    (runs / "fixtures.run").write_text(merged, encoding="utf-8")


def shuffle_lines(ws: Path) -> None:
    """The lines of both run files, the human qrels and the corpus, each
    shuffled with a fixed seed."""
    rng = random.Random(20251021)
    for name in ("runs/fixture_a.run", "runs/fixture_b.run", "qrels.txt", "passages.tsv"):
        path = ws / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert shuffled != lines
        path.write_text("".join(shuffled), encoding="utf-8")


@pytest.mark.parametrize("change", [merge_run_files, shuffle_lines], ids=lambda f: f.__name__)
def test_out_is_byte_equal_to_the_unchanged_run(unchanged, tmp_path, change):
    config_path = write_toy_workspace(tmp_path / "ws")
    change(config_path.parent)
    changed = run_pipeline(config_path)
    assert sorted(changed) == sorted(unchanged)
    assert [name for name in unchanged if changed[name] != unchanged[name]] == []


# The artifacts that list their lines in topics.tsv's order.
TOPIC_ORDERED = (
    "variants.jsonl", "genlog.jsonl", "verdicts.csv", "features.csv", "backstories.jsonl",
)


def test_reversed_topics_reorder_only_the_topic_ordered_lines(unchanged, tmp_path):
    """topics.tsv's lines reversed: each TOPIC_ORDERED artifact holds the
    same lines, maybe in another order, and every other file is byte-equal."""
    config_path = write_toy_workspace(tmp_path / "ws")
    topics = config_path.parent / "topics.tsv"
    lines = topics.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 1
    topics.write_text("".join(reversed(lines)), encoding="utf-8")
    changed = run_pipeline(config_path)
    assert sorted(changed) == sorted(unchanged)
    others = [name for name in unchanged if name not in TOPIC_ORDERED]
    assert [name for name in others if changed[name] != unchanged[name]] == []
    for name in TOPIC_ORDERED:
        assert sorted(changed[name].splitlines(keepends=True)) == sorted(
            unchanged[name].splitlines(keepends=True)
        ), name


def read_table(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))


def test_run_copied_under_a_new_tag_scores_as_the_original(tmp_path):
    config_path = write_toy_workspace(tmp_path / "ws")
    runs = config_path.parent / "runs"
    lines = (runs / "fixture_a.run").read_text(encoding="utf-8").splitlines()
    copied = "".join(line.rsplit(" ", 1)[0] + " fixture_copy\n" for line in lines)
    (runs / "fixture_copy.run").write_text(copied, encoding="utf-8")
    out = run_pipeline(config_path)

    ndcg = read_table(out["ndcg.csv"])

    def scores(system):
        return {
            (row["topic_id"], row["profile_id"], row["variant_index"]): row["ndcg"]
            for row in ndcg
            if row["system_id"] == system
        }

    assert scores("fixture_a") and scores("fixture_copy") == scores("fixture_a")
    tukey = read_table(out["tukey_pairs.csv"])
    pairs = [r for r in tukey if {r["system_a"], r["system_b"]} == {"fixture_a", "fixture_copy"}]
    assert sorted(r["profile"] for r in pairs) == sorted({r["profile"] for r in tukey})
    assert {(float(r["diff"]), r["significant"]) for r in pairs} == {(0.0, "false")}
