"""Pipeline-level metamorphic relations: inputs changed in ways that must
not matter give an `out/` tree byte-equal to the unchanged run.

Each run is the toy pipeline's nine stages in-process through
`cli.main`, so an order dependence that enters between two stages, which
no single stage's tests see, shows as a changed artifact.
"""

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
