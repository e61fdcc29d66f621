"""Pipeline stages: config handling, artifacts, exit codes."""

import ast
import csv
import hashlib
import json
import marshal
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qvbench.cli as cli
import qvbench.core as core
from qvbench.cli import (
    BM25_SYSTEMS,
    PipelineConfig,
    build_config,
    main,
    parse_config_file,
)
from qvbench.core import (
    QueryVariant,
    ValidationError,
    parse_qrels,
    parse_topics,
    read_variants,
    write_variants,
)
from qvbench.genkit import MockProvider, TransportError
from qvbench.toydata import write_toy_workspace

STAGES = tuple(cli.STAGES)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One fully executed toy pipeline shared by the read-only tests."""
    config_path = write_toy_workspace(tmp_path_factory.mktemp("pipeline") / "ws")
    for command in STAGES:
        code = main([command, "--config", str(config_path)])
        assert code == 0, command
    return config_path


def out_dir(config_path: Path) -> Path:
    return config_path.parent / "out"


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfigFile:
    def test_parses_comments_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\nk = 5\nseed = 1  # inline\nk = 7\n")
        assert parse_config_file(path) == {"k": "7", "seed": "1"}

    def test_hash_inside_value_is_kept(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("out=run#2\nruns = a#b\t# note\n  # indented comment\n")
        assert parse_config_file(path) == {"out": "run#2", "runs": "a#b"}

    def test_rejects_bare_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("topics\n")
        from qvbench.core import ParseError

        with pytest.raises(ParseError):
            parse_config_file(path)

    def test_relative_paths_resolve_against_config(self, workspace):
        ns = _args(config=str(workspace))
        config = build_config(ns)
        assert config.topics == workspace.parent / "topics.tsv"
        assert config.out == workspace.parent / "out"

    def test_flags_override_file(self, workspace):
        ns = _args(config=str(workspace), k=25, merge="llm")
        config = build_config(ns)
        assert config.k == 25
        assert config.merge == "llm-only"

    @pytest.mark.parametrize("flag", ["human", "llm", "human-only", "llm-only", "human-preferred"])
    def test_merge_flag_takes_every_config_spelling(self, workspace, flag):
        argv = ["evaluate", "--config", str(workspace), "--merge", flag]
        args = cli._build_parser().parse_args(argv)
        assert build_config(args).merge == (flag if "-" in flag else f"{flag}-only")

    def test_settings_may_come_before_or_after_the_stage(self, workspace):
        parse = cli._build_parser().parse_args
        after = parse(["evaluate", "--config", str(workspace), "--k", "5"])
        before = parse(["--config", str(workspace), "--k", "5", "evaluate"])
        around = parse(["--config", str(workspace), "evaluate", "--k", "5"])
        assert after == before == around
        assert after.stage == "evaluate"
        assert build_config(after) == build_config(_args(config=str(workspace)))._replace(k=5)

    def test_help_lists_each_stage_and_its_files(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, stage in cli.STAGES.items():
            assert f"  {name:<12} {', '.join(stage.writes)}" in lines

    def test_missing_required(self):
        with pytest.raises(ValidationError, match="missing required"):
            build_config(_args())

    def test_unknown_key_fails_before_any_stage_runs(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        with open(config_path, "a", encoding="utf-8") as fh:
            fh.write("seeed = 3\n")
        lineno = len(config_path.read_text(encoding="utf-8").splitlines())
        assert main(["index", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config_path}:{lineno}: unknown setting 'seeed'\n"
        assert not out_dir(config_path).exists()

    def test_every_field_is_a_setting(self):
        assert tuple(cli._SETTINGS) == PipelineConfig._fields

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("gain", "foo", "unknown gain 'foo'"),
            ("provider", "gpt", "unknown provider 'gpt'"),
            ("merge", "both", "unknown merge policy 'both'"),
            ("methods", "persona,bogus", "unknown methods ['bogus']"),
            ("k", "ten", "bad numeric setting: invalid literal for int() with base 10: 'ten'"),
            ("alpha", "0.5", "alpha=0.5 outside (0, 0.5)"),
        ],
    )
    def test_bad_flag_fails_like_a_bad_file_value(self, tmp_path, capsys, key, value, message):
        config_path = write_toy_workspace(tmp_path / "ws")
        assert main(["index", "--config", str(config_path), f"--{key}", value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        with open(config_path, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {value}\n")
        assert main(["index", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir(config_path).exists()


def _args(**kwargs):
    import argparse

    return argparse.Namespace(**{key: kwargs.get(key) for key in ("config", *cli._SETTINGS)})


class TestConfigInvariants:
    BASE = dict(
        topics=Path("t"), corpus=Path("c"), profiles=Path("p"), out=Path("o")
    )

    def test_defaults(self):
        config = PipelineConfig(**self.BASE)
        assert config.k == 10
        assert config.alpha == 0.05
        assert config.methods == ("persona", "group", "textual", "neutral")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": 0},
            {"alpha": 0.5},
            {"alpha": 0.0},
            {"gain": "log"},
            {"provider": "gpt"},
            {"merge": "llm"},
            {"methods": ("persona", "bogus")},
            {"methods": ()},
        ],
    )
    def test_rejections(self, overrides):
        with pytest.raises(ValidationError):
            PipelineConfig(**{**self.BASE, **overrides})


class TestGenerate:
    def test_counts_and_resume(self, workspace, capsys):
        variants_path = out_dir(workspace) / "variants.jsonl"
        before = variants_path.read_bytes()
        assert len(read_variants(variants_path)) == 285  # 5 topics x 19 profiles x 3

        assert main(["generate", "--config", str(workspace)]) == 0
        assert "0 provider calls logged" in capsys.readouterr().out
        assert variants_path.read_bytes() == before

    def test_neutral_only(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        assert main(["generate", "--config", str(config_path), "--methods", "neutral"]) == 0
        variants = read_variants(out_dir(config_path) / "variants.jsonl")
        assert len(variants) == 15  # 5 topics x 1 profile x 3
        assert {v.profile_id for v in variants} == {"neutral"}

    def test_split_invocations_converge(self, tmp_path, workspace):
        config_path = write_toy_workspace(tmp_path / "ws")
        for methods in ("persona", "group", "textual,neutral"):
            assert main(["generate", "--config", str(config_path), "--methods", methods]) == 0
        split = (out_dir(config_path) / "variants.jsonl").read_bytes()
        combined = (out_dir(workspace) / "variants.jsonl").read_bytes()
        assert split == combined

    def test_unknown_method(self, workspace):
        assert main(["generate", "--config", str(workspace), "--methods", "bogus"]) == 2

    def test_pair_with_duplicate_index_regenerated(self, tmp_path, workspace, capsys):
        complete = (out_dir(workspace) / "variants.jsonl").read_bytes()
        variants = read_variants(out_dir(workspace) / "variants.jsonl")
        second = variants[1]
        assert (second.index, variants[0].index) == (2, 1)
        # the first pair holds three variants, indices 1, 1, 3
        variants[1] = QueryVariant(second.topic_id, second.profile_id, 1, second.text)
        config_path = write_toy_workspace(tmp_path / "ws")
        variants_path = out_dir(config_path) / "variants.jsonl"
        variants_path.parent.mkdir()
        write_variants(variants, variants_path)

        assert main(["generate", "--config", str(config_path)]) == 0
        assert "285 variants on file" in capsys.readouterr().out
        assert variants_path.read_bytes() == complete

    def test_variants_of_unlisted_inputs_dropped_without_a_provider_call(
        self, tmp_path, workspace, monkeypatch, capsys
    ):
        """t05 leaves topics.tsv and persona_emily profiles.json after
        generate wrote their variants: generate drops those variants and
        says so, asks nothing for the pairs it keeps, and writes their
        lines as they were."""
        config_path = write_toy_workspace(tmp_path / "ws")
        shutil.copytree(out_dir(workspace), out_dir(config_path))
        for removed in ("topic", "profile"):
            _unlist(config_path, removed)
        variants_path = out_dir(config_path) / "variants.jsonl"
        lines = variants_path.read_bytes().splitlines(keepends=True)
        kept = [
            line for line in lines
            if json.loads(line)["topic_id"] != "t05"
            and json.loads(line)["profile_id"] != "persona_emily"
        ]
        assert len(lines) - len(kept) == 57 + 12  # t05's 19 profiles, persona_emily's 4 topics
        genlog = (out_dir(config_path) / "genlog.jsonl").read_bytes()

        class Unpaid:
            def complete(self, prompt):
                pytest.fail("generate called the provider")

        monkeypatch.setattr(cli, "make_provider", lambda config: Unpaid())
        assert main(["generate", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: dropped 69 variants of topics or profiles no longer listed"
            f" from {variants_path}\n"
        )
        assert "216 variants on file" in captured.out  # 4 topics x 18 profiles x 3
        assert "0 provider calls logged" in captured.out
        assert variants_path.read_bytes() == b"".join(kept)
        assert (out_dir(config_path) / "genlog.jsonl").read_bytes() == genlog

    def test_incomplete_stored_pair_regenerated_before_writing(self, tmp_path, workspace, capsys):
        """A stored pair that lacks a variant index is regenerated whole, so
        the file written holds the full grid, never the incomplete set."""
        complete = (out_dir(workspace) / "variants.jsonl").read_bytes()
        variants = read_variants(out_dir(workspace) / "variants.jsonl")
        assert [v.index for v in variants[:3]] == [1, 2, 3]
        config_path = write_toy_workspace(tmp_path / "ws")
        variants_path = out_dir(config_path) / "variants.jsonl"
        variants_path.parent.mkdir()
        write_variants(variants[:1] + variants[2:], variants_path)

        assert main(["generate", "--config", str(config_path)]) == 0
        assert "1 provider calls logged" in capsys.readouterr().out
        assert variants_path.read_bytes() == complete


class TestValidateStage:
    def test_verdicts_all_valid(self, workspace):
        rows = read_csv(out_dir(workspace) / "verdicts.csv")
        assert len(rows) == 30  # order + misspelling profiles, 5 topics x 3
        assert all(row["valid"] == "true" for row in rows)

    def test_pass_rate_printed_per_check(self, tmp_path, workspace, capsys):
        variants = read_variants(out_dir(workspace) / "variants.jsonl")
        # one misspelling variant that repeats its seed fails its check
        at = next(i for i, v in enumerate(variants) if v.profile_id == "textual_misspelling")
        config_path = write_toy_workspace(tmp_path / "ws")
        seed = {t.topic_id: t.seed_query for t in parse_topics(config_path.parent / "topics.tsv")}
        bad = variants[at]
        variants[at] = QueryVariant(bad.topic_id, bad.profile_id, bad.index, seed[bad.topic_id])
        out_dir(config_path).mkdir()
        write_variants(variants, out_dir(config_path) / "variants.jsonl")
        assert main(["validate", "--config", str(config_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "verdicts: 29/30 valid",
            "  order: 15/15 valid",
            "  misspelling: 14/15 valid",
        ]

    def test_feature_rows_match_variant_count(self, workspace):
        assert len(read_csv(out_dir(workspace) / "features.csv")) == 285

    def test_consensus_notice_without_annotations(self, workspace, capsys):
        assert main(["validate", "--config", str(workspace)]) == 0
        assert "skipped (no annotations" in capsys.readouterr().out

    def test_consensus_written_with_annotations(self, workspace, tmp_path, capsys):
        from qvbench.core import write_jsonl

        pair = "t01__persona_emily__1"
        records = [
            {"pair_id": pair, "annotator_id": a, "task": "similarity", "seed_query": "q",
             "variant": "v", "answer": "similar"}
            for a in ("a1", "a2")
        ]
        path = tmp_path / "ann.jsonl"
        write_jsonl(records, path)
        # a copy, so the shared workspace's out/ gains no consensus tables
        config = shutil.copytree(workspace.parent, tmp_path / "ws") / workspace.name
        assert main(["validate", "--config", str(config), "--annotations", str(path)]) == 0
        assert "1 similarity rows" in capsys.readouterr().out
        rows = read_csv(out_dir(config) / "consensus_similarity.csv")
        assert rows[0]["profile_id"] == "persona_emily"
        assert rows[0]["accuracy"] == "1.0"

    def test_bad_annotations_exit_2_before_any_write(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        for name in ("verdicts.csv", "features.csv"):
            (out / name).write_text("stale\n", encoding="utf-8")
        before = out_files(out)
        path = tmp_path / "ann.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        flags = ["--out", str(out), "--annotations", str(path)]
        assert main(["validate", "--config", str(workspace), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: ")
        assert out_files(out) == before

    def test_unknown_alignment_answer_rejected(self, workspace, tmp_path, capsys):
        from qvbench.core import write_jsonl

        pair = "t01__persona_emily__1"
        records = [
            {"pair_id": pair, "annotator_id": a, "task": "alignment", "seed_query": "q",
             "variant": "v", "answer": answer}
            for a, answer in (("a1", "persona_emily"), ("a2", "not_a_profile"))
        ]
        path = tmp_path / "ann.jsonl"
        write_jsonl(records, path)
        assert main(["validate", "--config", str(workspace), "--annotations", str(path)]) == 2
        assert "unknown alignment answer" in capsys.readouterr().err

    def test_gold_flag_that_is_not_a_boolean_rejected(self, workspace, tmp_path, capsys):
        from qvbench.core import write_jsonl

        record = {"pair_id": "p", "annotator_id": "a1", "task": "similarity", "seed_query": "q",
                  "variant": "v", "answer": "similar", "gold_answer": "similar"}
        path = tmp_path / "ann.jsonl"
        write_jsonl([record, {**record, "is_gold": "false"}], path)
        assert main(["validate", "--config", str(workspace), "--annotations", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: is_gold must be a boolean\n"


class TestIndexAndSearch:
    def test_index_stats(self, workspace):
        stats = json.loads((out_dir(workspace) / "index_stats.json").read_text())
        assert stats["passages"] == 200
        assert stats["vocabulary"] > 0

    def test_run_files_cover_all_queries(self, workspace):
        from qvbench.core import parse_trec_run

        for system_id, _ in BM25_SYSTEMS:
            run = parse_trec_run(out_dir(workspace) / "runs" / f"{system_id}.run")
            assert {s for s, _ in run} == {system_id}
            assert len(run) == 290  # 5 seeds + 285 variants


class TestImportRuns:
    def test_idempotent(self, workspace):
        target = out_dir(workspace) / "runs" / "fixture_a.run"
        before = target.read_bytes()
        assert main(["import-runs", "--config", str(workspace)]) == 0
        assert target.read_bytes() == before

    def test_conflicting_content_rejected(self, tmp_path):
        config_path = write_toy_workspace(tmp_path / "ws")
        runs = out_dir(config_path) / "runs"
        runs.mkdir(parents=True)
        (runs / "fixture_a.run").write_text("t01 Q0 p001 1 5.0 fixture_a\n")
        assert main(["import-runs", "--config", str(config_path)]) == 2

    def test_conflict_writes_nothing(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        assert main(["import-runs", "--config", str(config_path)]) == 0
        runs = out_dir(config_path) / "runs"
        before = {p.name: p.read_bytes() for p in runs.iterdir()}
        multi = config_path.parent / "runs" / "a_multi.run"
        multi.write_text("t01 Q0 p001 1 5.0 aaa\nt01 Q0 p001 1 5.0 fixture_a\n")
        capsys.readouterr()
        assert main(["import-runs", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {multi}: system 'fixture_a' already present in {runs / 'fixture_a.run'}"
            " with different content\n"
        )
        assert {p.name: p.read_bytes() for p in runs.iterdir()} == before

    def test_conflict_between_run_files_writes_nothing(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        first = config_path.parent / "runs" / "a_first.run"
        second = config_path.parent / "runs" / "a_second.run"
        first.write_text("t01 Q0 p001 1 5.0 zzz\n")
        second.write_text("t01 Q0 p002 1 5.0 zzz\n")
        assert main(["import-runs", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {second}: system 'zzz' already present in {first} with different content\n"
        )
        assert list((out_dir(config_path) / "runs").iterdir()) == []

    def test_system_two_files_carry_alike_imported_once(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        runs = config_path.parent / "runs"
        shutil.copy(runs / "fixture_a.run", runs / "fixture_a_copy.run")
        assert main(["import-runs", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out == "imported 2 systems: fixture_a, fixture_b\n"
        imported = sorted(p.name for p in (out_dir(config_path) / "runs").iterdir())
        assert imported == ["fixture_a.run", "fixture_b.run"]

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_score_rejected(self, tmp_path, capsys, score):
        config_path = write_toy_workspace(tmp_path / "ws")
        bad = config_path.parent / "runs" / "a_bad.run"
        bad.write_text(f"t01 Q0 p001 1 1.0 zzz\nt01 Q0 p002 2 {score} zzz\nt01 Q0 p003 3 7.0 zzz\n")
        assert main(["import-runs", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:2: non-finite score {score!r}\n"
        assert list((out_dir(config_path) / "runs").iterdir()) == []

    def test_undecodable_run_file_named_with_its_line(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        bad = config_path.parent / "runs" / "zz_bad.run"
        bad.write_bytes(b"t01 Q0 p\xff01 1 5.0 zzz\n")
        assert main(["import-runs", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:1: not valid UTF-8 (invalid start byte)\n"
        assert list((out_dir(config_path) / "runs").iterdir()) == []

    @pytest.mark.parametrize("tag", ["../../escaped", "sub/escaped", "a\\b", ".hidden"])
    def test_tag_that_is_not_a_file_name_rejected(self, tmp_path, capsys, tag):
        config_path = write_toy_workspace(tmp_path / "ws")
        # "-ok" sorts before every bad tag, and bad.run before the fixtures
        bad = config_path.parent / "runs" / "bad.run"
        bad.write_text(f"q1 Q0 p001 1 1.0 -ok\nq1 Q0 p001 1 1.0 {tag}\n")
        assert main(["import-runs", "--config", str(config_path)]) == 2
        assert f"error: {bad}: run tag {tag!r}" in capsys.readouterr().err
        assert list((out_dir(config_path) / "runs").iterdir()) == []
        assert [p for p in tmp_path.rglob("*.run") if p.parent.name != "runs"] == []


class TestJudgeStage:
    def test_backstories_written_for_all_topics(self, workspace):
        topics = parse_topics(out_dir(workspace) / "backstories.jsonl")
        assert len(topics) == 5
        assert all(t.backstory for t in topics)

    def test_labels_resume_without_new_calls(self, workspace, capsys):
        qrels_path = out_dir(workspace) / "llm_qrels.txt"
        before = qrels_path.read_bytes()
        assert main(["judge", "--config", str(workspace)]) == 0
        assert "(0 new)" in capsys.readouterr().out
        assert qrels_path.read_bytes() == before

    def test_labels_are_llm_sourced(self, workspace):
        labels = parse_qrels(out_dir(workspace) / "llm_qrels.txt")
        assert labels
        assert all(q.source == "llm" for q in labels)

    def test_topics_come_from_the_topics_file(self, tmp_path):
        config_path = write_toy_workspace(tmp_path / "ws", n_topics=3, n_passages=40)
        for command in STAGES[:6]:
            assert main([command, "--config", str(config_path)]) == 0, command
        backstories = out_dir(config_path) / "backstories.jsonl"
        before = {t.topic_id: t for t in parse_topics(backstories)}
        topics_path = config_path.parent / "topics.tsv"
        lines = topics_path.read_text(encoding="utf-8").splitlines()
        lines[0] = "t01\tasthma inhaler side effects in toddlers"
        topics_path.write_text("\n".join(lines + ["t04\tbest hiking boots for wet weather"]) + "\n")
        for command in ("generate", "validate", "search", "judge"):
            assert main([command, "--config", str(config_path)]) == 0, command

        after = {t.topic_id: t for t in parse_topics(backstories)}
        assert list(after) == ["t01", "t02", "t03", "t04"]
        assert after["t01"].seed_query == "asthma inhaler side effects in toddlers"
        assert after["t01"].backstory != before["t01"].backstory
        assert after["t04"].backstory
        assert (after["t02"], after["t03"]) == (before["t02"], before["t03"])

    @pytest.mark.parametrize(
        "bad_files, fault",
        [
            ({"runs/aa.run": "t01 Q0 p001 1 high aa\n"}, "runs/aa.run:1: non-numeric score 'high'"),
            (
                {"runs/aa.run": "t01 Q0 ghost 1 5.0 aa\n"},
                "runs/aa.run: run references unknown passage 'ghost'",
            ),
            (
                {"runs/aa.run": "t09 Q0 p001 1 5.0 aa\n"},
                "runs/aa.run: run references unknown topic 't09'",
            ),
            # files are pooled in name order, so aa.run's fault comes before zz.run's
            (
                {
                    "runs/aa.run": "t01 Q0 ghost 1 5.0 aa\n",
                    "runs/zz.run": "t01 Q0 p001 1 high zz\n",
                },
                "runs/aa.run: run references unknown passage 'ghost'",
            ),
            ({"llm_qrels.txt": "garbage\n"}, "llm_qrels.txt:1: expected 4 or 5 columns, got 1"),
        ],
        ids=[
            "malformed", "unknown-passage", "unknown-topic", "earlier-file-first", "bad-label-store"
        ],
    )
    def test_bad_run_exits_2_before_any_provider_call(
        self, bad_files, fault, tmp_path, workspace, monkeypatch, capsys
    ):
        config_path = write_toy_workspace(tmp_path / "ws")
        out = out_dir(config_path)
        shutil.copytree(out_dir(workspace), out)
        for name in ("backstories.jsonl", "llm_qrels.txt", "llm_raw.jsonl"):
            (out / name).unlink()
        for name, text in bad_files.items():
            (out / name).write_text(text, encoding="utf-8")
        before = out_files(out)
        calls = []

        class Counting:
            def complete(self, prompt):
                calls.append(prompt)
                return MockProvider().complete(prompt)

        monkeypatch.setattr(cli, "make_provider", lambda config: Counting())
        assert main(["judge", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {out}/{fault}\n"
        assert calls == []
        assert not (out / "backstories.jsonl").exists()
        assert out_files(out) == before


class TestEvaluateStage:
    def test_ndcg_grid_is_complete(self, workspace):
        rows = read_csv(out_dir(workspace) / "ndcg.csv")
        assert len(rows) == 5 * 290  # systems x (seeds + variants)
        assert all(0.0 <= float(row["ndcg"]) <= 1.0 for row in rows)
        seed_rows = [r for r in rows if r["profile_id"] == "seed"]
        assert len(seed_rows) == 25
        assert all(r["variant_index"] == "0" for r in seed_rows)

    def test_merged_qrels_prefer_human(self, workspace):
        human = {
            (q.query_id, q.passage_id): q
            for q in parse_qrels(workspace.parent / "qrels.txt")
        }
        merged = parse_qrels(out_dir(workspace) / "merged_qrels.txt")
        merged_by_key = {(q.query_id, q.passage_id): q for q in merged}
        for key, qrel in human.items():
            assert merged_by_key[key].source == "human"
            assert merged_by_key[key].grade == qrel.grade
        assert any(q.source == "llm" for q in merged)

    def test_coverage_has_overall_row(self, workspace):
        rows = read_csv(out_dir(workspace) / "coverage.csv")
        overall = [r for r in rows if r["system_id"] == "all"]
        assert len(overall) == 1
        assert 0.0 <= float(overall[0]["missing_fraction"]) <= 1.0


    # sha256 of what evaluate writes from the toy out/ under settings
    # other than c5's, recorded when each NDCG call sorted the whole pool
    # and computed every gain and discount, so they pin the gain tables
    # and the top-k pool cut
    NON_DEFAULT_DIGESTS = {
        ("--gain", "exp", "--k", "5"): {
            "ndcg.csv": "b6c32b643f08e9de5b5d5ea34791f458ec22bec848958b229940303bcffa56fd",
            "coverage.csv": "82510a58134d351949886c847d2264f9e45695801374ae0dedc7943fad4d889d",
            "merged_qrels.txt": "de75d3b43737848dec5fc02eca69a07ee3ab70f860815549fb225752aff1acd3",
        },
        ("--merge", "llm"): {
            "ndcg.csv": "a534cff3b23c529a1f4d161a7490bc2a25502ef60c9764f2b1b5b0f9cd17c8ef",
            "coverage.csv": "455a0d05322163345241ff25fd3955b44da7c81c6868fc9030a93833dd660dc1",
            "merged_qrels.txt": "9c2c752898b6081c9a4a425980e118f54e949e69629a986a7cef5ecd80fb090d",
        },
    }

    @pytest.mark.parametrize("flags", sorted(NON_DEFAULT_DIGESTS))
    def test_bytes_under_non_default_settings(self, workspace, tmp_path, flags):
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        assert main(["evaluate", "--config", str(workspace), "--out", str(out), *flags]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.NON_DEFAULT_DIGESTS[flags]
        }
        assert digests == self.NON_DEFAULT_DIGESTS[flags]

    @staticmethod
    def evaluate_with_edited_run(workspace, tmp_path, edit, files=1):
        """Evaluate a copy of the toy out/ whose first `files` run files
        went through edit."""
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        for run in sorted((out / "runs").glob("*.run"))[:files]:
            run.write_text(edit(run.read_text().splitlines(keepends=True)))
        assert main(["evaluate", "--config", str(workspace), "--out", str(out)]) == 0

    def test_ignored_run_query_ids_warned_on_stderr(self, workspace, tmp_path, capsys):
        def add_query(lines):
            tag = lines[0].split()[5]
            return "".join(lines) + f"zz_extra Q0 p001 1 1.0 {tag}\n"

        self.evaluate_with_edited_run(workspace, tmp_path, add_query)
        captured = capsys.readouterr()
        assert "warning: 1 run query ids outside the variant sweep were ignored" in captured.err
        assert "warning" not in captured.out

    def test_ignored_query_id_counted_once_across_run_files(self, workspace, tmp_path, capsys):
        def add_query(lines):
            tag = lines[0].split()[5]
            return "".join(lines) + f"zz_extra Q0 p001 1 1.0 {tag}\n"

        self.evaluate_with_edited_run(workspace, tmp_path, add_query, files=2)
        err = capsys.readouterr().err
        assert "warning: 1 run query ids outside the variant sweep were ignored" in err

    def test_bad_run_exits_2_before_any_write(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        (out / "merged_qrels.txt").write_text("stale\n", encoding="utf-8")
        run = out / "runs" / "fixture_a.run"
        lines = len(run.read_text(encoding="utf-8").splitlines())
        with open(run, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        before = out_files(out)
        assert main(["evaluate", "--config", str(workspace), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run}:{lines + 1}: ")
        assert out_files(out) == before

    def test_human_row_in_llm_labels_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        labels = out / "llm_qrels.txt"
        with open(labels, "a", encoding="utf-8") as fh:
            fh.write("t01 0 p001 2 human\n")
        assert main(["evaluate", "--config", str(workspace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {labels}: label store holds llm labels only,"
            " found source 'human' for (t01, p001)\n"
        )

    def test_system_split_by_topic_across_files_writes_the_same_bytes(self, workspace, tmp_path):
        """fixture_a.run split into two files by topic: judge and evaluate,
        run afresh, write what they wrote from the whole file."""
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        for name in cli.STAGES["judge"].writes + cli.STAGES["evaluate"].writes:
            (out / name).unlink()
        run = out / "runs" / "fixture_a.run"
        lines = run.read_text(encoding="utf-8").splitlines(keepends=True)
        # each line starts with its query id, and t01's and t02's sort before "t03"
        early = "".join(line for line in lines if line < "t03")
        run.write_text(early, encoding="utf-8")
        (out / "runs" / "fixture_a_later.run").write_text(
            "".join(line for line in lines if line >= "t03"), encoding="utf-8"
        )
        assert 0 < len(early) < len("".join(lines))
        for stage in ("judge", "evaluate"):
            assert main([stage, "--config", str(workspace), "--out", str(out)]) == 0, stage
        split = out_files(out)
        assert split.pop("runs/fixture_a_later.run")
        whole = out_files(out_dir(workspace))
        del split["runs/fixture_a.run"], whole["runs/fixture_a.run"]
        assert split == whole

    def test_query_ranked_again_by_a_later_file_exits_2_before_any_write(
        self, workspace, tmp_path, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        (out / "ndcg.csv").write_text("stale\n", encoding="utf-8")
        lines = (out / "runs" / "fixture_a.run").read_text(encoding="utf-8").splitlines()
        again = out / "runs" / "zz.run"
        again.write_text(
            "".join(f"{line}\n" for line in lines if line.split()[0] == "t02"), encoding="utf-8"
        )
        before = out_files(out)
        assert main(["evaluate", "--config", str(workspace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {again}: run fixture_a, query t02: ranked again after an earlier run file\n"
        )
        assert out_files(out) == before

    def test_ideal_dcg_once_per_topic(self, workspace, tmp_path, monkeypatch):
        import qvbench.evalstats.metrics as metrics

        real = metrics.ideal_dcg
        pools = []

        def counting(ideal_grades, *args, **kwargs):
            pools.append(ideal_grades)
            return real(ideal_grades, *args, **kwargs)

        monkeypatch.setattr(metrics, "ideal_dcg", counting)
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        (out / "ndcg.csv").unlink()
        assert main(["evaluate", "--config", str(workspace), "--out", str(out)]) == 0
        assert len(pools) == 5  # one per judged topic, for 1,450 scored rankings
        assert (out / "ndcg.csv").read_bytes() == (out_dir(workspace) / "ndcg.csv").read_bytes()

    @pytest.mark.parametrize("bad_line", [False, True], ids=["first-key", "parse-first"])
    def test_ranked_again_names_the_first_key_once_its_file_parses(
        self, workspace, tmp_path, capsys, bad_line
    ):
        """A later file ranks t03 and then t02 again: the fold names t02,
        first in (system, query) order, but only after the whole file has
        parsed, so a bad line further down that file is reported instead."""
        out = tmp_path / "out"
        shutil.copytree(out_dir(workspace), out)
        lines = (out / "runs" / "fixture_a.run").read_text(encoding="utf-8").splitlines()
        again = out / "runs" / "zz.run"
        text = "".join(f"{line}\n" for qid in ("t03", "t02") for line in lines
                       if line.split()[0] == qid)
        if bad_line:
            text += "t04 Q0 p001 1 nan fixture_c\n"
        again.write_text(text, encoding="utf-8")
        before = out_files(out)
        assert main(["evaluate", "--config", str(workspace), "--out", str(out)]) == 2
        if bad_line:
            message = f"{again}:{len(text.splitlines())}: non-finite score 'nan'"
        else:
            message = f"{again}: run fixture_a, query t02: ranked again after an earlier run file"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out_files(out) == before

    def evaluate_without_queries(self, workspace, tmp_path, count) -> list:
        """Evaluate with the first run file's first `count` queries, in
        sorted order, dropped; returns their `system:query` pairs."""
        dropped = []

        def drop_queries(lines):
            tag = lines[0].split()[5]
            queries = sorted({line.split()[0] for line in lines})[:count]
            dropped.extend(f"{tag}:{query}" for query in queries)
            return "".join(line for line in lines if line.split()[0] not in queries)

        self.evaluate_with_edited_run(workspace, tmp_path, drop_queries)
        return dropped

    def test_unscored_pairs_warned_on_stderr(self, workspace, tmp_path, capsys):
        (pair,) = self.evaluate_without_queries(workspace, tmp_path, 1)
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: 1 (system, query) pairs missing from runs scored 0.0 ({pair})\n"
        )
        assert "warning" not in captured.out

    @pytest.mark.parametrize("count, more", [(5, ""), (6, " ...")])
    def test_unscored_pairs_past_five_end_in_an_ellipsis(
        self, workspace, tmp_path, capsys, count, more
    ):
        dropped = self.evaluate_without_queries(workspace, tmp_path, count)
        assert capsys.readouterr().err == (
            f"warning: {count} (system, query) pairs missing from runs scored 0.0"
            f" ({', '.join(dropped[:5])}{more})\n"
        )


def _rank_lines(path: Path) -> list:
    """The lines of a run file as [query, Q0, passage, rank, score, tag] columns."""
    return [line.split() for line in path.read_text(encoding="utf-8").splitlines()]


def _write_rank_lines(path: Path, rows) -> None:
    path.write_text("".join(" ".join(cols) + "\n" for cols in rows), encoding="utf-8")


def _edit_one_byte(ws, monkeypatch):
    """A rank-1 passage id of bm25_k09_b04.run, ahead of rank 2 by score,
    changed in its last digit after search wrote the file's entry."""
    path = ws / "out" / "runs" / "bm25_k09_b04.run"
    before = path.read_bytes()
    rows = _rank_lines(path)
    i = next(
        i for i, (top, below) in enumerate(zip(rows, rows[1:]))
        if top[3] == "1" and below[3] == "2" and float(top[4]) > float(below[4])
    )
    pid = rows[i][2]
    rows[i][2] = pid[:-1] + ("2" if pid[-1] == "1" else "1")
    _write_rank_lines(path, rows)
    after = path.read_bytes()
    assert len(after) == len(before) and sum(a != b for a, b in zip(after, before)) == 1
    return {path.name}


def _truncate_entry(ws, monkeypatch):
    entry = cli.cache_dir(ws / "out") / "runs" / "fixture_a.run"
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    return {entry.name}


def _corrupt_payload(ws, monkeypatch):
    entry = cli.cache_dir(ws / "out") / "runs" / "fixture_b.run"
    data = bytearray(entry.read_bytes())
    data[-1] ^= 0x01
    entry.write_bytes(bytes(data))
    return {entry.name}


def _search_under(target, attr, value):
    def rewrite(ws, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(target, attr, value)
            assert main(["search", "--config", str(ws / "toy.cfg")]) == 0
        return {f"{system_id}.run" for system_id, _ in BM25_SYSTEMS}

    rewrite.__name__ = f"_written_for_another_{attr}"
    return rewrite


def _edit_parser(ws, monkeypatch):
    source = core._parser_source()
    monkeypatch.setattr(core, "_parser_source", lambda: source + b"\n# edited\n")
    return {p.name for p in (ws / "out" / "runs").iterdir()}


def _delete_cache(ws, monkeypatch):
    shutil.rmtree(cli.cache_dir(ws / "out"))
    return {p.name for p in (ws / "out" / "runs").iterdir()}


def _add_run_by_hand(ws, monkeypatch):
    rows = _rank_lines(ws / "out" / "runs" / "fixture_a.run")
    _write_rank_lines(ws / "out" / "runs" / "by_hand.run", [row[:5] + ["by_hand"] for row in rows])
    return {"by_hand.run"}


class TestRunCache:
    """judge and evaluate load each run file from the run cache entry
    that search or import-runs wrote with it, and parse the file when
    the entry does not match it. Each stale case makes entries stale in
    one way, then expects a parse of exactly the stale files in each
    stage and the out/ bytes of the same tree run without a cache."""

    @staticmethod
    def judge_and_evaluate(ws, monkeypatch) -> tuple:
        """({stage: the run files it parsed}, out/'s files after both)."""
        real = core.parse_trec_run
        parsed = []

        def spy(path):
            parsed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(core, "parse_trec_run", spy)
        by_stage = {}
        for stage in ("judge", "evaluate"):
            parsed.clear()
            assert main([stage, "--config", str(ws / "toy.cfg")]) == 0, stage
            by_stage[stage] = sorted(parsed)
        monkeypatch.setattr(core, "parse_trec_run", real)
        return by_stage, out_files(ws / "out")

    def test_entries_hit_without_a_parse(self, workspace, tmp_path, monkeypatch):
        ws = shutil.copytree(workspace.parent, tmp_path / "ws")
        assert sorted(p.name for p in (cli.cache_dir(ws / "out") / "runs").iterdir()) == sorted(
            p.name for p in (ws / "out" / "runs").iterdir()
        )
        parsed, files = self.judge_and_evaluate(ws, monkeypatch)
        assert parsed == {"judge": [], "evaluate": []}
        assert files == out_files(out_dir(workspace))

    @pytest.mark.parametrize(
        "make_stale",
        [
            _edit_one_byte,
            _truncate_entry,
            _corrupt_payload,
            _search_under(marshal, "version", marshal.version - 1),
            _search_under(sys.implementation, "cache_tag", "cpython-299"),
            _edit_parser,
            _delete_cache,
            _add_run_by_hand,
        ],
        ids=lambda make_stale: make_stale.__name__.lstrip("_"),
    )
    def test_stale_entry_is_parsed(self, workspace, tmp_path, monkeypatch, make_stale):
        ws = shutil.copytree(workspace.parent, tmp_path / "ws")
        stale = sorted(make_stale(ws, monkeypatch))
        uncached = shutil.copytree(ws, tmp_path / "uncached")
        shutil.rmtree(cli.cache_dir(uncached / "out"), ignore_errors=True)  # gone if deleted
        _, expected = self.judge_and_evaluate(uncached, monkeypatch)
        parsed, files = self.judge_and_evaluate(ws, monkeypatch)
        assert parsed == {"judge": stale, "evaluate": stale}
        assert files == expected
        if make_stale in (_edit_one_byte, _add_run_by_hand):
            assert files != out_files(out_dir(workspace))  # a trusted entry would show

    def test_entry_that_cannot_be_written_costs_a_parse(self, tmp_path, monkeypatch, capsys):
        """A file where the cache directory should be: search and
        import-runs warn and write their run files, and judge and
        evaluate parse every one."""
        ws = write_toy_workspace(tmp_path / "ws").parent
        cli.cache_dir(ws / "out").write_text("in the way\n", encoding="utf-8")
        for stage in ("generate", "search", "import-runs"):
            assert main([stage, "--config", str(ws / "toy.cfg")]) == 0, stage
        assert capsys.readouterr().err.count("warning: run cache entry not written: ") == 5
        parsed, _ = self.judge_and_evaluate(ws, monkeypatch)
        runs = sorted(p.name for p in (ws / "out" / "runs").iterdir())
        assert parsed == {"judge": runs, "evaluate": runs}

    def test_file_edited_invalid_fails_as_without_a_cache(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        ws = shutil.copytree(workspace.parent, tmp_path / "ws")
        path = ws / "out" / "runs" / "bm25_k09_b04.run"
        rows = _rank_lines(path)
        rows[1][4] = repr(float(rows[0][4]) + 1.0)  # rank 2 above rank 1
        _write_rank_lines(path, rows)
        before = out_files(ws / "out")
        real = core.parse_trec_run
        parsed = []
        monkeypatch.setattr(core, "parse_trec_run", lambda p: parsed.append(p) or real(p))
        for stage in ("judge", "evaluate"):
            capsys.readouterr()
            assert main([stage, "--config", str(ws / "toy.cfg")]) == 2, stage
            assert capsys.readouterr().err == (
                f"error: {path}: run bm25_k09_b04, query {rows[0][0]}: score increases at rank 2\n"
            )
        assert parsed == [path, path]
        assert out_files(ws / "out") == before


class TestAnalyzeStage:
    def test_tau_matrix_diagonal_and_symmetry(self, workspace):
        with open(out_dir(workspace) / "tau_matrix.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0][1:]
        values = {row[0]: dict(zip(header, row[1:])) for row in rows[1:]}
        assert len(header) == 19
        for a in header:
            assert values[a][a] == "1.0"
            for b in header:
                assert values[a][b] == values[b][a]

    def test_agreement_fractions_sum_to_one(self, workspace):
        rows = read_csv(out_dir(workspace) / "agreement.csv")
        assert len(rows) == 19 * 20 // 2
        for row in rows:
            total = int(row["total_pairs"])
            counts = [int(row[cls]) for cls in ("AA", "AD", "MA", "MD", "PA", "PD")]
            assert sum(Fraction(c, total) for c in counts) == 1
            fracs = [float(row[f"frac_{cls}"]) for cls in ("AA", "AD", "MA", "MD", "PA", "PD")]
            assert sum(fracs) == pytest.approx(1.0, abs=1e-12)
            if row["profile_a"] == row["profile_b"]:
                assert int(row["AD"]) == int(row["MD"]) == int(row["PD"]) == 0

    def test_anova_table_structure(self, workspace):
        rows = read_csv(out_dir(workspace) / "anova.csv")
        sources = [row["source"] for row in rows]
        for name in ("topic", "system", "profile", "error", "total"):
            assert name in sources
        total = next(r for r in rows if r["source"] == "total")
        assert int(total["df"]) == 5 * 5 * 19 * 3 - 1
        ss_sum = sum(float(r["ss"]) for r in rows if r["source"] != "total")
        assert ss_sum == pytest.approx(float(total["ss"]), rel=1e-9)

    def test_marginal_means_and_tukey_pairs(self, workspace):
        means = read_csv(out_dir(workspace) / "marginal_means.csv")
        assert len(means) == 19
        for row in means:
            assert float(row["ci_low"]) <= float(row["mean"]) <= float(row["ci_high"])
        pairs = read_csv(out_dir(workspace) / "tukey_pairs.csv")
        assert len(pairs) == 19 * 10  # 5 systems -> 10 pairs per profile
        for row in pairs:
            expect = abs(float(row["diff"])) > float(row["hsd"])
            assert row["significant"] == str(expect).lower()

    def test_three_way_anova_computed_once(self, workspace, tmp_path, monkeypatch):
        import qvbench.evalstats.anova as anova_module

        real = anova_module.anova
        three_way = []

        def counting(matrix, factors, *args, **kwargs):
            if len(factors) == 3:
                three_way.append(tuple(factors))
            return real(matrix, factors, *args, **kwargs)

        monkeypatch.setattr(anova_module, "anova", counting)
        out = tmp_path / "out"
        out.mkdir()
        (out / "ndcg.csv").write_bytes((out_dir(workspace) / "ndcg.csv").read_bytes())
        assert main(["analyze", "--config", str(workspace), "--out", str(out)]) == 0
        assert three_way == [("topic", "system", "profile")]
        for name in ("anova.csv", "marginal_means.csv"):
            assert (out / name).read_bytes() == (out_dir(workspace) / name).read_bytes()

    def test_one_tukey_quantile_per_analyze(self, workspace, tmp_path, monkeypatch):
        # Tukey tests compare systems within a profile; profile pairs get
        # none, so every test asks for the same (p, k = systems, df).
        from qvbench.evalstats import tukey

        real = tukey.studentized_range_quantile
        asked = set()

        def counting(p, k, df):
            asked.add((p, k, df))
            return real(p, k, df)

        monkeypatch.setattr(tukey, "studentized_range_quantile", counting)
        out = tmp_path / "out"
        out.mkdir()
        (out / "ndcg.csv").write_bytes((out_dir(workspace) / "ndcg.csv").read_bytes())
        assert main(["analyze", "--config", str(workspace), "--out", str(out)]) == 0
        assert len(asked) == 1
        for name in ("marginal_means.csv", "tukey_pairs.csv"):
            assert (out / name).read_bytes() == (out_dir(workspace) / name).read_bytes()

    def test_imbalance_exits_4(self, workspace, tmp_path, capsys):
        out = tmp_path / "broken"
        out.mkdir()
        with open(out / "ndcg.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["topic_id", "system_id", "profile_id", "variant_index", "ndcg"])
            for t in ("t01", "t02"):
                for s in ("s1", "s2"):
                    for p in ("pa", "pb"):
                        for i in (1, 2, 3):
                            if (t, s, p, i) == ("t02", "s2", "pb", 3):
                                continue
                            writer.writerow([t, s, p, i, "0.5"])
        code = main(["analyze", "--config", str(workspace), "--out", str(out)])
        assert code == 4
        assert "unbalanced" in capsys.readouterr().err


def _faulty_ndcg_rows(fault):
    """2 topics x 2 systems x 2 profiles x 3 variants of 0.5, in sorted
    order, with one fault."""
    rows = []
    for t in ("t01", "t02"):
        for s in ("s1", "s2"):
            for p in ("pa", "pb"):
                if fault == "missing" and (t, s, p) == ("t02", "s1", "pb"):
                    continue
                for i in (1, 2, 3):
                    bad = fault == "range" and (t, s, p, i) == ("t01", "s1", "pb", 2)
                    rows.append([t, s, p, i, "1.5" if bad else "0.5"])
                    if fault == "duplicate" and (t, s, p, i) == ("t02", "s2", "pb", 2):
                        rows.append([t, s, p, i, "0.5"])
                if fault == "extra" and (t, s, p) == ("t01", "s2", "pa"):
                    rows.append([t, s, p, 4, "0.5"])
    return rows


# The one balance check over ndcg.csv's variant cells: fault -> message.
IMBALANCE_MESSAGES = {
    "missing": "missing cell {'topic': 't02', 'system': 's1', 'profile': 'pb'}",
    "extra": "cell {'topic': 't01', 'system': 's1', 'profile': 'pa'} has 3 observations, "
    "others differ",
    "duplicate": "duplicate cell ('t02', 's2', 'pb', 2)",
    "range": "cell value 1.5 outside [0, 1]",
}


@pytest.mark.parametrize("stage", ["analyze", "report"])
@pytest.mark.parametrize("fault", sorted(IMBALANCE_MESSAGES))
def test_imbalanced_ndcg_exits_4_with_its_message(fault, stage, workspace, tmp_path, capsys):
    out = tmp_path / "broken"
    out.mkdir()
    with open(out / "ndcg.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["topic_id", "system_id", "profile_id", "variant_index", "ndcg"])
        writer.writerows(_faulty_ndcg_rows(fault))
    assert main([stage, "--config", str(workspace), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: unbalanced design: {IMBALANCE_MESSAGES[fault]}\n"


# (stage, table it reads back, line to break, what to do to it, message)
BAD_TABLES = [
    ("analyze", "ndcg.csv", 1, lambda cells: cells[:-1], "missing column 'ndcg'"),
    ("analyze", "ndcg.csv", 3, lambda cells: cells[:-1], "expected 5 cells, got 4"),
    ("analyze", "ndcg.csv", 3, lambda cells: cells[:3] + [b"x"] + cells[4:],
     "invalid literal for int() with base 10: 'x'"),
    ("analyze", "ndcg.csv", 4, lambda cells: cells[:-1] + [b"\xff"],
     "not valid UTF-8 (invalid start byte)"),
    ("report", "marginal_means.csv", 1, lambda cells: cells[1:], "missing column 'profile'"),
    ("report", "marginal_means.csv", 2, lambda cells: cells + [b"1"], "expected 4 cells, got 5"),
    ("report", "marginal_means.csv", 3, lambda cells: cells[:1] + [b"high"] + cells[2:],
     "could not convert string to float: 'high'"),
    ("report", "marginal_means.csv", 2, lambda cells: [cells[0] + b"\xe9"] + cells[1:],
     "not valid UTF-8 (invalid continuation byte)"),
]


@pytest.mark.parametrize(
    "stage, name, line, damage, message",
    BAD_TABLES,
    ids=[f"{name}:{line}:{message.split()[0]}" for _, name, line, _, message in BAD_TABLES],
)
def test_table_read_back_names_file_and_line(
    stage, name, line, damage, message, tmp_path, workspace, capsys
):
    config_path = write_toy_workspace(tmp_path / "ws")
    shutil.copytree(out_dir(workspace), out_dir(config_path))
    path = out_dir(config_path) / name
    rows = path.read_bytes().split(b"\r\n")
    rows[line - 1] = b",".join(damage(rows[line - 1].split(b",")))
    path.write_bytes(b"\r\n".join(rows))
    assert main([stage, "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


def test_report_without_profile_rows_exits_2(tmp_path, workspace, capsys):
    config_path = write_toy_workspace(tmp_path / "ws")
    shutil.copytree(out_dir(workspace), out_dir(config_path))
    path = out_dir(config_path) / "marginal_means.csv"
    path.write_bytes(path.read_bytes().split(b"\r\n")[0] + b"\r\n")
    assert main(["report", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {path} holds no profile rows\n"


class TestReportStage:
    def test_svg_charts(self, workspace):
        for name in ("marginal_means.svg", "system_rankings.svg"):
            text = (out_dir(workspace) / name).read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")

    def test_markup_in_run_tags_is_escaped(self, tmp_path):
        import xml.etree.ElementTree as ET

        config_path = write_toy_workspace(tmp_path / "ws", n_topics=2, n_passages=40)
        (config_path.parent / "runs" / "markup.run").write_text(
            "t01 Q0 p001 1 5.0 a&b\nt01 Q0 p001 1 5.0 c<d\n"
        )
        for command in STAGES:
            assert main([command, "--config", str(config_path)]) == 0, command
        for name in ("marginal_means.svg", "system_rankings.svg"):
            ET.fromstring((out_dir(config_path) / name).read_text(encoding="utf-8"))
        rankings = (out_dir(config_path) / "system_rankings.svg").read_text(encoding="utf-8")
        assert ">a&amp;b</text>" in rankings and ">c&lt;d</text>" in rankings

    def test_rerun_is_byte_stable(self, workspace):
        path = out_dir(workspace) / "marginal_means.svg"
        before = path.read_bytes()
        assert main(["report", "--config", str(workspace)]) == 0
        assert path.read_bytes() == before


def _unlist(config_path, removed):
    """Deletes t05 from topics.tsv ("topic") or persona_emily from
    profiles.json ("profile"); returns the file and how a message names
    the deleted id."""
    inputs = config_path.resolve().parent
    if removed == "topic":
        path = inputs / "topics.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("t05\t")))
        return path, "topic 't05'"
    path = inputs / "profiles.json"
    profiles = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps([p for p in profiles if p["profile_id"] != "persona_emily"]))
    return path, "profile 'persona_emily'"


class TestExitCodes:
    def test_missing_variants_file(self, tmp_path):
        config_path = write_toy_workspace(tmp_path / "ws")
        assert main(["validate", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize("stage, setting", [("validate", "annotations"), ("evaluate", "qrels")])
    def test_configured_input_that_is_missing_exits_2_naming_it(
        self, workspace, capsys, stage, setting
    ):
        """A set path that names no file is an error, not a skipped input;
        the stage stops before it writes."""
        missing = workspace.parent / f"no_{setting}.txt"
        before = out_files(out_dir(workspace))
        assert main([stage, "--config", str(workspace), f"--{setting}", missing.name]) == 2
        assert str(missing) in capsys.readouterr().err
        assert out_files(out_dir(workspace)) == before

    def test_provider_failure(self, tmp_path):
        config_path = write_toy_workspace(tmp_path / "ws")
        code = main(
            [
                "generate",
                "--config",
                str(config_path),
                "--provider",
                "http",
                "--endpoint",
                "http://127.0.0.1:9",
                "--model",
                "m",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("endpoint", ["localhost:8000/v1", "ftp://example.org/v1"])
    def test_malformed_endpoint(self, tmp_path, capsys, endpoint):
        config_path = write_toy_workspace(tmp_path / "ws")
        flags = ["--provider", "http", "--endpoint", endpoint, "--model", "m"]
        assert main(["generate", "--config", str(config_path), *flags]) == 2
        assert f"error: bad endpoint {endpoint!r}" in capsys.readouterr().err
        assert not out_dir(config_path).joinpath("genlog.jsonl").exists()

    def test_non_string_topic_field(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        topics = tmp_path / "topics.jsonl"
        topics.write_text('{"topic_id": "1", "seed_query": 5}\n', encoding="utf-8")
        assert main(["generate", "--config", str(config_path), "--topics", str(topics)]) == 2
        assert f"{topics}:1: seed_query must be a string" in capsys.readouterr().err

    def test_seed_profile_id_reserved(self, tmp_path, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        path = config_path.parent / "profiles.json"
        profiles = json.loads(path.read_text(encoding="utf-8"))
        profiles[0]["profile_id"] = "seed"
        path.write_text(json.dumps(profiles), encoding="utf-8")
        assert main(["generate", "--config", str(config_path)]) == 2
        assert "'seed' is reserved" in capsys.readouterr().err

    def test_non_string_profile_field_exits_2_before_any_call(self, tmp_path, monkeypatch, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        path = config_path.parent / "profiles.json"
        profiles = json.loads(path.read_text(encoding="utf-8"))
        profiles[2]["profile_id"] = 5
        path.write_text(json.dumps(profiles), encoding="utf-8")
        calls = []

        class Unpaid:
            def complete(self, prompt):
                calls.append(prompt)
                pytest.fail("generate called the provider")

        monkeypatch.setattr(cli, "make_provider", lambda config: Unpaid())
        assert main(["generate", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: profiles entry 2: profile_id must be a string\n"
        )
        assert calls == []
        assert not (out_dir(config_path) / "variants.jsonl").exists()

    @pytest.mark.parametrize(
        "file, old, new, stage, where, fault",
        [
            ("passages.tsv", "p001\t", "p 001\t", "index", ":1", "passage_id 'p 001' holds whitespace"),
            ("topics.tsv", "t01\t", "t 01\t", "generate", ":1", "topic_id 't 01' holds whitespace"),
            (
                "profiles.json", '"persona_emily"', '"persona_emily x"', "generate",
                ": profiles entry 0", "profile_id 'persona_emily x' holds whitespace",
            ),
            (
                "topics.tsv", "t01\t", "t01__group_child__1\t", "generate", ":1",
                "topic_id 't01__group_child__1' holds '__'",
            ),
        ],
        ids=["passage-space", "topic-space", "profile-space", "topic-separator"],
    )
    def test_id_that_cannot_round_trip_exits_2_where_it_enters(
        self, tmp_path, monkeypatch, capsys, file, old, new, stage, where, fault
    ):
        """An id that a run line or a variant query id could not carry back
        fails the first stage that reads its file, naming the file and
        line (or profiles entry); that stage writes nothing and makes no
        provider call, and every stage before it succeeds."""
        config_path = write_toy_workspace(tmp_path / "ws")
        path = config_path.parent / file
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        out = out_dir(config_path)
        calls = []

        class Counting:
            def __init__(self, provider):
                self.provider = provider

            def complete(self, prompt):
                calls.append(prompt)
                return self.provider.complete(prompt)

        make_provider = cli.make_provider
        monkeypatch.setattr(cli, "make_provider", lambda config: Counting(make_provider(config)))
        for name in STAGES[: STAGES.index(stage)]:
            assert main([name, "--config", str(config_path)]) == 0, name
        capsys.readouterr()
        before = out_files(out) if out.exists() else None
        calls.clear()
        assert main([stage, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}{where}: {fault}\n"
        assert calls == []
        assert (out_files(out) if out.exists() else None) == before

    @pytest.mark.parametrize("stage", ("validate", "search", "evaluate"))
    def test_duplicate_variant_key_rejected(self, stage, tmp_path, workspace, capsys):
        config_path = write_toy_workspace(tmp_path / "ws")
        shutil.copytree(out_dir(workspace), out_dir(config_path))
        variants_path = out_dir(config_path) / "variants.jsonl"
        variants = read_variants(variants_path)
        at = next(
            i for i, v in enumerate(variants) if v.profile_id == "textual_order" and v.index == 2
        )
        moved = variants[at]
        variants[at] = QueryVariant(moved.topic_id, moved.profile_id, 1, moved.text)
        write_variants(variants, variants_path)
        before = out_files(out_dir(config_path))

        assert main([stage, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {variants_path}: duplicate variant (topic, profile, index)"
            f" ('{moved.topic_id}', 'textual_order', 1)\n"
        )
        assert out_files(out_dir(config_path)) == before

    @pytest.mark.parametrize("stage", ("validate", "search", "evaluate"))
    @pytest.mark.parametrize("removed", ("topic", "profile"))
    def test_variant_of_an_unlisted_input_rejected(
        self, stage, removed, tmp_path, workspace, capsys
    ):
        """t05 leaves topics.tsv, or persona_emily profiles.json, after
        generate wrote their variants."""
        config_path = write_toy_workspace(tmp_path / "ws")
        shutil.copytree(out_dir(workspace), out_dir(config_path))
        path, stale = _unlist(config_path, removed)
        before = out_files(out_dir(config_path))

        assert main([stage, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out_dir(config_path) / 'variants.jsonl'}: variant of {stale}, not in {path}\n"
        )
        assert out_files(out_dir(config_path)) == before

    def test_duplicate_outside_methods_rejected_before_any_call(
        self, tmp_path, workspace, monkeypatch, capsys
    ):
        config_path = write_toy_workspace(tmp_path / "ws")
        shutil.copytree(out_dir(workspace), out_dir(config_path))
        variants_path = out_dir(config_path) / "variants.jsonl"
        # one persona pair left to generate, and a textual pair holding indices 1, 1, 3
        variants = [v for v in read_variants(variants_path) if v[:2] != ("t01", "persona_emily")]
        at = next(
            i for i, v in enumerate(variants)
            if v.profile_id == "textual_paraphrasing" and v.index == 2
        )
        moved = variants[at]
        variants[at] = moved._replace(index=1)
        write_variants(variants, variants_path)
        before = out_files(out_dir(config_path))
        monkeypatch.setattr(cli, "make_provider", lambda config: pytest.fail("provider made"))

        assert main(["generate", "--config", str(config_path), "--methods", "persona"]) == 2
        assert capsys.readouterr().err == (
            f"error: {variants_path}: duplicate variant (topic, profile, index)"
            f" ('{moved.topic_id}', 'textual_paraphrasing', 1)\n"
        )
        assert out_files(out_dir(config_path)) == before

    @pytest.mark.parametrize("stage", ("analyze", "report"))
    @pytest.mark.parametrize("removed", ("topic", "profile"))
    def test_cell_of_an_unlisted_input_rejected_before_any_write(
        self, stage, removed, tmp_path, workspace, capsys
    ):
        """t05 leaves topics.tsv, or persona_emily profiles.json, after
        evaluate scored their variants."""
        config_path = write_toy_workspace(tmp_path / "ws")
        shutil.copytree(out_dir(workspace), out_dir(config_path))
        path, stale = _unlist(config_path, removed)
        before = out_files(out_dir(config_path))

        assert main([stage, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out_dir(config_path) / 'ndcg.csv'}: cells of {stale}, not in {path}\n"
        )
        assert out_files(out_dir(config_path)) == before

    def test_analyze_before_evaluate(self, tmp_path):
        config_path = write_toy_workspace(tmp_path / "ws")
        assert main(["analyze", "--config", str(config_path)]) == 2

    def test_success_is_zero(self, workspace):
        assert main(["index", "--config", str(workspace)]) == 0


# the stages up to judge, the two that call the provider included
PROVIDER_STAGES = ("generate", "index", "search", "import-runs", "judge")
PROVIDER_OUTPUTS = (
    "variants.jsonl",
    "genlog.jsonl",
    "backstories.jsonl",
    "llm_qrels.txt",
    "llm_raw.jsonl",
)


def out_files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def workspace_files(root: Path) -> dict:
    """out_files of a toy workspace without its run cache, whose entries
    are keyed to the interpreter that wrote them."""
    cache = cli.cache_dir(root / "out").name
    return {name: data for name, data in out_files(root).items() if Path(name).parts[0] != cache}


class Overlapping:
    """The mock provider's answers after a prompt-hashed 0-3 ms sleep,
    with in_flight calls overlapping, so calls finish out of order.
    From call fail_from on, every call raises TransportError."""

    def __init__(self, seed, in_flight, fail_from=None):
        self.mock = MockProvider(seed_material=str(seed))
        self.in_flight = in_flight
        self.fail_from = fail_from
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, prompt):
        with self.lock:
            self.calls += 1
            call = self.calls
        if self.fail_from is not None and call >= self.fail_from:
            raise TransportError(f"endpoint down at call {call}")
        time.sleep(hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 4 / 1000)
        return self.mock.complete(prompt)


class TestOverlappedProviderCalls:
    def run_stages(self, config_path, monkeypatch, in_flight):
        monkeypatch.setattr(cli, "make_provider", lambda config: Overlapping(config.seed, in_flight))
        for stage in PROVIDER_STAGES:
            assert main([stage, "--config", str(config_path)]) == 0, stage
        return out_dir(config_path)

    def test_outputs_equal_one_in_flight(self, tmp_path, monkeypatch):
        serial = self.run_stages(write_toy_workspace(tmp_path / "one"), monkeypatch, 1)
        overlapped = self.run_stages(write_toy_workspace(tmp_path / "four"), monkeypatch, 4)
        for name in PROVIDER_OUTPUTS:
            assert (overlapped / name).read_bytes() == (serial / name).read_bytes(), name

    def test_first_failure_exits_3_within_the_window(self, tmp_path, monkeypatch, capsys):
        fail_from = 20
        provider = Overlapping(0, 4, fail_from)
        monkeypatch.setattr(cli, "make_provider", lambda config: provider)
        config_path = write_toy_workspace(tmp_path / "ws")
        assert main(["generate", "--config", str(config_path)]) == 3
        assert "error: provider failure: endpoint down at call" in capsys.readouterr().err
        assert fail_from <= provider.calls <= fail_from + 3

    def test_http_provider_writes_mock_bytes(self, tmp_path, chat_server):
        mock_ws = write_toy_workspace(tmp_path / "mock")
        for stage in PROVIDER_STAGES:
            assert main([stage, "--config", str(mock_ws)]) == 0, stage
        http_ws = write_toy_workspace(tmp_path / "http")
        mock = MockProvider(seed_material=str(build_config(_args(config=str(http_ws))).seed))
        chat_server.reply = lambda request: mock.complete(
            json.loads(request.body)["messages"][0]["content"]
        )
        flags = ["--provider", "http", "--endpoint", chat_server.url, "--model", "m"]
        for stage in PROVIDER_STAGES:
            assert main([stage, "--config", str(http_ws), *flags]) == 0, stage
        assert out_files(out_dir(http_ws)) == out_files(out_dir(mock_ws))
        assert len(chat_server.seen) > 1000


def other_interpreters() -> list:
    """The pyenv CPython 3.10 or later interpreters other than this one."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for folder in sorted(versions.glob("3.*")):
        version = re.fullmatch(r"3\.(\d+)\.\d+", folder.name)
        python = folder / "bin" / "python3"
        if version and int(version[1]) >= 10 and folder.name != platform.python_version():
            if python.exists():
                found.append(python)
    return found


class TestModuleEntryPoint:
    # Imports cli and makes one http call: prints whether requests was
    # loaded by the import, the answer, and whether urllib.request,
    # http.client and email.parser are loaded after the call.
    HTTP_SNIPPET = (
        "import sys, qvbench.cli\n"
        "print('requests' in sys.modules)\n"
        "sys.modules['requests'] = None\n"
        "from qvbench.genkit import HttpProvider, ProviderConfig\n"
        "config = ProviderConfig(endpoint=sys.argv[1], model_name='m', api_key='')\n"
        "print(HttpProvider(config).complete('ping'))\n"
        "print(*(m in sys.modules for m in ('urllib.request', 'http.client', 'email.parser')))\n"
    )

    def test_import_leaves_requests_unloaded(self, chat_server):
        chat_server.reply = lambda request: "pong"
        result = subprocess.run(
            [sys.executable, "-c", self.HTTP_SNIPPET, chat_server.url],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "pong", "False", "False", "False"]

    @pytest.fixture(scope="class")
    def toy_tree(self, tmp_path_factory):
        """Every file of a toy workspace after this interpreter ran its
        nine stages, the run cache left out."""
        config_path = write_toy_workspace(tmp_path_factory.mktemp("toy") / "ws")
        for stage in STAGES:
            assert main([stage, "--config", str(config_path)]) == 0, stage
        return workspace_files(config_path.parent)

    @pytest.mark.parametrize("python", other_interpreters(), ids=lambda path: path.parents[1].name)
    def test_other_interpreter_writes_the_same_bytes(self, toy_tree, tmp_path, chat_server, python):
        """The toy workspace and pipeline written by another CPython are
        byte-identical to this one's, also when its judge and evaluate
        find the run cache entries that this interpreter's search wrote,
        and its http call loads no urllib."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

        def run(*argv):
            result = subprocess.run(
                [str(python), *argv], capture_output=True, text=True, timeout=120, env=env
            )
            assert result.returncode == 0, (argv, result.stderr)
            return result.stdout

        write = "import sys, qvbench.toydata as t; t.write_toy_workspace(sys.argv[1])"
        run("-c", write, str(tmp_path / "ws"))
        config = str(tmp_path / "ws" / "toy.cfg")
        for stage in STAGES:
            run("-m", "qvbench", stage, "--config", config)
        assert workspace_files(tmp_path / "ws") == toy_tree
        entries = cli.cache_dir(tmp_path / "ws" / "out") / "runs"
        foreign = (entries / "bm25_k09_b04.run").read_bytes()
        assert main(["search", "--config", config]) == 0
        assert (entries / "bm25_k09_b04.run").read_bytes() != foreign  # keyed to this interpreter
        for stage in ("judge", "evaluate"):
            run("-m", "qvbench", stage, "--config", config)
        assert workspace_files(tmp_path / "ws") == toy_tree
        chat_server.reply = lambda request: "pong"
        assert run("-c", self.HTTP_SNIPPET, chat_server.url).split() == [
            "False", "pong", "False", "False", "False"
        ]

    # The qvbench modules that each stage's process holds once the stage
    # has run; the package and core are left out. No stage holds numpy,
    # dataclasses, logging or fractions.
    STAGE_MODULES = {
        "generate": {"cli", "genkit", "validate", "textkit", "porter"},
        "validate": {"cli", "validate", "textkit", "porter"},
        "index": {"cli", "retrieval", "textkit", "porter"},
        "search": {"cli", "retrieval", "textkit", "porter"},
        "import-runs": {"cli"},
        "judge": {"cli", "genkit", "judge"},
        "evaluate": {"cli", "judge", "evalstats", "evalstats.metrics"},
        "analyze": {
            "cli",
            "evalstats",
            "evalstats.agreement",
            "evalstats.anova",
            "evalstats.matrix",
            "evalstats.metrics",
            "evalstats.special",
            "evalstats.tukey",
        },
        "report": {"cli", "evalstats", "evalstats.matrix"},
    }

    @staticmethod
    def run_stage_process(stage, config, *flags):
        """The stage's exit code in a fresh interpreter, with the qvbench
        modules, numpy, dataclasses, logging and fractions loaded by
        `import qvbench.cli` and held after the stage; the package and
        core are left out."""
        code = (
            "import sys\n"
            "def loaded():\n"
            "    return sorted(m.removeprefix('qvbench.') for m in sys.modules\n"
            "                  if m.startswith('qvbench.') and m != 'qvbench.core'\n"
            "                  or m in ('numpy', 'dataclasses', 'logging', 'fractions'))\n"
            "import qvbench.cli\n"
            "print(*loaded())\n"
            "print(qvbench.cli.main(sys.argv[1:]))\n"
            "print(*loaded())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, stage, "--config", str(config), *flags],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        on_import, exit_code, after = lines[0], lines[-2], lines[-1]
        return on_import.split(), exit_code, set(after.split())

    def test_each_stage_loads_only_the_modules_it_runs(self, workspace, tmp_path):
        """Each stage in a fresh interpreter: importing cli loads only core,
        the finished stage holds exactly its STAGE_MODULES, and so never
        numpy, `dataclasses`, `logging` or `fractions`, and the charts
        keep their bytes."""
        assert sorted(self.STAGE_MODULES) == sorted(STAGES)
        config = write_toy_workspace(tmp_path / "ws")
        for stage in STAGES:
            loaded = self.run_stage_process(stage, config)
            assert not loaded[2] & {"numpy", "dataclasses", "logging", "fractions"}, stage
            assert (stage, loaded) == (stage, (["cli"], "0", self.STAGE_MODULES[stage]))
        for name in ("marginal_means.svg", "system_rankings.svg"):
            assert (out_dir(config) / name).read_bytes() == (
                out_dir(workspace) / name
            ).read_bytes()

    def test_package_has_no_runtime_dependency(self):
        """No module under src/qvbench imports numpy, and pyproject.toml
        declares no runtime dependency."""
        tomllib = pytest.importorskip("tomllib")
        root = Path(cli.__file__).resolve().parents[2]
        importers = []
        for path in sorted((root / "src" / "qvbench").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "numpy" for name in names):
                    importers.append(path.name)
        assert importers == []
        with open(root / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["dependencies"] == []

    def test_http_provider_stages_skip_the_mock_spelling_modules(self, tmp_path, chat_server):
        """Only the mock provider spells, so under the HTTP provider generate
        and judge load neither validate nor textkit nor porter. They hold
        `logging`, which the provider's `concurrent.futures` pool loads."""
        config = write_toy_workspace(tmp_path / "ws")
        mock = MockProvider(seed_material=str(build_config(_args(config=str(config))).seed))
        chat_server.reply = lambda request: mock.complete(
            json.loads(request.body)["messages"][0]["content"]
        )
        flags = ["--provider", "http", "--endpoint", chat_server.url, "--model", "m"]
        assert self.run_stage_process("generate", config, *flags) == (
            ["cli"], "0", {"cli", "genkit", "logging"}
        )
        for stage in ("index", "search"):
            assert main([stage, "--config", str(config)]) == 0, stage
        assert self.run_stage_process("judge", config, *flags) == (
            ["cli"], "0", {"cli", "genkit", "judge", "logging"}
        )

    # Run as `python -c TRACE_SNIPPET root stage flags...`: runs the stage
    # and prints its exit code and, in order, each file or directory under
    # root that it read (opened for reading, listed) or wrote (opened for
    # writing or appending, renamed onto), as JSON; atomic_write's
    # temporary files are left out.
    TRACE_SNIPPET = (
        "import json, os, sys\n"
        "root = sys.argv.pop(1) + os.sep\n"
        "events = []\n"
        "def hook(event, args):\n"
        "    if event == 'open':\n"
        "        path, kind = args[0], 'write' if args[2] & (os.O_WRONLY | os.O_RDWR) else 'read'\n"
        "    elif event == 'os.rename':\n"
        "        path, kind = args[1], 'write'\n"
        "    elif event in ('os.scandir', 'os.listdir'):\n"
        "        path, kind = args[0], 'read'\n"
        "    else:\n"
        "        return\n"
        "    if isinstance(path, (str, os.PathLike)):\n"
        "        path = os.fspath(path)\n"
        "        if path.startswith(root) and not path.endswith('.tmp'):\n"
        "            events.append((kind, path[len(root):]))\n"
        "sys.addaudithook(hook)\n"
        "import qvbench.cli\n"
        "code = qvbench.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, events]))\n"
    )

    def test_each_stage_reads_its_inputs_then_writes_its_declared_files(self, tmp_path):
        """Traced in a fresh interpreter, every stage, a warm judge and a
        validate with annotations: the files each writes, under out/ and
        the run cache, are its STAGES entry, everything it reads is a
        setting's path, a declared output or one of its declared cache
        reads, and it reads nothing after its first write."""
        from qvbench.core import write_jsonl

        root = tmp_path.resolve() / "ws"
        config = write_toy_workspace(root)
        annotations = root / "ann.jsonl"
        write_jsonl(
            [
                {"pair_id": "t01__persona_emily__1", "annotator_id": a, "task": "similarity",
                 "seed_query": "q", "variant": "v", "answer": "similar"}
                for a in ("a1", "a2")
            ],
            annotations,
        )
        settings = build_config(_args(config=str(config), annotations=str(annotations)))
        inputs = [config.name] + [
            str(value.relative_to(root))
            for key, value in settings._asdict().items()
            if isinstance(value, Path) and key != "out"
        ]
        cache = cli.cache_dir(settings.out).relative_to(root)
        declared = {
            stage: {f"out/{name}" for name in entry.writes}
            | {f"{cache}/{name}" for name in entry.cache_writes}
            for stage, entry in cli.STAGES.items()
        }
        cache_reads = {
            stage: {f"{cache}/{name}" for name in entry.cache_reads}
            for stage, entry in cli.STAGES.items()
        }
        outputs = set().union(*declared.values())

        def named(path):  # a traced path as STAGES names it
            for runs in ("out/runs", f"{cache}/runs"):
                if path.startswith(runs):
                    return runs + "/"
            return path

        written = {stage: set() for stage in cli.STAGES}
        read_cache = {stage: set() for stage in cli.STAGES}
        runs = [(stage,) for stage in STAGES]
        runs += [("judge",), ("validate", "--annotations", str(annotations))]
        for stage, *flags in runs:
            result = subprocess.run(
                [sys.executable, "-c", self.TRACE_SNIPPET, str(root), stage, "--config",
                 str(config), *flags],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            code, events = json.loads(result.stdout.splitlines()[-1])
            assert code == 0, (stage, result.stderr)
            writes = {named(path) for kind, path in events if kind == "write"}
            assert writes <= declared[stage], stage
            written[stage] |= writes
            for path in (path for kind, path in events if kind == "read"):
                if path.startswith(f"{cache}/"):
                    assert named(path) in cache_reads[stage], (stage, path)
                    read_cache[stage].add(named(path))
                else:
                    assert named(path) in outputs or any(
                        path == p or path.startswith(p + "/") for p in inputs
                    ), (stage, path)
            first_write = [kind for kind, _ in events].index("write")
            late = [path for kind, path in events[first_write:] if kind == "read"]
            assert late == [], (stage, flags)
        assert written == declared
        assert read_cache == cache_reads

    def test_readme_outputs_table_names_each_stage_files(self):
        """Each row of README's Outputs table names its stage's STAGES files,
        in order: a backticked name with a dot, a path under runs/ as
        `runs/`."""
        readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
        table = []
        for row in re.finditer(r"^\| `([\w-]+)` \| (.*) \|$", section, re.MULTILINE):
            names = [n for n in re.findall(r"`([^`]+)`", row[2]) if "." in n and " " not in n]
            table.append((row[1], tuple(re.sub(r"/.*", "/", n) for n in names)))
        assert table == [(stage, entry.writes) for stage, entry in cli.STAGES.items()]

    def test_python_dash_m(self, workspace):
        result = subprocess.run(
            [sys.executable, "-m", "qvbench", "index", "--config", str(workspace)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "indexed 200 passages" in result.stdout
