#!/usr/bin/env python3
"""Stage-level benchmark of the qvbench pipeline, driven from outside.

    python3 perfbench/run.py --workload mid-cold --seed 1 --seconds 52 --trace 0

Run it from the repository root. Every stage runs the way the README
runs it, as a fresh `python -m qvbench <stage> --config toy.cfg`
process, timed with `os.wait4` (wall time, user+sys CPU, peak RSS).

A run first builds the workload's input workspace SETUPS times
(`setup_s` is the median build, plus the priming run where there is
one). It then runs the nine stages in order, saving `out/` before each.
While `--seconds` lasts it runs single stages again, each from a fresh
copy of the `out/` that stage started from, always a stage with the
fewest samples so far that still fits in the time left. A stage's
time metrics are the mean of its samples, so `pipeline_s` and
`pipeline_cpu_s`, their sums over the stages, are the expected time of
the nine stages run in order. The mean, not the median: on a shared
2-vCPU host the samples of one stage spread about evenly over +-20%,
and there the median of five to seven samples moved about 1.3 times as
much from run to run as their mean (72 rounds of mid-cold, cut into
runs of 6-7 rounds). `peak_rss_mb` is the largest stage median. Every
sample's `out/` must be byte-identical to the first one's, and the
finished `out/` is checked against a stored sketch for the seed
(outcheck.py).

Host speed. After each build and each stage sample the run times a
probe: a fresh interpreter that imports numpy and runs a fixed
dict-and-float loop, with no qvbench code, so no change to the program
moves it. On a shared 2-vCPU host the speed of the whole machine swings
by a quarter within minutes, and every stage swings with it. So every
end-to-end time, `setup_s` included, is scaled by PROBE_REF_S over the
run's mean probe time: seconds on a host where the probe takes
PROBE_REF_S. Over 43 rounds of mid-cold cut into runs of five, this
took the quartile spread of `pipeline_s` from 0.28 to 0.02 and of the
stage times from 0.22-0.34 to 0.03-0.18. The unscaled times and the
probe mean are printed before the result, and the probe mean is the
per-layer `host.probe_s`.

With `--trace 1` the further samples alternate between plain ones and
ones under traced_stage.py, which records a span around each layer's
public functions. The per-layer metrics are medians over the traced
samples, summed over stages, and `trace.overhead_s` is traced minus
plain `pipeline_s`.

Untraced stage processes also load shim/sitecustomize.py, which only
counts provider completions (`provider_calls`).

The last line of stdout is one JSON object: correct, attempted and
failed stage invocations, and the metrics with their units. The exit
code is 1 when an output check failed and 2 when the tree holds no
qvbench sources.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import outcheck
import spans as sp

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORK_DIR = ".perfbench_work"

STAGES = (
    "generate",
    "validate",
    "index",
    "search",
    "import-runs",
    "judge",
    "evaluate",
    "analyze",
    "report",
)
K = 10
SETUPS = 5
# The probe's time on a quiet 2-vCPU host, and the probe itself. The
# probe imports numpy, as every stage process does, but nothing of the
# program under test.
PROBE_REF_S = 0.2
PROBE = """
import numpy
totals = {}
for i in range(120000):
    key = "q%d" % (i % 5000)
    totals[key] = totals.get(key, 0.0) + (i * 0.5) ** 0.5
sorted(totals.items(), key=lambda kv: kv[1])
"""
STAGE_TIMEOUT_S = 150
EXTRA_SYSTEM = "bench_extra"


@dataclass(frozen=True)
class Workload:
    name: str
    n_topics: int
    n_passages: int
    http: bool = False
    # Starting state is a finished cold run plus one new external run file.
    primed: bool = False

    @property
    def reference_key(self) -> str:
        # The http provider must reproduce the mock pipeline byte for byte.
        return "toy-cold" if self.http else self.name


# BENCHMARK.json lists toy-http and mid-cold only: a comparison of two
# commits at ten-plus runs per workload and this run length has time for
# two. toy-cold (toy-http's stages with the mock provider) and
# mid-incremental (all nine stages rerun over the mid label cache) run
# through suite.py.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-cold", 5, 200),
        Workload("toy-http", 5, 200, http=True),
        Workload("mid-cold", 10, 1000),
        Workload("mid-incremental", 10, 1000, primed=True),
    )
}


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    provider_calls: int = 0
    trace: dict = None
    stub: dict = field(default_factory=dict)


def stage_key(stage: str) -> str:
    return stage.replace("-", "_")


def out_digest(out_dir: Path) -> str:
    """Digest of every file under out/, names included."""
    h = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def input_digest(ws: Path) -> str:
    """Digest of every input file of a workspace (everything outside out/)."""
    h = hashlib.sha256()
    for path in sorted(ws.rglob("*")):
        rel = path.relative_to(ws)
        if path.is_file() and rel.parts[0] != "out":
            h.update(rel.as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def copy_out(src: Path, dst: Path) -> None:
    """Make dst a copy of src, or absent when src is."""
    if dst.exists():
        shutil.rmtree(dst)
    if src.exists():
        shutil.copytree(src, dst)


class Bench:
    """One workload at one seed inside `root/.perfbench_work`."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.stub = None  # the ProviderStub of an http workload
        self.work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
        paths = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        # One BLAS thread: with numpy's default of one per core, the small
        # LAPACK calls in analyze wait on a second thread, and on a shared
        # 2-vCPU host that wait made mid-cold's analyze 1.2 s in some
        # ten-minute spells and 1.9 s in others.
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS="1")
        self.env.pop("QVBENCH_API_KEY", None)
        self.env.pop("PERFBENCH_CALLS_FILE", None)
        self.counted_env = dict(
            self.env, PYTHONPATH=os.pathsep.join([str(HERE / "shim"), self.env["PYTHONPATH"]])
        )

    def run_stage(self, ws: Path, stage: str, traced: bool = False, http: bool = False) -> StageRun:
        calls_path = ws / f".calls-{stage}"
        trace_path = ws / f".trace-{stage}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_stage.py"), str(trace_path), stage]
            env = self.env
        else:
            cmd = [sys.executable, "-m", "qvbench", stage]
            env = dict(self.counted_env, PERFBENCH_CALLS_FILE=str(calls_path))
        cmd += ["--config", "toy.cfg"]
        if http:
            # By flag: the config file reader cuts a value at '#'.
            cmd += ["--provider", "http", "--endpoint", self.stub.url, "--model", "perfbench-stub"]
            self.stub.reset()
        with open(ws / "stages.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ws, env=env, stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(stage, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       proc.returncode, stub=self.stub.counts() if http else {})
        if traced and trace_path.exists():
            run.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
            run.provider_calls = sum(1 for s in run.trace["spans"] if s[2] in PROVIDER_SPANS)
        elif calls_path.exists():
            run.provider_calls = int(calls_path.read_text(encoding="utf-8"))
            calls_path.unlink()
        if run.code != 0:
            tail = (ws / "stages.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"stage {stage} exited {run.code} in {ws}:\n{tail}", file=sys.stderr)
        return run

    def probe(self) -> float:
        """Wall time of one run of PROBE in a fresh interpreter."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE], cwd=self.work, env=self.env, check=True,
                       timeout=STAGE_TIMEOUT_S)
        return time.perf_counter() - start

    def run_pipeline(self, ws: Path) -> list:
        """All stages once, in order, with the mock provider."""
        return [self.run_stage(ws, stage) for stage in STAGES]

    def build(self, ws: Path) -> float:
        """Write the workload's input workspace into `ws`; returns its time."""
        from qvbench.toydata import write_toy_workspace

        w = self.workload
        start = time.perf_counter()
        write_toy_workspace(ws, n_topics=w.n_topics, n_passages=w.n_passages, seed=self.seed, k=K)
        return time.perf_counter() - start

    def prime(self, ws: Path) -> None:
        """Finish a cold run in `ws`, then add one new external run file."""
        if any(run.code != 0 for run in self.run_pipeline(ws)):
            raise RuntimeError(f"priming run failed in {ws}")
        self.write_extra_run(ws)

    def expect(self) -> dict:
        from qvbench.genkit import load_profiles
        from qvbench.toydata import FIXTURE_SYSTEMS, all_query_ids, toy_topics

        w = self.workload
        profile_ids = [p.profile_id for p in load_profiles()]
        systems = list(outcheck.SEARCH_SYSTEMS) + list(FIXTURE_SYSTEMS)
        if w.primed:
            systems.append(EXTRA_SYSTEM)
        return {
            "n_topics": w.n_topics,
            "n_passages": w.n_passages,
            "n_profiles": len(profile_ids),
            "k": K,
            "systems": systems,
            "query_ids": all_query_ids(toy_topics(w.n_topics), profile_ids),
        }

    def write_extra_run(self, ws: Path) -> None:
        """One new external run: k passages per query from a keyed PRNG."""
        rng = random.Random(f"perfbench-extra|{self.seed}")
        passage_ids = [f"p{i + 1:03d}" for i in range(self.workload.n_passages)]
        lines = []
        for qid in sorted(self.expect()["query_ids"]):
            for rank, pid in enumerate(rng.sample(passage_ids, K), 1):
                lines.append(f"{qid} Q0 {pid} {rank} {float(K - rank + 1)!r} {EXTRA_SYSTEM}\n")
        (ws / "runs" / f"{EXTRA_SYSTEM}.run").write_text("".join(lines), encoding="utf-8")


# ---------------------------------------------------------------- checks


def check_out(out_dir: Path, expect: dict, reference, exact: bool) -> set:
    """Stages whose artifacts break the pipeline's shape or differ from `reference`."""
    problems = outcheck.structure_problems(out_dir, expect)
    if reference is not None:
        status = outcheck.compare(reference, outcheck.sketch(out_dir))
        tally = {}
        for name, st in status.items():
            tally[st] = tally.get(st, 0) + 1
            if st != "identical" and (exact or st != "equivalent"):
                problems.append((name, st))
        print("outputs vs reference: " + ", ".join(f"{v} {k}" for k, v in sorted(tally.items())))
    for name, problem in problems:
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    return {outcheck.stage_of(name) for name, _ in problems}


def load_reference(key: str, seed: int):
    if not REFERENCES.exists():
        return None
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs.get(key, {}).get(str(seed))


def store_reference(key: str, seed: int, out_dir: Path) -> None:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
    refs.setdefault(key, {})[str(seed)] = outcheck.sketch(out_dir)
    REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- metrics

READER_SPANS = {f"core.{name}" for name in (
    "parse_topics", "parse_passages", "parse_qrels", "parse_trec_run",
    "read_variants", "read_annotations", "read_jsonl",
)}
PROVIDER_SPANS = ("genkit.mock.complete", "genkit.http.complete")
PEAKS = ("genkit.in_flight_peak", "provider.concurrency_peak")


def stage_layers(run: StageRun) -> dict:
    """Per-layer numbers of one traced stage process."""
    trace = run.trace
    spans = [sp.Span(*row) for row in trace["spans"]]
    counts = trace["counts"]
    write_spans = {s.name for s in spans if s.name.startswith("write.")}
    server_s = run.stub.get("handler_s", 0.0)
    return {
        "cli.import_s": trace["import_s"],
        f"cli.{stage_key(run.stage)}.self_s": sp.self_time(spans, f"cli.{run.stage}"),
        "core.parse_s": sp.outer_time(spans, READER_SPANS),
        "core.parse_trec_run_s": sp.outer_time(spans, {"core.parse_trec_run"}),
        "core.records_parsed": counts.get("core.records_parsed", 0),
        "core.write_s": sp.outer_time(spans, write_spans),
        "textkit.tokenize_stem_s": sp.total_time(spans, "textkit.tokenize_stem"),
        "textkit.texts_tokenized": sp.calls(spans, "textkit.tokenize_stem"),
        "textkit.variant_features_s": sp.total_time(spans, "textkit.variant_features"),
        "retrieval.build_index_s": sp.total_time(spans, "retrieval.build_index"),
        "retrieval.build_index_calls": sp.calls(spans, "retrieval.build_index"),
        "retrieval.score_topk_s": sp.self_time(spans, "retrieval.search"),
        "retrieval.queries": sp.calls(spans, "retrieval.search"),
        "genkit.provider_calls": sum(sp.calls(spans, n) for n in PROVIDER_SPANS),
        "genkit.provider_s": sum(sp.total_time(spans, n) for n in PROVIDER_SPANS),
        "genkit.parse_failures": counts.get("genkit.parse_variants.errors", 0)
        + counts.get("judge.parse_grade.errors", 0),
        "genkit.in_flight_peak": max(sp.peak_overlap(spans, n) for n in PROVIDER_SPANS),
        "genkit.generate_sweep.self_s": sp.self_time(spans, "genkit.generate_sweep"),
        "genkit.transport_s": sp.total_time(spans, "genkit.http.complete") - server_s,
        "provider.requests": run.stub.get("requests", 0),
        "provider.connections": run.stub.get("connections", 0),
        "provider.server_s": server_s,
        "provider.concurrency_peak": run.stub.get("concurrency_peak", 0),
        "judge.label_template_loads": sp.calls(spans, "judge.load_label_template"),
        "judge.label_template_s": sp.total_time(spans, "judge.load_label_template"),
        "judge.label.self_s": sp.self_time(spans, "judge.label"),
        "judge.cache_hits": counts.get("judge.cache_hits", 0),
        "judge.cache_misses": counts.get("judge.cache_misses", 0),
        "judge.store_load_s": sp.total_time(spans, "judge.store_load"),
        "judge.store_save_s": sp.total_time(spans, "judge.store_save"),
        "judge.coverage_s": sp.total_time(spans, "judge.coverage"),
        "judge.merge_s": sp.total_time(spans, "judge.merge"),
        "metrics.ndcg_s": sp.total_time(spans, "metrics.ndcg"),
        "metrics.ndcg_calls": sp.calls(spans, "metrics.ndcg"),
        "metrics.kendall_tau_s": sp.total_time(spans, "metrics.kendall_tau"),
        "anova.anova_s": sp.outer_time(spans, {"anova.anova"}),
        "anova.marginal_means.self_s": sp.self_time(spans, "anova.marginal_means"),
        "agreement.system_verdicts.self_s": sp.self_time(spans, "agreement.system_verdicts"),
        "tukey.quantile_calls": sp.calls(spans, "tukey.quantile"),
        "tukey.quantile_s": sp.outer_time(spans, {"tukey.quantile"}),
        "tukey.cdf_evals": sp.calls(spans, "tukey.cdf"),
        "validate.validate_variants_s": sp.total_time(spans, "validate.validate_variants"),
    }


def median_of(rows: list) -> dict:
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def med(runs: list, attr: str) -> float:
    return statistics.median(getattr(r, attr) for r in runs)


def mean(runs: list, attr: str) -> float:
    return statistics.fmean(getattr(r, attr) for r in runs)


def end_to_end(samples: dict, setup_s: float, scale: float) -> dict:
    """End-to-end metrics; every time is multiplied by `scale`."""
    m = {
        "setup_s": setup_s * scale,
        "pipeline_s": sum(mean(runs, "wall_s") for runs in samples.values()) * scale,
        "pipeline_cpu_s": sum(mean(runs, "cpu_s") for runs in samples.values()) * scale,
        "peak_rss_mb": max(med(runs, "rss_mb") for runs in samples.values()),
        "provider_calls": sum(runs[0].provider_calls for runs in samples.values()),
    }
    for stage, runs in samples.items():
        m[f"{stage_key(stage)}_s"] = mean(runs, "wall_s") * scale
    return m


def per_layer(samples: dict, traced: dict) -> tuple:
    """(pipeline totals, {stage: its own numbers}) over the traced samples."""
    per_stage = {
        stage: median_of([stage_layers(r) for r in runs if r.trace])
        for stage, runs in traced.items()
        if any(r.trace for r in runs)
    }
    total = {f"cli.{stage_key(stage)}.self_s": 0.0 for stage in STAGES}
    for numbers in per_stage.values():
        for name, value in numbers.items():
            total[name] = max(total.get(name, 0), value) if name in PEAKS else total.get(name, 0) + value
    lookups = total["judge.cache_hits"] + total["judge.cache_misses"]
    total["judge.cache_lookups"] = lookups
    total["judge.cache_hit_ratio"] = total["judge.cache_hits"] / lookups if lookups else 0.0
    for stage, runs in samples.items():
        total[f"cli.{stage_key(stage)}.rss_mb"] = med(runs, "rss_mb")
    total["trace.overhead_s"] = (sum(med(runs, "wall_s") for runs in traced.values())
                                 - sum(med(runs, "wall_s") for runs in samples.values()))
    return total, per_stage


STAGE_COUNTS = (
    "genkit.provider_calls",
    "judge.cache_hits",
    "judge.cache_misses",
    "judge.label_template_loads",
    "retrieval.build_index_calls",
    "tukey.quantile_calls",
    "tukey.cdf_evals",
)


# ---------------------------------------------------------------- main


def measure(bench: Bench, seconds: float, trace: bool, write_reference: bool) -> dict:
    w = bench.workload
    builds = [bench.work / f"setup{i}" for i in range(SETUPS)]
    build_times, probes = [], []
    for build_ws in builds:
        build_times.append(bench.build(build_ws))
        probes.append(bench.probe())
    expect = bench.expect()
    failed = 0
    if len({input_digest(ws) for ws in builds}) != 1:
        print("check failed: the same seed built different inputs", file=sys.stderr)
        failed += 1
    ws = builds[0]
    for other in builds[1:]:
        shutil.rmtree(other)
    prime_s = 0.0
    if w.primed:
        start = time.perf_counter()
        bench.prime(ws)
        prime_s = time.perf_counter() - start
        # The priming run is a mid-cold run of the same inputs.
        cold_expect = dict(expect, systems=expect["systems"][:-1])
        failed += len(check_out(ws / "out", cold_expect, load_reference("mid-cold", bench.seed), False))
    setup_s = statistics.median(build_times) + prime_s

    reference = None if write_reference else load_reference(w.reference_key, bench.seed)
    mock_calls = None
    if w.http and reference is None:
        # No stored sketch for this seed: the mock pipeline's output is the reference.
        mock_ws = bench.work / "mock"
        shutil.copytree(ws, mock_ws)
        mock = bench.run_pipeline(mock_ws)
        failed += sum(1 for run in mock if run.code)
        reference = outcheck.sketch(mock_ws / "out")
        mock_calls = sum(run.provider_calls for run in mock)
        shutil.rmtree(mock_ws)

    snaps = bench.work / "before"
    samples = {stage: [] for stage in STAGES}
    traced = {stage: [] for stage in STAGES}
    digests = {}
    attempted = 0
    start = time.perf_counter()

    # First pass: the pipeline in order, keeping the out/ each stage starts from.
    for stage in STAGES:
        copy_out(ws / "out", snaps / stage)
        run = bench.run_stage(ws, stage, http=w.http)
        probes.append(bench.probe())
        digests[stage] = (out_digest(ws / "out"), run.provider_calls)
        samples[stage].append(run)
        attempted += 1
        failed += run.code != 0
    bad = check_out(ws / "out", expect, reference, exact=w.http)
    failed += len(bad - {s for s in STAGES if samples[s][0].code})
    calls = sum(runs[0].provider_calls for runs in samples.values())
    if mock_calls is not None and calls != mock_calls:
        print(f"check failed: {calls} provider calls over http, {mock_calls} with the mock",
              file=sys.stderr)
        failed += 1
    if write_reference and failed == 0:
        store_reference(w.reference_key, bench.seed, ws / "out")

    # Further samples, each stage from a copy of the out/ it started from.
    # A traced run takes traced and plain samples in turn, so that both
    # medians in trace.overhead_s rest on as many samples.
    kinds = (True, False) if trace else (False,)

    def pool(is_traced: bool) -> dict:
        return traced if is_traced else samples

    while True:
        elapsed = time.perf_counter() - start
        order = sorted(((s, t) for s in STAGES for t in kinds), key=lambda c: len(pool(c[1])[c[0]]))
        never_traced = [c for c in order if c[1] and not traced[c[0]]]
        if never_traced:
            stage, is_traced = never_traced[0]  # every stage is traced at least once
        else:
            fits = [c for c in order
                    if elapsed + pool(c[1])[c[0]][-1].wall_s + probes[-1] <= seconds]
            if not fits:
                break
            stage, is_traced = fits[0]
        copy_out(snaps / stage, ws / "out")
        run = bench.run_stage(ws, stage, traced=is_traced, http=w.http)
        probes.append(bench.probe())
        pool(is_traced)[stage].append(run)
        attempted += 1
        if run.code != 0 or (out_digest(ws / "out"), run.provider_calls) != digests[stage]:
            print(f"check failed: {stage} repeated from the same state gave other outputs",
                  file=sys.stderr)
            failed += 1

    for is_traced in kinds:
        counts = ", ".join(f"{s} {len(pool(is_traced)[s])}" for s in STAGES)
        print(f"{'traced' if is_traced else 'plain'} samples per stage: {counts}")
    probe_s = statistics.fmean(probes)
    raw = end_to_end(samples, setup_s, 1.0)
    print(f"host probe: mean {probe_s:.4f} s over {len(probes)} runs, times scaled by "
          f"{PROBE_REF_S / probe_s:.4f}; unscaled pipeline_s {raw['pipeline_s']:.4f} s, "
          f"setup_s {raw['setup_s']:.4f} s")
    if not trace:
        metrics = end_to_end(samples, setup_s, PROBE_REF_S / probe_s)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    metrics, per_stage = per_layer(samples, traced)
    metrics["toydata.workspace_s"] = statistics.median(build_times)
    metrics["host.probe_s"] = probe_s
    for stage, numbers in per_stage.items():
        shown = [f"{name} {numbers[name]}" for name in STAGE_COUNTS if numbers[name]]
        print(f"trace {stage}: " + (", ".join(shown) or "-"))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's output sketch instead of checking against it")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qvbench" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} lacks src/qvbench or BENCHMARK.json; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import qvbench.cli  # noqa: F401  (byte-compiles the package before anything is timed)
    from qvbench.genkit import MockProvider
    from stub import ProviderStub

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed)
    try:
        if workload.http:
            with ProviderStub(MockProvider(seed_material=str(args.seed))) as bench.stub:
                result = measure(bench, args.seconds, bool(args.trace), args.write_reference)
        else:
            result = measure(bench, args.seconds, bool(args.trace), args.write_reference)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    correct = result["failed"] == 0
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
