#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric's summary.

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --workloads toy-cold --seeds 1-5 --trace
    python3 perfbench/suite.py --seeds 1-10 --trace --record perfbench/baseline.json

Run it from the repository root. By default it runs all four workloads
of run.py, toy-cold included. Each (workload, seed) is one
`perfbench/run.py` invocation. For every end-to-end metric the table
gives the unit, the median over runs, the quartile spread as a share of
the median next to the metric's bound, the highest percentile with at
least ten runs beyond it, and the run count, then failed/attempted stage
invocations. `--trace` adds one traced run per workload (the first
seed) with every per-layer metric. `--record` writes all of it, with the
machine and software versions, as JSON. The exit code is 1 when any run
failed or reported wrong outputs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
PERCENTILES = (99.9, 99, 95, 90, 50)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def supported_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, with its value."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None, None


def spread(values: list) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def invoke(workload: str, seed: int, seconds: int, trace: bool, extra: list) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", *extra]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result.update(seed=seed, exit_code=proc.returncode, elapsed_s=elapsed)
    print(f"{workload} seed {seed}{' traced' if trace else ''}: exit {proc.returncode}, "
          f"{result['failed']}/{result['attempted']} failed, {elapsed:.1f} s", flush=True)
    return result


def summarize(name: str, unit: str, bound, values: list) -> dict:
    p, value = supported_percentile(values)
    return {
        "name": name,
        "unit": unit,
        "median": statistics.median(values),
        "spread": spread(values),
        "bound": bound,
        "percentile": p,
        "percentile_value": value,
        "runs": len(values),
    }


def print_table(workload: str, rows: list, failed: int, attempted: int) -> None:
    print(f"\n{workload}: {failed}/{attempted} stage invocations failed")
    print(f"  {'metric':<16} {'unit':<6} {'median':>12} {'spread':>7} {'bound':>6} {'pct':>14} {'runs':>4}")
    for r in rows:
        pct = "-" if r["percentile"] is None else f"p{r['percentile']:g} {r['percentile_value']:.4g}"
        flag = " !" if r["bound"] and r["spread"] > r["bound"] / 3 else ""
        print(f"  {r['name']:<16} {r['unit']:<6} {r['median']:>12.6g} {r['spread']:>7.3f} "
              f"{r['bound']:>6} {pct:>14} {r['runs']:>4}{flag}")


def machine() -> dict:
    import numpy

    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,5")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", help="write every result and the summary as JSON here")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    extra = ["--write-reference"] if args.write_reference else []

    record = {"machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [invoke(workload, seed, args.seconds, False, extra) for seed in seeds]
        ok &= all(r["correct"] and r["exit_code"] == 0 for r in runs)
        rows = [
            summarize(m["name"], m["unit"], m["bound"],
                      [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]])
            for m in spec["end_to_end"]
        ]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print_table(workload, rows, failed, attempted)
        entry = {"runs": runs, "end_to_end": rows, "failed": failed, "attempted": attempted}
        if args.trace:
            traced = invoke(workload, seeds[0], args.seconds, True, [])
            ok &= traced["correct"] and traced["exit_code"] == 0
            entry["traced"] = traced
            print(f"  per-layer (seed {seeds[0]}):")
            for name, m in traced["metrics"].items():
                print(f"    {name:<36} {m['value']:>14.6g} {m['unit']}")
        record["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
