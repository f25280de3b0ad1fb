#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --seeds 1-10 --seconds 25
    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1-3 --label seed \
        --out perfbench/trajectory/BENCH_0_seed.json

For each workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median; for end-to-end metrics it also prints
the metric's bound from ``BENCHMARK.json``.  Runs go one at a time, so they
never compete for the two cores.  ``--out`` writes the summary as a
trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["log"] = proc.stderr
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def collect(names, seeds, seconds, trace) -> dict:
    out = {}
    for name in names:
        runs = []
        for seed in seeds:
            result = run(name, seed, seconds, trace)
            runs.append(result)
            print(f"  {name} seed {seed} trace {trace}: {result['wall_s']:.1f} s wall, "
                  f"{result['attempted']} requests, {result['failed']} failed", file=sys.stderr)
            for line in result.pop("log").splitlines():
                if "unscaled" in line or "share" in line:
                    print(f"    {line}", file=sys.stderr)
        metrics = {}
        for metric, entry in runs[0]["metrics"].items():
            summary = summarise([r["metrics"][metric]["value"] for r in runs])
            summary["unit"] = entry["unit"]
            metrics[metric] = summary
        out[name] = {
            "seeds": list(seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs (none by default)")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workloads.split(",")

    untraced = collect(names, seed_list(args.seeds), seconds, 0)
    traced = collect(names, seed_list(args.trace_seeds), seconds, 1) if args.trace_seeds else {}

    worst = 0.0
    for name in names:
        print(f"{name}:")
        for metric, s in untraced[name]["metrics"].items():
            bound = bounds.get(metric)
            if metric != "setup_s" and bound:
                worst = max(worst, s["spread"] / bound)
            note = f" bound {bound}" if bound is not None else ""
            print(f"  {metric:12s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{note}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")

    if args.out:
        entry = {
            "label": args.label,
            "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, "
                       f"Python {platform.python_version()}",
            "run_seconds": seconds,
            "end_to_end": untraced,
            "per_layer": traced,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
