#!/usr/bin/env python3
"""Memory of every benchmark request: its ``ru_maxrss`` rise and its tracemalloc peak.

Usage (from the root of a checkout):

    python3 tests/request_memory.py SRC --seeds 1-3 > memory.json

``SRC`` is the directory that holds the ``chaoscalc`` package to run (the
``src`` of a checkout).  The rounds are those of ``request_digests.py``; each
workload and seed runs in a fresh process of its own, as the benchmark runs
a workload, and in plan order after the plan's set-up request.  The round
runs twice in that process: first untraced, where a request's rise is how
far it lifted ``ru_maxrss``, the process's peak resident set so far (0 when
it stayed below an earlier request's peak); then under tracemalloc, started
and stopped around each request, whose peak counts the Python and numpy
allocations the request made and held at once.  Standard output is one
sorted JSON object that maps ``workload/seed/slot`` to
``{"maxrss_rise_mb": ..., "tracemalloc_peak_mb": ...}`` (MiB).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

from request_digests import PERFBENCH, run_request, seed_list


def maxrss_mb() -> float:
    # KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_peak_mb(main, argv: list[str]) -> float:
    tracemalloc.start()
    try:
        run_request(main, argv)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def round_memory(main, workloads, workload: str, seed: int) -> dict[str, dict]:
    """One round's requests in this process: the untraced pass, then the traced one."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="request-memory-") as directory:
        plan = workloads.build(workload, seed, Path(directory))
        run_request(main, plan.warmup)
        for req in plan.requests:
            before = maxrss_mb()
            run_request(main, req.argv)
            out[f"{workload}/{seed}/{req.slot}"] = {"maxrss_rise_mb": round(maxrss_mb() - before, 3)}
        for req in plan.requests:
            out[f"{workload}/{seed}/{req.slot}"]["tracemalloc_peak_mb"] = round(
                traced_peak_mb(main, req.argv), 3
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the chaoscalc package")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-3"))
    # one round in this process: WORKLOAD:SEED, as the parent process runs each
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "chaoscalc" / "cli.py").is_file():
        print(f"error: no chaoscalc package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import workloads

    if args.round:
        import chaoscalc.cli

        workload, _, seed = args.round.partition(":")
        print(json.dumps(round_memory(chaoscalc.cli.main, workloads, workload, int(seed))))
        return 0
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            child = subprocess.run(
                [sys.executable, __file__, str(src), "--round", f"{workload}:{seed}"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            out.update(json.loads(child.stdout))
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
