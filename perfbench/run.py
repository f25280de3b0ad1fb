#!/usr/bin/env python3
"""chaoscalc benchmark: one workload as a closed loop of in-process CLI requests.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload influence --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Every request is one ``chaoscalc.cli.main(argv)`` call with standard output
captured in memory; one client sends the next request when the last has
returned.  Inputs are generated from ``--seed`` into a temporary directory
inside the checkout and removed at the end.  Whole rounds of the workload
(see ``workloads.py``) run until ``--seconds`` is used up, and at least two,
so every request is also checked to repeat byte for byte.

The host this runs on shares its cores and changes speed in spells of
seconds, so each request's latency, and each set-up process's time, is
rescaled by a short speed probe timed right before and after it (see
``probe``); the unscaled request figures go to standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (see ``spans.py``); the spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the benchmark could not
run (for instance when the checkout has no ``src/chaoscalc``).
"""

from __future__ import annotations

import os

# at most two threads run: the CLI's own --workers 2 pool, no BLAS pool on top
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
PROBE_REPEATS = 3
PROBE_NOMINAL_S = 7e-4  # fixed scale: rescaled latencies are seconds at this probe time
_PROBE_ARRAY = np.random.default_rng(0).standard_normal(1 << 16)
TAIL_BEYOND = 10
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from chaoscalc.cli import main; sys.exit(main(sys.argv[2:]))"
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_program():
    """Import ``chaoscalc`` from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "chaoscalc" / "cli.py").is_file():
        log(f"error: no chaoscalc sources under {SRC}; run from a checkout of the repository")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chaoscalc.cli

    return chaoscalc.cli.main


def call(main, argv: list[str]) -> tuple[int, float, str, str]:
    """One request: exit code, latency in seconds, captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not the end of the run
            traceback.print_exc()
            code = -1
        latency = time.perf_counter() - start
    return code, latency, out.getvalue(), err.getvalue()


def probe() -> float:
    """Host speed now: median time of a fixed mix of interpreter and numpy work.

    The geometric mean of a pure-Python loop and a numpy sort, so that both
    interpreter-bound and array-bound requests are rescaled fairly.
    """
    py, nu = [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(2500):
            acc += i * i % 7
            table[i & 63] = acc
        py.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(2):
            ordered = np.sort(_PROBE_ARRAY * 1.0001)
            (ordered * ordered + ordered).sum()
        nu.append(time.perf_counter() - start)
    return (statistics.median(py) * statistics.median(nu)) ** 0.5


def measure_setup(argv: list[str], workdir: str) -> tuple[float, int]:
    """Median time of fresh processes that import chaoscalc and run ``argv``.

    Each process's wall time is rescaled by the probes timed right before and
    after it, like the request latencies.
    """
    times, failures = [], 0
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
            cwd=workdir, capture_output=True, timeout=120,
        )
        wall = time.perf_counter() - start
        after = probe()
        times.append(wall * PROBE_NOMINAL_S / ((before + after) / 2))
        before = after
        if proc.returncode != 0:
            failures += 1
            log(f"set-up request failed ({proc.returncode}): {proc.stderr.decode()[-400:]}")
    return statistics.median(times), failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def is_traced_round(index: int) -> bool:
    """Rounds go in pairs, one untraced and one traced, the order swapped every pair."""
    return (index % 2 == 1) == (index // 2 % 2 == 0)


class Loop:
    """Runs whole rounds of a plan, checking that every slot repeats byte for byte."""

    def __init__(self, main, plan: workloads.Plan):
        self.main = main
        self.plan = plan
        self.first: dict[str, str] = {}
        self.digest: dict[str, str] = {}
        self.failed_slots: dict[str, str] = {}
        # (slot, wall latency, traced, latency rescaled to the nominal probe speed)
        self.records: list[tuple[str, float, bool, float]] = []
        self.last_probe: float | None = None

    def request(self, req: workloads.Request, recorder=None) -> None:
        traced = recorder is not None
        before = self.last_probe if self.last_probe is not None else probe()
        if traced:
            recorder.request_id = len(self.records)
            recorder.active = True
            index = recorder.begin(recorder.name_id(spans.ROOT))
        try:
            code, latency, out, err = call(self.main, req.argv)
        finally:
            if traced:
                recorder.finish(index)
                recorder.active = False
        self.last_probe = after = probe()
        scaled = latency * PROBE_NOMINAL_S / ((before + after) / 2)
        self.records.append((req.slot, latency, traced, scaled))
        digest = hashlib.sha256(out.encode()).hexdigest()
        size = len(out.encode())
        if req.output:
            digest += workloads.file_digest(req.output)
            size += os.path.getsize(req.output)
        if traced:
            recorder.add("cli.out_bytes", size)
        if code != 0:
            self.fail(req.slot, f"exit code {code}: {err.strip()[-300:]}")
        elif req.slot not in self.digest:
            self.digest[req.slot] = digest
            self.first[req.slot] = out
        elif self.digest[req.slot] != digest:
            self.fail(req.slot, "output differs from an earlier repeat")

    def fail(self, slot: str, message: str) -> None:
        if slot not in self.failed_slots:
            self.failed_slots[slot] = message
            log(f"FAILED {slot}: {message}")

    def round(self, recorder=None) -> float:
        start = time.perf_counter()
        for req in self.plan.requests:
            self.request(req, recorder)
        return time.perf_counter() - start

    def run(self, seconds: float, recorder=None) -> list[float]:
        """Whole rounds while time is left (at least two); returns each round's duration.

        With a recorder, the rounds that ``is_traced_round`` picks are traced.
        """
        durations: list[float] = []
        begin = time.perf_counter()
        while True:
            index = len(durations)
            traced = recorder is not None and is_traced_round(index)
            durations.append(self.round(recorder if traced else None))
            elapsed = time.perf_counter() - begin
            if len(durations) >= 2 and elapsed + statistics.mean(durations) / 2 >= seconds:
                return durations

    def verify(self) -> None:
        """Deep output checks on each slot's first output (outside every timed interval)."""
        complete = {slot: text for slot, text in self.first.items() if slot not in self.failed_slots}
        if len(complete) < len(self.plan.requests):
            return  # a request already failed; dependent checks cannot run
        try:
            problems = self.plan.check(complete)
        except Exception:  # a check that cannot parse the output is a failed check
            self.fail("check", traceback.format_exc(limit=3))
            return
        for slot, message in problems:
            self.fail(slot, message)

    def counts(self) -> tuple[int, int]:
        attempted = len(self.records)
        failed = sum(1 for record in self.records if record[0] in self.failed_slots)
        if "check" in self.failed_slots:
            failed = attempted
        return attempted, failed


def run_untraced(main, plan, seconds: float, workdir: str) -> tuple[dict, Loop, bool]:
    setup_s, setup_failures = measure_setup(plan.warmup, workdir)
    loop = Loop(main, plan)
    call(main, plan.warmup)
    durations = loop.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.verify()
    latencies = [record[3] for record in loop.records]
    wall = [record[1] for record in loop.records]
    ok = sum(1 for record in loop.records if record[0] not in loop.failed_slots)
    tail_value, tail_pct = tail(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ok / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    log(f"[{plan.workload}] unscaled wall time: ops_per_s {ok / sum(wall):.6g}, "
        f"op_p50_s {statistics.median(wall):.6g}, op_tail_s {tail(wall)[0]:.6g}, "
        f"probe time {statistics.median(r[1] / r[3] for r in loop.records):.3f}x nominal")
    attempted, failed = loop.counts()
    log(
        f"[{plan.workload}] {len(durations)} rounds x {len(plan.requests)} requests, "
        f"{attempted} attempted, {failed} failed, error_rate {failed / attempted:.4f}"
    )
    log(f"[{plan.workload}] op_tail_s is p{tail_pct:.1f} of {len(latencies)} requests; "
        f"setup_s is the median of {SETUP_REPEATS} fresh processes")
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        log(f"[{plan.workload}] {name} = {values[name]:.6g} {unit}")
    return metrics, loop, setup_failures == 0


def run_traced(main, plan, seconds: float, seed: int) -> tuple[dict, Loop]:
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    loop = Loop(main, plan)
    try:
        call(main, plan.warmup)
        durations = loop.run(seconds, recorder=recorder)
    finally:
        restore()
    loop.verify()
    traced_rounds = sum(1 for i in range(len(durations)) if is_traced_round(i))
    traced_time = sum(r[3] for r in loop.records if r[2])
    plain_time = sum(r[3] for r in loop.records if not r[2])
    plain_rounds = len(durations) - traced_rounds
    overhead = (plain_time / plain_rounds) / (traced_time / traced_rounds)
    computed = plan.computed(loop.first) if not loop.failed_slots else {}
    metrics, shares = spans.per_layer_metrics(
        recorder, traced_rounds, computed, {"trace_overhead": overhead}
    )
    out = ROOT / ".perfbench_out" / f"spans-{plan.workload}-seed{seed}.npz"
    recorder.save(str(out))
    log(f"[{plan.workload}] {traced_rounds} traced and {plain_rounds} untraced rounds; "
        f"{len(recorder.name)} spans written to {out.relative_to(ROOT)}")
    log(f"[{plan.workload}] self-time share by layer: "
        + ", ".join(f"{layer} {share:.3f}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, entry in metrics.items():
        if entry["value"]:
            label = " (computed)" if name in spans.COMPUTED else ""
            log(f"[{plan.workload}] {name} = {entry['value']:.6g} {entry['unit']}{label}")
    return metrics, loop


def run_one(args) -> int:
    main = load_program()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        plan = workloads.build(args.workload, args.seed, Path(workdir), smoke=args.smoke)
        if args.trace:
            metrics, loop = run_traced(main, plan, args.seconds, args.seed)
            setup_ok = True
        else:
            metrics, loop, setup_ok = run_untraced(main, plan, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    attempted, failed = loop.counts()
    if not setup_ok:
        failed += 1
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    if not (SRC / "chaoscalc" / "cli.py").is_file():
        log(f"error: no chaoscalc sources under {SRC}")
        return 2
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"[{name}] benchmark failed with exit code {proc.returncode}")
            return 2
        results[name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
