"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_in_the_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    plan_a = workloads.build(workload, 7, dirs[0])
    plan_b = workloads.build(workload, 7, dirs[1])
    workloads.build(workload, 8, dirs[2])
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])
    strip = lambda plan, d: [[a.replace(str(d), "") for a in r.argv] for r in plan.requests]
    assert strip(plan_a, dirs[0]) == strip(plan_b, dirs[1])
    slots = [r.slot for r in plan_a.requests]
    assert len(slots) == len(set(slots))


def test_names_are_well_formed_and_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    names += [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in config["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == [
        (name, unit) for name, unit, _ in spans.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_self_time_on_a_synthetic_span_tree():
    names = ["root", "a", "b", "leaf", "c"]
    #        root      a         b (overlaps a, as on a worker thread)  leaf (in a)  c (leaves root)
    name = [0, 1, 2, 3, 4]
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 11.0]
    totals = spans.span_totals(names, name, parent, start, end)
    assert totals["root"]["busy"] == 10.0
    assert totals["root"]["self"] == 10.0 - 5.0 - 2.0  # union [1, 6] and [8, 10] clipped
    assert totals["a"]["self"] == 2.0
    assert totals["b"]["self"] == 3.0
    assert totals["leaf"]["self"] == totals["leaf"]["busy"] == 1.0
    assert totals["c"]["calls"] == 1


def test_covered_merges_and_clips():
    assert spans.covered([], 0, 1) == 0.0
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4.0
    assert spans.covered([(-5, 2), (9, 20)], 0, 10) == 3.0


def test_worker_thread_spans_hang_under_the_main_thread_span():
    rec = spans.Recorder()
    outer = rec.begin(rec.name_id("outer"))
    worker = threading.Thread(target=lambda: rec.finish(rec.begin(rec.name_id("inner"))))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.finish(outer)
    assert list(rec.parent) == [-1, outer]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_has_no_errors(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.END_TO_END if trace == "0" else [(n, u) for n, u, _ in spans.PER_LAYER]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)


@pytest.mark.parametrize("workload", ["exact", "montecarlo"])
def test_computed_counts_repeat_exactly(workload):
    results = []
    for seconds in ("0", "2"):
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", seconds, "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr[-2000:]
        results.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    for name in spans.COMPUTED:
        assert results[0][name]["value"] == results[1][name]["value"], name
    assert any(results[0][name]["value"] for name in spans.COMPUTED)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "influence", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
