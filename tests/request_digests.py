#!/usr/bin/env python3
"""Digests of every benchmark request's output, for a byte-identity check.

Usage (from the root of a checkout):

    python3 tests/request_digests.py SRC --seeds 1-3 > digests.json

``SRC`` is the directory that holds the ``chaoscalc`` package to run (the
``src`` of a checkout).  For each workload of ``perfbench/workloads.py`` and
each seed, the round that ``workloads.build`` writes into a temporary
directory is run in process, one ``chaoscalc.cli.main(argv)`` call per
request.  Standard output is one sorted JSON object that maps
``workload/seed/slot`` to the request's exit code, the sha256 of its standard
output, the sha256 of its ``--output`` file (or null) and the length of its
standard error.  Two trees give the same bytes on the benchmark exactly when
a ``diff`` of their two outputs is empty.
"""

from __future__ import annotations

import os

# the CLI's own --workers pool is the only one: no BLAS threads on top
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def seed_list(text: str) -> list[int]:
    """``"1-3"`` or ``"1,4,7"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_request(main, argv: list[str]) -> tuple[int, str, str]:
    """One ``main(argv)`` call: exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a digest too, not the end of the run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def digests(main, workloads, seeds: list[int]) -> dict[str, dict]:
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="request-digests-") as directory:
                plan = workloads.build(workload, seed, Path(directory))
                for req in plan.requests:
                    code, stdout, stderr = run_request(main, req.argv)
                    output = Path(req.output).read_bytes() if req.output else None
                    out[f"{workload}/{seed}/{req.slot}"] = {
                        "exit_code": code,
                        "stdout_sha256": sha256(stdout.encode()),
                        "output_sha256": None if output is None else sha256(output),
                        "stderr_len": len(stderr),
                    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the chaoscalc package")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-3"))
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "chaoscalc" / "cli.py").is_file():
        print(f"error: no chaoscalc package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import chaoscalc.cli
    import workloads

    print(json.dumps(digests(chaoscalc.cli.main, workloads, args.seeds), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
