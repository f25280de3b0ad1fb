#!/usr/bin/env python3
"""The library's statements that no benchmark request runs.

Usage (from the root of a checkout):

    python3 tests/command_reach.py SRC --seeds 1-3

``SRC`` is the directory that holds the ``chaoscalc`` package to trace (the
``src`` of a checkout).  The rounds are those of ``request_digests.py``, run
by its ``digests`` with a line tracer on every thread (``sys.settrace`` and
``threading.settrace``) that follows only frames of ``SRC/chaoscalc``.  For
each module, standard output lists the statements inside functions that no
request ran, as ``line: source``.

The list holds candidates, not verdicts: read the code before deleting any of
it.  The benchmark reads no sample file from a pipe and makes no error exit,
so the paths that handle those are listed too.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
import threading
from pathlib import Path

from request_digests import PERFBENCH, digests, seed_list


def function_statements(path: Path) -> dict[int, str]:
    """``line: source`` of each statement inside a function of ``path`` that has bytecode."""
    source = path.read_text()
    lines = source.splitlines()
    starts = {
        node.lineno
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in func.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.stmt)
    }
    with_code = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function body, not a module or class body
            with_code.update(line for _, _, line in code.co_lines() if line != code.co_firstlineno)
    return {line: lines[line - 1].strip() for line in sorted(starts & with_code)}


def run_traced(package: Path, run) -> set[tuple[str, int]]:
    """``(file, line)`` of every line that ``run()`` executes in ``package``'s files."""
    prefix = str(package) + "/"
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the chaoscalc package")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-3"))
    args = parser.parse_args(argv)
    src = args.src.resolve()
    package = src / "chaoscalc"
    if not (package / "cli.py").is_file():
        print(f"error: no chaoscalc package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import chaoscalc.cli
    import workloads

    seen = run_traced(package, lambda: digests(chaoscalc.cli.main, workloads, args.seeds))
    for path in sorted(package.glob("*.py")):
        statements = function_statements(path)
        unrun = {line: text for line, text in statements.items() if (str(path), line) not in seen}
        print(f"{path.relative_to(src)}: {len(unrun)} of {len(statements)} statements not run")
        for line, text in unrun.items():
            print(f"  {line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
