"""Command-line front end.

Each subcommand is one row of ``_COMMANDS``: name, help text, handler,
positional inputs and options in ``--help`` order; shared options are declared
once above it.  The parser is built from the table once per process, at
import, so ``main`` only parses.  Handlers look library functions up as module
globals when they run (a tracer may patch them), and ``_load`` reads every
input file, naming it in a read, parse or precondition error.

A handler returns its result, and ``main`` writes it, in one place for every
command: the library's result object (a bare ``ChaosPoly`` for ``gamma`` and
``L``, a dict for ``w2``, ``invariance`` and ``influences``) as
``canonical_json(json_value(result))`` plus a newline, and ``sample``'s
``SampleSet`` as the pieces of its line-oriented sample file
(``montecarlo._sample_file_pieces``), formatted as they are written.  The
sample is drawn whole before the first byte is written.  Results go to
standard output, or to ``--output``; all diagnostics go to standard error.
Exit codes: 0 success, 2 parse/precondition/input errors or an ``--output``
file or standard output that cannot be written (a reader that closed the
pipe), 3 resource caps exceeded or memory that cannot be allocated.
Repeated invocations with identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .algebra import ChaosPoly, canonical_json, json_value, poly_from_json
from .decompose import canonical_quadratic, iterate_decomposition
from .ensembles import MultilinearPoly, multilinear_influences
from .errors import BasisSizeError, ChaosCalcError, ParseError, PreconditionError
from .influence import rho_q, strongest_influence
from .malliavin import gamma_gradient, ou_generator
from .montecarlo import (
    SampleSet,
    _sample_file_pieces,
    _sorted_values,
    _w2_sorted,
    invariance_gap,
    normality_report,
    read_sample_file,
    sample,
)


def _load(path: str, parse):
    """``parse(path)``; a read, parse or precondition error is a ``ParseError`` naming the file."""
    try:
        return parse(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ParseError, PreconditionError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_poly(path: str) -> ChaosPoly:
    return _load(path, lambda p: poly_from_json(Path(p).read_text()))


def _load_multilinear(path: str) -> MultilinearPoly:
    return _load(path, lambda p: MultilinearPoly.from_json(Path(p).read_text()))


def _cmd_gamma(args):
    return gamma_gradient(_load_poly(args.f), _load_poly(args.g))


def _cmd_generator(args):
    return ou_generator(_load_poly(args.f))


def _cmd_rho(args):
    return rho_q(_load_poly(args.f), args.q)


def _cmd_strongest(args):
    return strongest_influence(_load_poly(args.f), args.threshold)


def _cmd_decompose(args):
    return iterate_decomposition(_load_poly(args.f), args.threshold, args.max_steps)


def _cmd_canonical2(args):
    return canonical_quadratic(_load_poly(args.f))


def _cmd_diagnose(args):
    return normality_report(_load_poly(args.f), args.samples, args.seed, args.workers)


def _cmd_sample(args) -> SampleSet:
    f = _load_poly(args.f)
    return sample(f, args.samples, args.seed, stream=args.stream, workers=args.workers)


def _read_samples(path: str) -> SampleSet:
    """A sample file with at least one value; an empty one is a ``PreconditionError``."""
    samples = read_sample_file(path)
    if not len(samples):
        raise PreconditionError("no samples to compare")
    return samples


def _cmd_w2(args) -> dict:
    # each file's sample is dropped once sorted, so at most three sample-sized arrays are held
    xs = _sorted_values(_load(args.a, _read_samples))
    ys = _sorted_values(_load(args.b, _read_samples))
    return {"w2": _w2_sorted(xs, ys), "n_a": xs.size, "n_b": ys.size}


def _cmd_invariance(args) -> dict:
    p = _load_multilinear(args.p)
    gap = invariance_gap(p, args.samples, args.seed, workers=args.workers)
    return {"gap": gap, "n_samples": args.samples, "seed": args.seed}


def _cmd_influences(args) -> dict:
    influences = multilinear_influences(_load_multilinear(args.p))
    return {var: {"value": float(x), "exact": str(x)} for var, x in influences.items()}


def _write_stdout(pieces) -> None:
    """Write ``pieces`` to standard output and flush it.

    When that fails (a reader that closed the pipe, say), standard output's
    file descriptor is pointed at the null device before the error
    propagates, so the interpreter's own flush at exit cannot fail again.
    """
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        raise


_OUTPUT = ("--output", {"default": None, "help": "write result to a file instead of stdout"})
_THRESHOLD = ("--threshold", {"type": float, "default": 0.1, "help": "least influence to split on"})
_MONTE_CARLO = (
    ("--samples", {"type": int, "default": 100_000, "help": "number of draws"}),
    ("--seed", {"type": int, "default": 42, "help": "seed of the random draws"}),
    ("--workers", {"type": int, "default": 1, "help": "threads; the output is the same"}),
)

_COMMANDS = (
    ("gamma", "carre du champ of two polynomial files", _cmd_gamma, ("f", "g"), (_OUTPUT,)),
    ("L", "apply the Ornstein-Uhlenbeck generator", _cmd_generator, ("f",), (_OUTPUT,)),
    ("rho", "directional influence of a given degree", _cmd_rho, ("f",),
     (("--q", {"type": int, "default": 1, "help": "influence degree"}), _OUTPUT)),
    ("strongest", "least degree whose influence clears the threshold", _cmd_strongest, ("f",),
     (_THRESHOLD, _OUTPUT)),
    ("decompose", "iterated strongest-influence decomposition", _cmd_decompose, ("f",),
     (_THRESHOLD, ("--max-steps", {"type": int, "default": 16, "help": "most splits"}), _OUTPUT)),
    ("canonical2", "canonical form of a degree-<=2 polynomial", _cmd_canonical2, ("f",), (_OUTPUT,)),
    ("diagnose", "consolidated normality report", _cmd_diagnose, ("f",), (_OUTPUT, *_MONTE_CARLO)),
    ("sample", "draw reproducible samples of a polynomial", _cmd_sample, ("f",),
     (("--stream", {"type": int, "default": 0, "help": "random stream"}), _OUTPUT, *_MONTE_CARLO)),
    ("w2", "quadratic transport distance between two sample files", _cmd_w2, ("a", "b"), (_OUTPUT,)),
    ("invariance", "law gap between a multilinear polynomial and its Gaussian image",
     _cmd_invariance, ("p",), (_OUTPUT, *_MONTE_CARLO)),
    ("influences", "per-variable influences of a multilinear polynomial", _cmd_influences,
     ("p",), (_OUTPUT,)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoscalc",
        description="Exact Hermite-basis calculus and normality diagnostics "
        "for Gaussian and i.i.d. polynomial inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, inputs, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for input_name in inputs:
            p.add_argument(input_name)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        result = args.handler(args)
        if isinstance(result, SampleSet):
            pieces = _sample_file_pieces(result)
        else:
            pieces = (canonical_json(json_value(result)) + "\n",)
        if args.output:
            with open(args.output, "w") as handle:
                handle.writelines(pieces)
        else:
            _write_stdout(pieces)
    except BasisSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ChaosCalcError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
