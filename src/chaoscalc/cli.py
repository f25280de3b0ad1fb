"""Command-line front end.

Results are machine-readable JSON (or the line-oriented sample-file format for
``sample``) on standard output; all diagnostics go to standard error.  Exit
codes: 0 success, 2 parse/precondition/input errors or an ``--output`` file
that cannot be written, 3 resource caps exceeded or memory that cannot be
allocated.
Repeated invocations with identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algebra import ChaosPoly, canonical_json, poly_from_json, poly_to_json
from .decompose import canonical_quadratic, iterate_decomposition
from .ensembles import MultilinearPoly, multilinear_influences
from .errors import BasisSizeError, ChaosCalcError, ParseError, PreconditionError
from .influence import rho_q, strongest_influence
from .malliavin import gamma_gradient, ou_generator
from .montecarlo import (
    format_sample_file,
    invariance_gap,
    normality_report,
    read_sample_file,
    sample,
    w2_1d,
)


def _load_poly(path: str) -> ChaosPoly:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return poly_from_json(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_multilinear(path: str) -> MultilinearPoly:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return MultilinearPoly.from_json(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _json_line(data) -> str:
    return canonical_json(data) + "\n"


def _cmd_gamma(args) -> str:
    f = _load_poly(args.f)
    g = _load_poly(args.g)
    return poly_to_json(gamma_gradient(f, g)) + "\n"


def _cmd_generator(args) -> str:
    f = _load_poly(args.f)
    return poly_to_json(ou_generator(f)) + "\n"


def _cmd_rho(args) -> str:
    f = _load_poly(args.f)
    result = rho_q(f, args.q, args.extra_vars)
    return result.to_json() + "\n"


def _cmd_strongest(args) -> str:
    f = _load_poly(args.f)
    result = strongest_influence(f, args.threshold, args.extra_vars)
    return result.to_json() + "\n"


def _cmd_decompose(args) -> str:
    f = _load_poly(args.f)
    trace = iterate_decomposition(f, args.threshold, args.max_steps, args.extra_vars)
    return trace.to_json() + "\n"


def _cmd_canonical2(args) -> str:
    f = _load_poly(args.f)
    return canonical_quadratic(f).to_json() + "\n"


def _cmd_diagnose(args) -> str:
    f = _load_poly(args.f)
    report = normality_report(
        f, args.samples, args.seed, extra_vars=args.extra_vars, workers=args.workers
    )
    return report.to_json() + "\n"


def _cmd_sample(args) -> str:
    f = _load_poly(args.f)
    result = sample(f, args.samples, args.seed, stream=args.stream, workers=args.workers)
    return format_sample_file(result)


def _cmd_w2(args) -> str:
    a = read_sample_file(args.a)
    b = read_sample_file(args.b)
    return _json_line({"w2": w2_1d(a, b), "n_a": len(a), "n_b": len(b)})


def _cmd_invariance(args) -> str:
    p = _load_multilinear(args.p)
    gap = invariance_gap(p, args.samples, args.seed, workers=args.workers)
    return _json_line({"gap": gap, "n_samples": args.samples, "seed": args.seed})


def _cmd_influences(args) -> str:
    p = _load_multilinear(args.p)
    influences = multilinear_influences(p)
    return _json_line(
        {str(var): {"value": float(x), "exact": str(x)} for var, x in influences.items()}
    )


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoscalc",
        description="Exact Hermite-basis calculus and normality diagnostics "
        "for Gaussian and i.i.d. polynomial inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mc=False):
        p.add_argument("--output", default=None, help="write result to a file instead of stdout")
        if mc:
            p.add_argument("--samples", type=int, default=100_000)
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--workers", type=positive_int, default=1)

    p = sub.add_parser("gamma", help="carre du champ of two polynomial files")
    p.add_argument("f")
    p.add_argument("g")
    common(p)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("L", help="apply the Ornstein-Uhlenbeck generator")
    p.add_argument("f")
    common(p)
    p.set_defaults(handler=_cmd_generator)

    p = sub.add_parser("rho", help="directional influence of a given degree")
    p.add_argument("f")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--extra-vars", type=int, default=None, dest="extra_vars")
    common(p)
    p.set_defaults(handler=_cmd_rho)

    p = sub.add_parser("strongest", help="least degree whose influence clears the threshold")
    p.add_argument("f")
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--extra-vars", type=int, default=None, dest="extra_vars")
    common(p)
    p.set_defaults(handler=_cmd_strongest)

    p = sub.add_parser("decompose", help="iterated strongest-influence decomposition")
    p.add_argument("f")
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--max-steps", type=int, default=16, dest="max_steps")
    p.add_argument("--extra-vars", type=int, default=None, dest="extra_vars")
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("canonical2", help="canonical form of a degree-<=2 polynomial")
    p.add_argument("f")
    common(p)
    p.set_defaults(handler=_cmd_canonical2)

    p = sub.add_parser("diagnose", help="consolidated normality report")
    p.add_argument("f")
    p.add_argument("--extra-vars", type=int, default=None, dest="extra_vars")
    common(p, mc=True)
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("sample", help="draw reproducible samples of a polynomial")
    p.add_argument("f")
    p.add_argument("--stream", type=int, default=0)
    common(p, mc=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("w2", help="quadratic transport distance between two sample files")
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(handler=_cmd_w2)

    p = sub.add_parser("invariance", help="law gap between a multilinear polynomial and its Gaussian image")
    p.add_argument("p")
    common(p, mc=True)
    p.set_defaults(handler=_cmd_invariance)

    p = sub.add_parser("influences", help="per-variable influences of a multilinear polynomial")
    p.add_argument("p")
    common(p)
    p.set_defaults(handler=_cmd_influences)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
        if args.output:
            Path(args.output).write_text(text)
    except BasisSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ParseError, PreconditionError, ChaosCalcError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
