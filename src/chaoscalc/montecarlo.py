"""Reproducible sampling, one-dimensional quadratic-transport comparison, and
consolidated normality diagnostics.

RNG contract.  The generator is counter-based (numpy's Philox 4x64).  A call
``sample(f, n, seed, stream)`` partitions the index range into fixed blocks of
``BLOCK_SIZE`` samples; block ``b`` draws from a Philox generator keyed by the
pure function

    key(seed, stream, b) = ((seed mod 2**64) << 64) | ((stream mod 2**32) << 32) | b

and the blocks are concatenated in block order.  Workers only parallelize
block evaluation, on at most ``min(workers, blocks, os.cpu_count())`` threads,
so output is bit-identical for every worker count, and regenerating with
equal (seed, stream) reproduces the values exactly.  The Gaussian reference
used by diagnostics is ``sample`` of ``scale * G_1`` on the reserved stream
``GAUSSIAN_REFERENCE_STREAM``.

Every sampled polynomial goes through one encoder (``_Encoder``): a term table
over per-variable one-dimensional families, the Hermite recurrence
(``algebra.hermite_values``) for chaos polynomials and the ensemble's ``T_k``
(``EnsemblePoly.eval``) for multilinear ones.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from ._kernels import accumulate_terms
from .algebra import (
    ChaosPoly,
    MultiIndex,
    expectation,
    hermite_monomial,
    hermite_values,
    inner_product,
    mul,
)
from .ensembles import InputLaw, MultilinearPoly, build_ensemble, substitute_gaussian
from .errors import ParseError, PreconditionError
from .influence import rho_q
from .malliavin import gamma_gradient

BLOCK_SIZE = 1 << 16
GENERATOR_ID = "philox4x64-block65536"
GAUSSIAN_REFERENCE_STREAM = 2**31 - 1

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


@dataclass(frozen=True)
class SampleSet:
    """Array of draws plus everything needed to regenerate it bit-identically."""

    values: np.ndarray
    seed: int
    stream: int
    generator_id: str
    source_description: str

    def __post_init__(self):
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | ((stream & _MASK32) << 32) | (block & _MASK32)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n: int) -> list[tuple[int, int, int]]:
    """(block index, offset, size) tuples covering range(n)."""
    out = []
    block = 0
    offset = 0
    while offset < n:
        size = min(BLOCK_SIZE, n - offset)
        out.append((block, offset, size))
        block += 1
        offset += size
    return out


def _draw_law(rng: np.random.Generator, law: InputLaw, shape) -> np.ndarray:
    if law.kind == "gaussian":
        return rng.standard_normal(shape)
    if law.kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if law.kind == "uniform":
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, size=shape)
    if law.kind == "discrete":
        cumulative = np.cumsum([float(p) for p in law.probabilities])
        cumulative[-1] = 1.0
        u = rng.random(shape)
        picks = np.searchsorted(cumulative, u, side="right")
        points = np.array([float(p) for p in law.points])
        return points[picks]
    raise PreconditionError(f"unknown law kind {law.kind!r}")


def _hermite_rows(column: np.ndarray, levels: list[int]) -> list[np.ndarray]:
    values = hermite_values(column, levels[-1])
    return [values[k] for k in levels]


class _Encoder:
    """A polynomial in independent inputs, encoded for batched evaluation.

    ``terms`` lists ``(coefficient, ((variable, level), ...))`` in summation
    order, each term's factors in multiplication order.  A block draws one
    column per variable from ``law`` (``_draw_law``); ``family(column, levels)``
    evaluates the variable's one-dimensional polynomials at just the levels
    that terms use, and ``accumulate_terms`` sums the term table over those
    rows.
    """

    def __init__(self, terms, law: InputLaw, family):
        self.law = law
        self.family = family
        self.variables = tuple(sorted({v for _, factors in terms for v, _ in factors}))
        pos = {v: i for i, v in enumerate(self.variables)}
        slot_keys = sorted({(pos[v], k) for _, factors in terms for v, k in factors})
        slot_of = {key: s for s, key in enumerate(slot_keys)}
        self.coeffs = np.array([float(c) for c, _ in terms], dtype=np.float64)
        self.term_ptr = np.cumsum([0] + [len(factors) for _, factors in terms], dtype=np.int64)
        self.term_slots = np.array(
            [slot_of[pos[v], k] for _, factors in terms for v, k in factors], dtype=np.int64
        )
        # rows are stacked in slot order, which is by variable, then level
        self.levels: dict[int, list[int]] = {}
        for vp, k in slot_keys:
            self.levels.setdefault(vp, []).append(k)

    def evaluate_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if not self.variables:
            return np.full(size, self.coeffs.sum())
        columns = _draw_law(rng, self.law, (size, len(self.variables))).T.copy()
        values = np.array(
            [row for vp, levels in self.levels.items() for row in self.family(columns[vp], levels)]
        )
        return accumulate_terms(values, self.coeffs, self.term_ptr, self.term_slots)


def _run_blocks(encoder: _Encoder, n: int, seed: int, stream: int, workers: int) -> np.ndarray:
    spans = _blocks(n)
    out = np.empty(n)

    def job(span):
        block, offset, size = span
        rng = _block_rng(seed, stream, block)
        return offset, size, encoder.evaluate_block(rng, size)

    threads = min(workers, len(spans), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, spans))
    else:
        results = [job(span) for span in spans]
    for offset, size, chunk in results:
        out[offset : offset + size] = chunk
    return out


def sample(
    f: ChaosPoly | MultilinearPoly,
    n: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> SampleSet:
    """``n`` independent draws of the polynomial, deterministic in (seed, stream)."""
    if n < 1:
        raise PreconditionError(f"sample size must be >= 1, got {n}")
    if isinstance(f, ChaosPoly):
        terms = f.terms
        encoder = _Encoder(
            [(terms[idx], idx.entries) for idx in sorted(terms, key=MultiIndex.sort_key)],
            InputLaw.gaussian(),
            _hermite_rows,
        )
        kind = "chaos-poly"
    elif isinstance(f, MultilinearPoly):
        ensemble = build_ensemble(f.law, f.max_level)
        ordered = sorted((len(t), sorted(t), c) for t, c in f.terms.items())
        encoder = _Encoder(
            [(c, factors) for _, factors, c in ordered],
            f.law,
            lambda column, levels: [ensemble.polys[k].eval(column) for k in levels],
        )
        kind = f"multilinear({f.law.kind})"
    else:
        raise TypeError(f"cannot sample {type(f).__name__}")
    values = _run_blocks(encoder, n, seed, stream, workers)
    return SampleSet(
        values=values,
        seed=seed,
        stream=stream,
        generator_id=GENERATOR_ID,
        source_description=f"{kind} terms={len(f.terms)} vars={list(encoder.variables)}",
    )


# -- sample files ---------------------------------------------------------------


def format_sample_file(sample_set: SampleSet) -> str:
    """Sample-file text: a ``# seed=.. stream=.. generator=..`` header, then one ``repr`` per line."""
    header = (
        f"# seed={sample_set.seed} stream={sample_set.stream} "
        f"generator={sample_set.generator_id}"
    )
    return "\n".join([header, *map(repr, sample_set.values.tolist())]) + "\n"


def write_sample_file(sample_set: SampleSet, path) -> None:
    with open(path, "w") as handle:
        handle.write(format_sample_file(sample_set))


def read_sample_file(path) -> SampleSet:
    """Read a sample file: an optional ``#`` header line, then one value per line.

    Blank lines after the first line are skipped.  The body is converted in one
    ``map(float, ...)``; when that fails, the lines are parsed one by one so
    that the ``ParseError`` names the first bad line.
    """
    seed = stream = 0
    generator = "unknown"
    with open(path) as handle:
        text = handle.read()
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    start = 1
    if lines[0].startswith("#"):
        for token in lines[0][1:].split():
            key, _, value = token.partition("=")
            if key == "seed":
                seed = int(value)
            elif key == "stream":
                stream = int(value)
            elif key == "generator":
                generator = value
        start = 2
    body = lines[start - 1 :]
    try:
        values = list(map(float, body))
    except ValueError:
        values = [
            _parse_sample_line(line, lineno)
            for lineno, line in enumerate(body, start=start)
            if lineno == 1 or line.strip()
        ]
    return SampleSet(
        values=np.array(values, dtype=np.float64),
        seed=seed,
        stream=stream,
        generator_id=generator,
        source_description=f"loaded from {path}",
    )


def _parse_sample_line(line: str, lineno: int) -> float:
    try:
        return float(line.strip())
    except ValueError:
        raise ParseError(f"sample file line {lineno}: bad value {line.strip()!r}") from None


# -- distances and exact diagnostics ---------------------------------------------


def w2_1d(a: SampleSet | np.ndarray, b: SampleSet | np.ndarray) -> float:
    """Empirical quadratic transport cost between two one-dimensional samples.

    Sorts both; unequal sizes interpolate the smaller sample's quantile
    function at the larger sample's plotting positions.
    """
    xs = np.sort(np.asarray(a.values if isinstance(a, SampleSet) else a, dtype=np.float64))
    ys = np.sort(np.asarray(b.values if isinstance(b, SampleSet) else b, dtype=np.float64))
    if xs.size == 0 or ys.size == 0:
        raise PreconditionError("cannot compare empty sample sets")
    if xs.size != ys.size:
        if xs.size < ys.size:
            xs, ys = ys, xs
        # xs is the larger sample; interpolate the smaller at its positions
        pos_large = (np.arange(xs.size) + 0.5) / xs.size
        pos_small = (np.arange(ys.size) + 0.5) / ys.size
        ys = np.interp(pos_large, pos_small, ys)
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def var_gamma(f: ChaosPoly) -> Fraction:
    """Exact variance of the carre du champ of ``(f, f)``; zero iff degree <= 1."""
    gamma = gamma_gradient(f, f)
    return inner_product(gamma, gamma) - expectation(gamma) ** 2


def excess_kurtosis(f: ChaosPoly) -> Fraction:
    """Exact ``E[(f - Ef)**4] / Var(f)**2 - 3``."""
    centered = f - ChaosPoly.constant(expectation(f))
    variance = inner_product(centered, centered)
    if variance == 0:
        raise PreconditionError("excess kurtosis needs positive variance")
    square = mul(centered, centered)
    fourth = inner_product(square, square)
    return fourth / variance**2 - 3


@dataclass(frozen=True)
class NormalityReport:
    """Finite-size readout of the asymptotic-normality criteria for one polynomial."""

    variance: Fraction
    excess_kurtosis: Fraction
    var_gamma: Fraction
    rho: dict[int, float]
    w2_to_gaussian: float
    inputs: dict

    def to_json_dict(self) -> dict:
        return {
            "variance": float(self.variance),
            "variance_exact": str(self.variance),
            "excess_kurtosis": float(self.excess_kurtosis),
            "excess_kurtosis_exact": str(self.excess_kurtosis),
            "var_gamma": float(self.var_gamma),
            "var_gamma_exact": str(self.var_gamma),
            "rho": {str(q): v for q, v in sorted(self.rho.items())},
            "w2_to_gaussian": self.w2_to_gaussian,
            "inputs": self.inputs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def normality_report(
    f: ChaosPoly,
    n_samples: int,
    seed: int,
    extra_vars: int | None = None,
    workers: int = 1,
) -> NormalityReport:
    """Variance, excess kurtosis, carre-du-champ variance, influence values up
    to degree floor(deg/2), and the empirical distance to a matched Gaussian."""
    centered = f - ChaosPoly.constant(expectation(f))
    variance = inner_product(centered, centered)
    if variance == 0:
        raise PreconditionError("normality diagnostics need a non-deterministic polynomial")
    degree = f.degree or 0
    rho: dict[int, float] = {}
    for q in range(1, max(1, degree // 2) + 1):
        rho[q] = rho_q(f, q, extra_vars).value
    observed = sample(f, n_samples, seed, stream=0, workers=workers)
    reference = sample(
        hermite_monomial({1: 1}, math.sqrt(float(variance))),
        n_samples, seed, GAUSSIAN_REFERENCE_STREAM, workers,
    )
    shifted = observed.values - float(expectation(f))
    w2 = w2_1d(shifted, reference.values)
    return NormalityReport(
        variance=variance,
        excess_kurtosis=excess_kurtosis(f),
        var_gamma=var_gamma(f),
        rho=rho,
        w2_to_gaussian=w2,
        # worker count is deliberately not echoed: it cannot affect the values
        inputs={
            "n_samples": n_samples,
            "seed": seed,
            "stream": 0,
            "reference_stream": GAUSSIAN_REFERENCE_STREAM,
            "extra_vars": extra_vars,
            "generator": GENERATOR_ID,
        },
    )


def invariance_gap(
    p: MultilinearPoly, n_samples: int, seed: int, workers: int = 1
) -> float:
    """Empirical transport distance between the law of ``p`` under its inputs
    and under independent standard Gaussians (small iff no variable dominates)."""
    original = sample(p, n_samples, seed, stream=0, workers=workers)
    image = sample(
        substitute_gaussian(p), n_samples, seed,
        stream=GAUSSIAN_REFERENCE_STREAM, workers=workers,
    )
    return w2_1d(original, image)
