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
(``EnsemblePoly.eval``) for multilinear ones.  A block is evaluated in
sub-chunks, each drawn, tabulated and accumulated into its slice of the
output.  A sub-chunk has ``max(1, CHUNK_CELLS // width)`` rows, where
``width`` is the polynomial's draw columns plus its factor rows, so the draws
and the factor table of one chunk hold about ``CHUNK_CELLS`` values per
thread whatever the number of variables.  Consecutive chunks draw
consecutive rows of the block's one generator, the same stream a
whole-block draw reads, and each output row depends on its own draws alone,
so the chunk size never changes an output bit.

Sample files are text: a header line and one ``repr`` per line.
``write_sample_file`` writes them block by block and ``read_sample_file``
converts the body straight from the open file, so neither holds the whole
file's text.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from ._kernels import accumulate_terms
from .algebra import (
    ChaosPoly,
    JsonResult,
    _parse_int,
    _sort_key,
    expectation,
    hermite_monomial,
    hermite_values,
    inner_product,
    moment,
)
from .ensembles import InputLaw, MultilinearPoly, build_ensemble, substitute_gaussian
from .errors import ParseError, PreconditionError, as_integer
from .influence import _influence_scan
from .malliavin import gamma_gradient

BLOCK_SIZE = 1 << 16
# table cells (draws plus factor rows) per sub-chunk of a block; any size gives
# the same bits (see the module docstring)
CHUNK_CELLS = 1 << 19
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

    def __post_init__(self):
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | ((stream & _MASK32) << 32) | (block & _MASK32)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n: int):
    """(block index, offset, size) tuples covering range(n), made as they are consumed."""
    for block, offset in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, offset, min(BLOCK_SIZE, n - offset)


def _law_sampler(law: InputLaw):
    """``draw(rng, shape)``: draws of ``law``, with its tables built once."""
    if law.kind == "gaussian":
        return lambda rng, shape: rng.standard_normal(shape)
    if law.kind == "rademacher":
        return lambda rng, shape: rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if law.kind == "uniform":
        half = math.sqrt(3.0)
        return lambda rng, shape: rng.uniform(-half, half, size=shape)
    # discrete, the one kind left
    cumulative = np.cumsum([float(p) for p in law.probabilities])
    cumulative[-1] = 1.0
    points = np.array([float(p) for p in law.points])
    return lambda rng, shape: points[np.searchsorted(cumulative, rng.random(shape), side="right")]


def _hermite_rows(column: np.ndarray, levels: list[int]) -> list[np.ndarray]:
    values = hermite_values(column, levels[-1])
    return [values[k] for k in levels]


class _Encoder:
    """A polynomial in independent inputs, encoded for batched evaluation.

    ``terms`` lists ``(coefficient, ((variable, level), ...))`` in summation
    order, each term's factors in multiplication order.  A chunk draws one
    column per variable from ``law`` (``_law_sampler``); ``family(column, levels)``
    evaluates the variable's one-dimensional polynomials at just the levels
    that terms use, and ``accumulate_terms`` sums the term table over those
    rows.  A chunk's ``width`` counts its draw columns and factor rows.
    """

    def __init__(self, terms, law: InputLaw, family):
        self.draw = _law_sampler(law)
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
        # rows are listed in slot order, which is by variable, then level
        self.levels: dict[int, list[int]] = {}
        for vp, k in slot_keys:
            self.levels.setdefault(vp, []).append(k)
        self.width = len(self.variables) + len(slot_keys)

    def evaluate_block(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with one block's values, ``CHUNK_CELLS // width`` rows at a time."""
        if not self.variables:
            out[:] = self.coeffs.sum()
            return
        step = max(1, CHUNK_CELLS // self.width)
        for start in range(0, out.shape[0], step):
            self._evaluate_chunk(rng, out[start : start + step])

    def _evaluate_chunk(self, rng: np.random.Generator, chunk: np.ndarray) -> None:
        # a method, so one chunk's tables are freed before the next chunk draws;
        # drawn row by row, as a whole-block draw reads the stream, then tabulated by column
        columns = self.draw(rng, (chunk.shape[0], len(self.variables))).T.copy()
        rows = [row for vp, levels in self.levels.items() for row in self.family(columns[vp], levels)]
        accumulate_terms(rows, self.coeffs, self.term_ptr, self.term_slots, out=chunk)


def _run_blocks(encoder: _Encoder, n: int, seed: int, stream: int, workers: int) -> np.ndarray:
    # allocated before any block is scheduled, so an impossible n fails at once
    out = np.empty(n)

    def job(span):
        block, offset, size = span
        encoder.evaluate_block(_block_rng(seed, stream, block), out[offset : offset + size])

    threads = min(workers, -(-n // BLOCK_SIZE), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(job, _blocks(n)))
    else:
        for span in _blocks(n):
            job(span)
    return out


def sample(
    f: ChaosPoly | MultilinearPoly,
    n: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> SampleSet:
    """``n`` independent draws of the polynomial, deterministic in (seed, stream)."""
    n = as_integer(n, "sample size must be >= 1", 1)
    seed = as_integer(seed, "seed must be an integer")
    stream = as_integer(stream, "stream must be an integer")
    workers = as_integer(workers, "worker count must be >= 1", 1)
    if isinstance(f, ChaosPoly):
        terms = f.terms
        encoder = _Encoder(
            [(terms[idx], idx) for idx in sorted(terms, key=_sort_key)],
            InputLaw.gaussian(),
            _hermite_rows,
        )
    elif isinstance(f, MultilinearPoly):
        ensemble = build_ensemble(f.law, f.max_level)
        ordered = sorted((len(t), sorted(t), c) for t, c in f.terms.items())
        encoder = _Encoder(
            [(c, factors) for _, factors, c in ordered],
            f.law,
            lambda column, levels: [ensemble.polys[k].eval(column) for k in levels],
        )
    else:
        raise TypeError(f"cannot sample {type(f).__name__}")
    values = _run_blocks(encoder, n, seed, stream, workers)
    return SampleSet(
        values=values,
        seed=seed,
        stream=stream,
        generator_id=GENERATOR_ID,
    )


# -- sample files ---------------------------------------------------------------


def _sample_file_pieces(sample_set: SampleSet):
    """Sample-file text in pieces: the header line, then one ``BLOCK_SIZE`` slice of lines at a time."""
    yield (
        f"# seed={sample_set.seed} stream={sample_set.stream} "
        f"generator={sample_set.generator_id}\n"
    )
    values = sample_set.values
    for start in range(0, values.shape[0], BLOCK_SIZE):
        yield "\n".join(map(repr, values[start : start + BLOCK_SIZE].tolist())) + "\n"


def format_sample_file(sample_set: SampleSet) -> str:
    """Sample-file text: a ``# seed=.. stream=.. generator=..`` header, then one ``repr`` per line.

    The lines are joined one ``BLOCK_SIZE`` slice at a time, so no list of
    every value's string is held at once.
    """
    return "".join(_sample_file_pieces(sample_set))


def write_sample_file(sample_set: SampleSet, path) -> None:
    """Write ``format_sample_file``'s text one block at a time, never the whole text at once."""
    with open(path, "w") as handle:
        handle.writelines(_sample_file_pieces(sample_set))


def read_sample_file(path) -> SampleSet:
    """Read a sample file: an optional ``#`` header line, then one value per line.

    The body is converted straight from the open file into a float64 array,
    with no text, list of lines or list of floats of the whole file held.  A
    file the first pass cannot convert (a blank line, say) is streamed once
    more with the blank lines after the first line skipped; a clean file
    never pays for that filter.  When that fails too (a bad header field, a
    blank first line, a bad line, a byte that does not decode) or a value is
    NaN or infinite, ``_read_by_line`` reads the file again, and a bad or
    non-finite value is a ``ParseError`` that names its line, or line 1 for a
    header field.
    """
    for body_lines in (iter, lambda lines: filter(str.strip, lines)):
        try:
            with open(path) as handle:
                first = handle.readline()
                seed, stream, generator = _header_fields(first)
                rest = body_lines(handle)
                body = rest if first.startswith("#") else itertools.chain([first], rest)
                values = np.fromiter(map(float, body), np.float64)
        except ValueError:
            continue
        if np.isfinite(values).all():
            return SampleSet(values=values, seed=seed, stream=stream, generator_id=generator)
        break
    return _read_by_line(path)


def _header_fields(line: str) -> tuple[int, int, str]:
    """``(seed, stream, generator)`` of a ``#`` header line; the defaults for any other line."""
    seed = stream = 0
    generator = "unknown"
    if line.startswith("#"):
        for token in line[1:].split():
            key, _, value = token.partition("=")
            if key == "seed":
                seed = _parse_field(_parse_int, value, 1, key)
            elif key == "stream":
                stream = _parse_field(_parse_int, value, 1, key)
            elif key == "generator":
                generator = value
    return seed, stream, generator


def _read_by_line(path) -> SampleSet:
    """``read_sample_file``'s error path: the whole text, parsed one line at a time.

    The text is decoded whole, so a byte that does not decode is named by its
    offset in the file, not in the chunk a streamed read had reached.  The
    first error wins in this order: a byte that does not decode, a bad header
    field, the first bad value, the first non-finite value.
    """
    with open(path) as handle:
        text = handle.read()
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    seed, stream, generator = _header_fields(lines[0])
    start = 2 if lines[0].startswith("#") else 1
    body = lines[start - 1 :]
    values = np.fromiter(
        (
            _parse_field(float, line.strip(), lineno, "value")
            for lineno, line in enumerate(body, start=start)
            if lineno == 1 or line.strip()
        ),
        np.float64,
    )
    if not np.isfinite(values).all():
        lineno, line = next(
            (lineno, line)
            for lineno, line in enumerate(body, start=start)
            if line.strip() and not math.isfinite(float(line))
        )
        raise ParseError(f"sample file line {lineno}: value {line.strip()!r} is not finite")
    return SampleSet(values=values, seed=seed, stream=stream, generator_id=generator)


def _parse_field(convert, text: str, lineno: int, what: str):
    """``convert(text)``, or a ``ParseError`` that names the line and the field."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"sample file line {lineno}: bad {what} {text!r}") from None


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
    return moment(centered, 4) / variance**2 - 3


@dataclass(frozen=True)
class NormalityReport(JsonResult):
    """Finite-size readout of the asymptotic-normality criteria for one polynomial."""

    variance: Fraction
    excess_kurtosis: Fraction
    var_gamma: Fraction
    rho: dict[int, float]
    w2_to_gaussian: float
    inputs: dict


def normality_report(f: ChaosPoly, n_samples: int, seed: int, workers: int = 1) -> NormalityReport:
    """Variance, excess kurtosis, carre-du-champ variance, influence values up
    to degree floor(deg/2) (each the running max of ``_influence_scan``), and
    the empirical distance to a matched Gaussian."""
    n_samples = as_integer(n_samples, "sample size must be >= 1", 1)
    seed = as_integer(seed, "seed must be an integer")
    workers = as_integer(workers, "worker count must be >= 1", 1)
    centered = f - ChaosPoly.constant(expectation(f))
    variance = inner_product(centered, centered)
    if variance == 0:
        raise PreconditionError("normality diagnostics need a non-deterministic polynomial")
    rho = {r.q: r.value for r in _influence_scan(f, max(f.degree or 0, 2) // 2)}
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
