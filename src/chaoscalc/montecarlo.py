"""Reproducible sampling, one-dimensional quadratic-transport comparison, and
consolidated normality diagnostics.

RNG contract.  A call ``sample(f, n, seed, stream)`` partitions the index
range into fixed blocks of ``BLOCK_SIZE`` samples; block ``b`` draws from
numpy's SFC64 generator seeded by the pure function

    key(seed, stream, b) = SeedSequence([seed mod 2**64, stream mod 2**32, b])

and the blocks are concatenated in block order.  Workers only parallelize
block evaluation, on at most ``min(workers, blocks, os.cpu_count())`` threads,
so output is bit-identical for every worker count, and regenerating with
equal (seed, stream) reproduces the values exactly.  The Gaussian reference
used by diagnostics is ``sample`` of ``scale * G_1`` on the reserved stream
``GAUSSIAN_REFERENCE_STREAM``.

Every sampled polynomial goes through one encoder (``_Encoder``): a term table
over per-variable one-dimensional families, all of them evaluated by one
monic three-term recurrence (``_recurrence_rows``, the operations of
``algebra.hermite_values``).  A family is data, its coefficients ``k ->
(a_k, b_k)`` and optional per-level norms: Hermite's ``(0, k)`` for chaos
polynomials, and for multilinear ones the law's own, with the float forms of
the ensemble's exact coefficients (``build_ensemble``), each wanted row then
divided by ``sqrt(h_k)``.  A block is evaluated in sub-chunks, each drawn,
tabulated and accumulated into its slice of the output, all in one table
that the block allocates once and every chunk reuses.  ``width`` counts
every row of it: the factor rows, which begin as the transposed draws, and
the rows that hold the row-major draws and then the recurrence's scratch.  A
sub-chunk has ``max(1, CHUNK_CELLS // width)`` rows, so a thread holds about
``CHUNK_CELLS`` values whatever the number of variables, and a process makes
no new multi-MB array per chunk.  Draws are written into the table as the
generator's shaped draws would be; Rademacher signs are unpacked from a
fixed number of raw words per row, through a byte per sign.  Consecutive
chunks draw consecutive rows of the block's one generator, the same stream a
whole-block draw reads, and each output row depends on its own draws alone,
so the chunk size never changes an output bit.

Sample files are text: a header line and one value per line, written as
``repr`` writes it.  ``_sample_file_pieces`` formats them ``PIECE_LINES``
lines at a time with ``_kernels.repr_lines``, whose bytes equal ``repr``'s;
it is the one writer, behind the ``sample`` command.  ``sample`` refuses
values that overflow float64, so a file never holds ``inf`` or ``nan``.
``read_sample_file`` opens a file once.  For a regular file it reads the
header line itself and converts the body in one call to numpy's C text
parser, so neither direction holds the whole file's text; a file the parser
rejects, and one that is not regular (a pipe), is read whole from that open
handle by ``_read_by_line``, which reports its first error.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from ._kernels import accumulate_terms, repr_lines
from .algebra import (
    ChaosPoly,
    JsonResult,
    _parse_int,
    _sort_key,
    expectation,
    hermite_monomial,
    inner_product,
    moment,
)
from .ensembles import InputLaw, MultilinearPoly, build_ensemble, substitute_gaussian
from .errors import ParseError, PreconditionError, as_integer
from .influence import _influence_scan
from .malliavin import gamma_gradient

BLOCK_SIZE = 1 << 16
# table cells (every row ``width`` counts) per sub-chunk of a block; any size
# gives the same bits (see the module docstring)
CHUNK_CELLS = 1 << 18
# sample-file lines formatted and written at a time
PIECE_LINES = 1 << 13
# file-name endings that np.loadtxt opens through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
GENERATOR_ID = "sfc64-block65536"
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
    # SeedSequence refuses negative entropy: the masks map every integer to a key
    key = np.random.SeedSequence([seed & _MASK64, stream & _MASK32, block])
    return np.random.Generator(np.random.SFC64(key))


def _blocks(n: int):
    """(block index, offset, size) tuples covering range(n), made as they are consumed."""
    for block, offset in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, offset, min(BLOCK_SIZE, n - offset)


def _law_sampler(law: InputLaw):
    """``draw(rng, out)``: fills ``out`` with draws of ``law`` in C order, tables built once.

    Gaussian, uniform and discrete draws read the generator as
    ``standard_normal``, ``uniform`` or ``random`` of ``out``'s shape would,
    and round the same way (``uniform`` is ``low + (high - low)·u``), so
    ``out`` holds those bits.  A Rademacher row of ``v`` signs takes
    ``ceil(v / 64)`` words of ``bit_generator.random_raw``, whatever the
    number of rows, so the chunk size never moves a sign: the sign of
    variable ``j`` is ``2·bit - 1`` for bit ``j mod 64``, least significant
    first, of the row's word ``j // 64``, the words read little-endian so
    that the host's byte order does not matter.
    """
    if law.kind == "gaussian":
        return lambda rng, out: rng.standard_normal(out=out)
    if law.kind == "rademacher":
        def draw(rng, out):
            rows, signs = out.shape
            words = rng.bit_generator.random_raw((rows, -(-signs // 64))).astype("<u8", copy=False)
            bits = np.unpackbits(words.view(np.uint8), axis=1, count=signs, bitorder="little")
            np.copyto(out, bits)
            out *= 2.0
            out -= 1.0
        return draw
    if law.kind == "uniform":
        low, span = -math.sqrt(3.0), 2.0 * math.sqrt(3.0)

        def draw(rng, out):
            rng.random(out=out)
            out *= span
            out += low
        return draw
    # discrete, the one kind left
    cumulative = np.cumsum([float(p) for p in law.probabilities])
    cumulative[-1] = 1.0
    points = np.array([float(p) for p in law.points])

    def draw(rng, out):
        rng.random(out=out)
        np.take(points, np.searchsorted(cumulative, out, side="right"), out=out)
    return draw


def _recurrence_rows(x, wanted, table, scratch, coefficients) -> None:
    """``table[row] = p_k(x)`` for each ``(k, row)`` of ``wanted`` (levels >= 2, ascending).

    ``p_0 = 1``, ``p_1 = x`` and ``p_{k+1} = (x - a_k)·p_k - b_k·p_{k-1}``,
    with ``(a_k, b_k) = coefficients(k)``.  Each step rounds the two products
    and then subtracts, the operations of ``algebra.hermite_values``, and
    ``x - a_k`` is skipped when ``a_k`` is 0.  ``scratch[0]`` holds the first
    product; levels that no row wants alternate between ``scratch[1]`` and
    ``scratch[2]``.  The top row may be ``x``'s own: it is written after the
    last read of ``x``.
    """
    product, ring = scratch[0], scratch[1:3]
    rows = dict(wanted)
    prev, cur = 1.0, x
    for k in range(1, wanted[-1][0]):
        a, b = coefficients(k)
        if a:
            np.subtract(x, a, out=product)
            product *= cur
        else:
            np.multiply(x, cur, out=product)
        dest = table[rows[k + 1]] if k + 1 in rows else ring[1] if ring[0] is cur else ring[0]
        np.multiply(prev, b, out=dest)
        np.subtract(product, dest, out=dest)
        prev, cur = cur, dest


# scratch rows the recurrence uses while the draws' rows are free (``_recurrence_rows``)
_SCRATCH_ROWS = 3


class _Encoder:
    """A polynomial in independent inputs, encoded for batched evaluation.

    ``terms`` lists ``(coefficient, ((variable, level), ...))`` in summation
    order, each term's factors in multiplication order.  A block is evaluated
    in one table of ``width`` rows, allocated once and reused by every chunk:

    * one row per distinct (variable, level) factor, the rows that
      ``accumulate_terms`` reads as the 2-D view ``table[:slots, :rows]``.
      Row ``i`` is the ``i``-th variable's transposed draws (``T_1 = x`` in
      every family), which end as its level-1 factor, or as its top level
      when no term uses level 1;
    * the chunk's row-major draws, ``rows × variables`` cells in the rows
      after those, which hold the family's scratch rows once the draws are
      transposed.

    So ``width`` is the factor rows plus the larger of the variable count and
    the scratch rows, and a chunk of ``CHUNK_CELLS // width`` rows fills the
    table.  Every variable's family is the monic recurrence with
    ``(a_k, b_k) = coefficients(k)`` (``_recurrence_rows``), which writes each
    ``(level, row)`` of a plan (levels >= 2) from the draws row; with
    ``norms``, each such row is then divided by ``norms[level]``.
    """

    def __init__(self, terms, law: InputLaw, coefficients, norms=None):
        self.draw = _law_sampler(law)
        self.coefficients = coefficients
        self.norms = norms
        self.variables = tuple(sorted({v for _, factors in terms for v, _ in factors}))
        pos = {v: i for i, v in enumerate(self.variables)}
        levels: dict[int, list[int]] = {}
        for vp, k in sorted({(pos[v], k) for _, factors in terms for v, k in factors}):
            levels.setdefault(vp, []).append(k)
        row_of = {}
        fresh = itertools.count(len(self.variables))
        for vp, ks in levels.items():
            home = ks[0] if ks[0] == 1 else ks[-1]
            for k in ks:
                row_of[vp, k] = vp if k == home else next(fresh)
        self.slots = len(row_of)
        self.plans = [(vp, [(k, row_of[vp, k]) for k in ks if k > 1])
                      for vp, ks in levels.items() if ks[-1] > 1]
        self.coeffs = np.array([float(c) for c, _ in terms], dtype=np.float64)
        self.term_ptr = np.cumsum([0] + [len(factors) for _, factors in terms], dtype=np.int64)
        self.term_slots = np.array(
            [row_of[pos[v], k] for _, factors in terms for v, k in factors], dtype=np.int64
        )
        self.width = self.slots + max(len(self.variables), _SCRATCH_ROWS if self.plans else 0)

    def evaluate_block(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with one block's values, ``CHUNK_CELLS // width`` rows at a time."""
        if not self.variables:
            out[:] = self.coeffs.sum()
            return
        step = max(1, CHUNK_CELLS // self.width)
        table = np.empty((self.width, min(step, out.shape[0])))
        for start in range(0, out.shape[0], step):
            self._evaluate_chunk(rng, table, out[start : start + step])

    def _evaluate_chunk(self, rng: np.random.Generator, table: np.ndarray, chunk: np.ndarray) -> None:
        # drawn row by row, as a whole-block draw reads the stream, then transposed
        rows, nvars = chunk.shape[0], len(self.variables)
        draws = table[self.slots :].reshape(-1)[: rows * nvars].reshape(rows, nvars)
        self.draw(rng, draws)
        view = table[:, :rows]
        np.copyto(view[:nvars], draws.T)
        scratch = list(view[self.slots : self.slots + _SCRATCH_ROWS])
        for vp, wanted in self.plans:
            _recurrence_rows(view[vp], wanted, view, scratch, self.coefficients)
            if self.norms:
                for k, row in wanted:
                    view[row] /= self.norms[k]
        accumulate_terms(view[: self.slots], self.coeffs, self.term_ptr, self.term_slots, out=chunk)


def _run_blocks(encoder: _Encoder, n: int, seed: int, stream: int, workers: int) -> np.ndarray:
    # allocated before any block is scheduled, so an impossible n fails at once
    out = np.empty(n)

    def job(span):
        block, offset, size = span
        # values that overflow are refused by ``sample``, not warned about; the
        # error state is per thread, so it is set here
        with np.errstate(over="ignore", invalid="ignore"):
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
    """``n`` independent draws of the polynomial, deterministic in (seed, stream).

    Draws whose values overflow float64 are a ``PreconditionError`` that
    names the first of them."""
    n = as_integer(n, "sample size must be >= 1", 1)
    seed = as_integer(seed, "seed must be an integer")
    stream = as_integer(stream, "stream must be an integer")
    workers = as_integer(workers, "worker count must be >= 1", 1)
    if isinstance(f, ChaosPoly):
        terms = f.terms
        # Hermite's family: a_k = 0 and b_k = k
        encoder = _Encoder(
            [(terms[idx], idx) for idx in sorted(terms, key=_sort_key)],
            InputLaw.gaussian(),
            lambda k: (0, k),
        )
    elif isinstance(f, MultilinearPoly):
        ensemble = build_ensemble(f.law, f.max_level)
        steps = [(float(a), float(b)) for a, b in zip(ensemble.a, ensemble.b)]
        # T_k = p_k / sqrt(h_k), the monic rows of the law's own recurrence
        norms = [math.sqrt(float(h)) for h in ensemble.norms_sq]
        # MultilinearPoly keeps its terms in canonical order, the summation order
        encoder = _Encoder([(c, t) for t, c in f.terms.items()], f.law, steps.__getitem__, norms)
    else:
        raise TypeError(f"cannot sample {type(f).__name__}")
    values = _run_blocks(encoder, n, seed, stream, workers)
    # the min and the max are nan if any value is, and infinite if any is
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        first = int(np.flatnonzero(~np.isfinite(values))[0])
        raise PreconditionError(
            f"draw {first} is {float(values[first])!r}: the values overflow float64"
        )
    return SampleSet(
        values=values,
        seed=seed,
        stream=stream,
        generator_id=GENERATOR_ID,
    )


# -- sample files ---------------------------------------------------------------


def _sample_file_pieces(sample_set: SampleSet):
    """Sample-file text in pieces: a ``# seed=.. stream=.. generator=..`` header
    line, then each value as ``repr`` writes it, one a line, formatted by
    ``repr_lines`` at most ``PIECE_LINES`` lines a piece."""
    yield (
        f"# seed={sample_set.seed} stream={sample_set.stream} "
        f"generator={sample_set.generator_id}\n"
    )
    values = sample_set.values
    for start in range(0, values.shape[0], PIECE_LINES):
        yield repr_lines(values[start : start + PIECE_LINES])


def read_sample_file(path) -> SampleSet:
    """Read a sample file: an optional ``#`` header line, then one value per line.

    The file is opened once.  A regular file named by a ``str`` or
    ``os.PathLike`` path has its header line read from that handle and its
    body converted in one call to numpy's C text parser (``np.loadtxt`` on
    the path, which skips blank and whitespace-only lines), with no text,
    list of lines or list of floats of the whole file held.  Its values are
    ``float`` of each line, bit for bit.  The result is taken when it is one
    column of finite values and the path still names the file the handle
    holds, unchanged.  Anything else is read whole from the open handle by
    ``_read_by_line``, the one error reporter: a bad header field, a blank
    line 1, a bad value, two values on a line, a byte that does not decode,
    a NaN or an infinity, a file name that numpy would open through a
    decompressor, a 0-byte file (an empty sample with the default header
    fields), and any file that is not regular (a pipe, say) or is named by a
    bytes path or a file descriptor.  A bad or non-finite value is a
    ``ParseError`` that names its line, or line 1 for a header field.
    """
    with open(path) as handle:
        if isinstance(handle.name, str) and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            try:
                loaded = _read_regular(handle)
            except ValueError:
                loaded = None
            if loaded is not None:
                return loaded
            handle.seek(0)
        return _read_by_line(handle.read())


def _file_version(status: os.stat_result) -> tuple:
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _read_regular(handle) -> SampleSet | None:
    """``read_sample_file``'s fast path on a regular file's fresh handle; ``None``
    (or a ``ValueError``) leaves the file to ``_read_by_line``."""
    version = _file_version(os.fstat(handle.fileno()))
    first = handle.readline()
    seed, stream, generator = _header_fields(first)
    header = first.startswith("#")
    if not (header or first.strip()) or handle.name.endswith(_COMPRESSED_SUFFIXES):
        return None
    if header and not any(map(str.strip, handle)):
        # an empty body, which loadtxt would warn about
        values = np.empty((0, 1))
    else:
        values = np.loadtxt(
            # joined to ".", so never a URL that numpy would fetch
            os.path.join(os.curdir, handle.name),
            dtype=np.float64,
            comments=None,
            skiprows=int(header),
            ndmin=2,
            encoding=handle.encoding,
        )
        # loadtxt opened the path again: its body must be the header's file
        if _file_version(os.stat(handle.name)) != version:
            return None
    if values.shape[1] != 1 or not np.isfinite(values).all():
        return None
    return SampleSet(values=values[:, 0], seed=seed, stream=stream, generator_id=generator)


def _header_fields(line: str) -> tuple[int, int, str]:
    """``(seed, stream, generator)`` of a ``#`` header line; the defaults for any
    other line.  Other fields are ignored; a repeated one is a ``ParseError``."""
    fields = {}
    if line.startswith("#"):
        for token in line[1:].split():
            key, _, value = token.partition("=")
            if key in fields:
                raise ParseError(f"sample file line 1: repeated {key}")
            if key in ("seed", "stream"):
                fields[key] = _parse_field(_parse_int, value, 1, key)
            elif key == "generator":
                fields[key] = value
    return fields.get("seed", 0), fields.get("stream", 0), fields.get("generator", "unknown")


def _read_by_line(text: str) -> SampleSet:
    """``read_sample_file``'s whole-text path: the file's text, parsed one line at a time.

    The caller decodes the text whole, so a byte that does not decode is
    named by its offset in the file, not in the chunk the C parser had
    reached.  The first error wins in this order: a byte that does not
    decode, a bad header field, the first bad value, the first non-finite
    value.  A 0-byte file is an empty sample with the default header fields.
    """
    if not text:
        return SampleSet(np.empty(0), *_header_fields(text))
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
            if line.strip() and not math.isfinite(float(line.strip()))
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
    # both are this call's own sorted copies: subtract and square in place
    np.subtract(xs, ys, out=xs)
    np.square(xs, out=xs)
    return float(np.sqrt(np.mean(xs)))


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
