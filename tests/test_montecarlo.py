"""Sampling determinism, transport-distance estimator properties, exact fourth-
moment diagnostics, and the consolidated normality report."""

import hashlib
import math
import os
import random
import re
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import (
    ChaosPoly,
    InputLaw,
    MultilinearPoly,
    ParseError,
    PreconditionError,
    excess_kurtosis,
    hermite_monomial,
    inner_product,
    invariance_gap,
    moment,
    normality_report,
    read_sample_file,
    rho_q,
    sample,
    substitute_gaussian,
    var_gamma,
    w2_1d,
)
from chaoscalc import _kernels, montecarlo
from chaoscalc.algebra import canonical_json, hermite_values, json_value
from _oracles import (
    format_sample_file,
    random_poly,
    read_sample_file_whole_text,
    w2_1d_unfused,
    write_sample_file,
)

G1 = hermite_monomial({1: 1})
HE2_1 = hermite_monomial({1: 2})


def clt_family(n: int, exact_scale: bool = False) -> ChaosPoly:
    """sum_{k<=n} He_2(G_k) scaled to unit variance (scale 1/sqrt(2n))."""
    f = ChaosPoly.zero()
    for k in range(1, n + 1):
        f = f + hermite_monomial({k: 2})
    if exact_scale:
        return f
    return f * Fraction(1.0 / math.sqrt(2 * n))


def test_sampling_is_deterministic_and_worker_independent():
    f = HE2_1 + 2 * G1
    base = sample(f, 150_000, seed=9)
    assert np.array_equal(base.values, sample(f, 150_000, seed=9).values)
    assert np.array_equal(base.values, sample(f, 150_000, seed=9, workers=4).values)
    assert not np.array_equal(base.values, sample(f, 150_000, seed=10).values)
    assert not np.array_equal(base.values, sample(f, 150_000, seed=9, stream=1).values)


CHUNK_CASES = {
    "gaussian": HE2_1 * Fraction(1, 3) + hermite_monomial({2: 3, 3: 1}, -2) + hermite_monomial({3: 1}) + 1,
    **{
        law.kind: MultilinearPoly(law, {frozenset(): 1, frozenset({(1, 1)}): Fraction(1, 2),
                                        frozenset({(2, 1), (3, 1)}): -3})
        for law in (
            InputLaw.rademacher(),
            InputLaw.uniform(),
            InputLaw.discrete([-1, 0, 2], [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]),
        )
    },
    # 66 signs, so a row takes two raw words; a coefficient per step, so every sign shows
    "rademacher_wide": MultilinearPoly(
        InputLaw.rademacher(), {frozenset({(k, 1)}): Fraction(1, k) for k in range(1, 67)}
    ),
}
# table width of each case: its draw columns plus its factor rows
CHUNK_WIDTHS = {"rademacher_wide": 132}


@pytest.mark.parametrize("law", sorted(CHUNK_CASES))
def test_chunk_size_never_changes_a_sample(monkeypatch, law):
    """Blocks are evaluated in sub-chunks of ``max(1, CHUNK_CELLS // width)``
    rows, and every case here but the wide signs has width 6 (three draw
    columns, three factor rows).  Budgets of ``1000·width + 5`` and
    ``7·width + 3`` cells (6005 and 45 at width 6: 1000 and 7 rows, neither
    dividing the block) over three blocks, the last of 13 draws, and a budget
    of ``width - 1`` cells, below one table width, over 64-draw blocks (so
    one row per chunk stays quick), give the default budget's bits at one and
    two workers.  The chunk lengths that reach ``accumulate_terms`` are
    recorded, so each budget is seen to take effect."""
    f = CHUNK_CASES[law]
    width = CHUNK_WIDTHS.get(law, 6)
    lengths = []

    def recording(rows, coeffs, term_ptr, term_slots, out):
        lengths.append(out.shape[0])
        return _kernels.accumulate_terms(rows, coeffs, term_ptr, term_slots, out)

    monkeypatch.setattr(montecarlo, "accumulate_terms", recording)
    cases = [
        (montecarlo.BLOCK_SIZE, 1000 * width + 5, {1000, 536, 13}),
        (montecarlo.BLOCK_SIZE, 7 * width + 3, {7, 2, 6}),
        (64, width - 1, {1}),
    ]
    default_cells = montecarlo.CHUNK_CELLS
    for block_size, cells, chunk_lengths in cases:
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", block_size)
        monkeypatch.setattr(montecarlo, "CHUNK_CELLS", default_cells)
        n = 2 * block_size + 13
        default = sample(f, n, seed=31, stream=2).values
        monkeypatch.setattr(montecarlo, "CHUNK_CELLS", cells)
        for workers in (1, 2):
            lengths.clear()
            assert np.array_equal(sample(f, n, seed=31, stream=2, workers=workers).values, default)
            assert set(lengths) == chunk_lengths


def _sign_rows(rng, rows: int, variables: int) -> np.ndarray:
    signs = np.empty((rows, variables))
    montecarlo._law_sampler(InputLaw.rademacher())(rng, signs)
    return signs


def test_rademacher_signs_are_the_bits_of_raw_words():
    """Against a loop over the words: the sign of variable ``j`` is
    ``2·bit - 1`` for bit ``j mod 64``, least significant first, of the row's
    word ``j // 64``, and a row of 130 signs takes three words."""
    rows, variables = 5, 130
    words = montecarlo._block_rng(4, 0, 0).bit_generator.random_raw((rows, 3))
    expected = [
        [2.0 * ((int(words[r, j // 64]) >> (j % 64)) & 1) - 1 for j in range(variables)]
        for r in range(rows)
    ]
    assert np.array_equal(_sign_rows(montecarlo._block_rng(4, 0, 0), rows, variables), expected)


def test_each_rademacher_sign_is_fair_and_reads_its_own_word():
    """Over 2^17 rows of 130 signs, drawn 8192 rows at a time, the signs at
    positions 0, 63, 64, 65 and 129 (both ends of a row's first two words and
    the last sign) each have mean 0 within 5 standard errors (``1/sqrt(n)``).
    Positions 0 and 64 are bit 0 of two different words, so they differ on
    some draw; a row that read its first word twice would not."""
    n, variables, positions = 1 << 17, 130, [0, 63, 64, 65, 129]
    rng = montecarlo._block_rng(8, 0, 0)
    signs = np.concatenate([
        _sign_rows(rng, 8192, variables)[:, positions] for _ in range(n // 8192)
    ])
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert (np.abs(signs.mean(axis=0)) < 5 / math.sqrt(n)).all()
    assert not np.array_equal(signs[:, 0], signs[:, 2])


def test_walk_sample_memory_is_bounded_by_the_chunk():
    """tracemalloc peak of one block of the 100-step sign walk, and of its
    Gaussian image.  A chunk holds ``CHUNK_CELLS`` float64 table cells (width
    200: 100 draw columns and 100 factor rows, so 1310 rows), at most one
    temporary the size of its draws (half the cells here: the row-major draws
    being transposed; the signs pass through one byte each, an eighth of
    that, unpacked from two raw SFC64 words a row), and the block's output;
    that bounds the peak at 3.5 MiB.  Measured 2.8 and 2.6 MB, after a
    one-row draw has imported ``numpy.random`` (3.6 MB for the walk when it
    was the first sample of the process and counted that import); 3.2 MB for the walk when its signs passed
    through int64 draws, half a chunk at a time; 5.3 and 4.6 MB against
    6.5 MiB with 2^19 cells and new draw, column and factor arrays in every
    chunk; the walk was 26.3 MB with fixed 8192-row chunks and a stacked
    factor table, and 151.3 MB when the block was evaluated whole."""
    walk = MultilinearPoly(
        InputLaw.rademacher(), {frozenset({(k, 1)}): Fraction(1, 10) for k in range(1, 101)}
    )
    bound = 8 * (montecarlo.CHUNK_CELLS + montecarlo.CHUNK_CELLS // 2 + montecarlo.BLOCK_SIZE)
    # a first draw imports numpy.random, which the sampler's peak should not count
    sample(walk, 1, seed=3)
    for p in (walk, substitute_gaussian(walk)):
        tracemalloc.start()
        try:
            sample(p, montecarlo.BLOCK_SIZE, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_a_block_fills_one_table_reused_by_every_chunk(monkeypatch):
    """At one worker, ``sample`` makes one table of ``width`` rows, and every
    chunk of every block reuses it, the short last block included; its cells
    stay within ``CHUNK_CELLS``, and the factor rows reach
    ``accumulate_terms`` as one 2-D view of it."""
    f = CHUNK_CASES["gaussian"]
    tables, kernel_rows = [], []
    evaluate = montecarlo._Encoder._evaluate_chunk

    def recording_chunk(self, rng, table, chunk):
        tables.append(table)
        return evaluate(self, rng, table, chunk)

    def recording_kernel(rows, coeffs, term_ptr, term_slots, out):
        kernel_rows.append(rows)
        return _kernels.accumulate_terms(rows, coeffs, term_ptr, term_slots, out)

    monkeypatch.setattr(montecarlo._Encoder, "_evaluate_chunk", recording_chunk)
    monkeypatch.setattr(montecarlo, "accumulate_terms", recording_kernel)
    monkeypatch.setattr(montecarlo, "CHUNK_CELLS", 6005)
    sample(f, 2 * montecarlo.BLOCK_SIZE + 13, seed=31, stream=2)
    # 66 chunks per full block, one for the 13 draws
    assert len(tables) == 2 * 66 + 1
    assert len({id(t) for t in tables}) == 1
    assert tables[0].shape == (6, 1000)
    assert all(np.shares_memory(rows, table) and rows.shape[0] == 3
               for rows, table in zip(kernel_rows, tables))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sample_makes_one_table_per_thread(monkeypatch, workers):
    """A 4-block ``sample`` makes ``threads`` tables in a call, one per
    thread, and every block of a thread fills that thread's table: one table
    at one worker and two at two (with two CPUs to run on), where a table
    per block would make 4.  The recorder holds every table it sees, so an
    id that a freed table left behind cannot be counted twice."""
    tables = []
    evaluate = montecarlo._Encoder._evaluate_chunk

    def recording_chunk(self, rng, table, chunk):
        tables.append(table)
        return evaluate(self, rng, table, chunk)

    monkeypatch.setattr(montecarlo._Encoder, "_evaluate_chunk", recording_chunk)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2, raising=False)
    sample(CHUNK_CASES["gaussian"], 4 * montecarlo.BLOCK_SIZE, seed=5, workers=workers)
    # two chunks a block, and the blocks dealt out to the threads in turn
    assert sorted(Counter(map(id, tables)).values()) == [8 // workers] * workers


@pytest.mark.parametrize("levels", [[2], [1, 2], [3], [1, 4], [2, 5, 6], [1, 2, 3, 4, 7]])
def test_recurrence_rows_round_as_the_scalar_recurrence(levels):
    """In-place rows of the three-term recurrence equal, bit for bit, the same
    recurrence on Python floats: ``(x - a_k)·p_k`` and ``b_k·p_{k-1}``, each
    rounded, then subtracted.  With ``a_k = 0`` and ``b_k = k`` they are
    ``hermite_values``.  The top level lands in ``x``'s own row when level 1
    is not wanted, as the encoder lays it out."""
    rng = np.random.default_rng(len(levels) * 10 + levels[-1])
    x0 = rng.standard_normal(50) * 3
    shifted = {k: (float(rng.standard_normal()), float(rng.uniform(0.5, 3.0))) for k in range(1, 8)}
    for coefficients in (lambda k: (0, k), shifted.__getitem__):
        table = np.full((2 + len(levels) + 3, 50), np.nan)
        table[0] = x0
        home = 0 if levels[0] == 1 else None
        wanted = [(k, 0 if home is None and k == levels[-1] else 1 + i)
                  for i, k in enumerate(levels) if k > 1]
        montecarlo._recurrence_rows(table[0], wanted, table, list(table[-3:]), coefficients)
        for j, x in enumerate(x0.tolist()):
            ps = [1.0, x]
            for k in range(1, levels[-1]):
                a, b = coefficients(k)
                ps.append((x - a if a else x) * ps[k] - b * ps[k - 1])
            for k, row in wanted:
                assert table[row, j] == ps[k]
            if 1 in levels:
                assert table[0, j] == x
    hermite = hermite_values(x0, levels[-1])
    table = np.zeros((len(levels) + 4, 50))
    table[0] = x0
    montecarlo._recurrence_rows(
        table[0], [(levels[-1], 1)], table, list(table[-3:]), lambda k: (0, k)
    )
    assert np.array_equal(table[1], hermite[levels[-1]])


def test_sample_of_constant():
    s = sample(ChaosPoly.constant(3), 1000, seed=1)
    assert np.all(s.values == 3.0)


def test_sample_moments_match_exact_values():
    s = sample(G1, 400_000, seed=2)
    assert abs(s.values.mean()) < 0.005

    s = sample(HE2_1, 400_000, seed=3)
    # exact variance 2; 5 standard errors of the sample variance
    se = math.sqrt((float(moment(HE2_1, 4)) - 4.0) / s.values.size)
    assert abs(s.values.var() - 2.0) < 5 * se


def test_sample_empirical_fourth_moment_within_five_se():
    rng = random.Random(5)
    for _ in range(3):
        f = random_poly(rng, max_vars=2, max_degree=2, max_terms=3)
        s = sample(f, 100_000, seed=rng.randint(0, 100))
        for k in (2, 4):
            exact = float(moment(f, k))
            spread = float(moment(f, 2 * k)) - exact**2
            se = math.sqrt(max(spread, 0.0) / s.values.size)
            assert abs(np.mean(s.values**k) - exact) < 5 * se + 1e-12


def test_multilinear_sampling_laws():
    law = InputLaw.rademacher()
    p = MultilinearPoly(law, {frozenset({(1, 1)}): 1})
    s = sample(p, 50_000, seed=4)
    assert set(np.unique(s.values)) == {-1.0, 1.0}

    uni = MultilinearPoly(InputLaw.uniform(), {frozenset({(1, 1)}): 1})
    s = sample(uni, 50_000, seed=4)
    assert np.all(np.abs(s.values) <= math.sqrt(3.0) + 1e-12)
    assert abs(s.values.var() - 1.0) < 0.02

    disc = MultilinearPoly(
        InputLaw.discrete([-2, Fraction(1, 2)], [Fraction(1, 5), Fraction(4, 5)]),
        {frozenset({(1, 1)}): 1},
    )
    s = sample(disc, 50_000, seed=5)
    assert set(np.unique(s.values)) == {-2.0, 0.5}
    assert abs(s.values.mean()) < 0.02


def test_a_high_ensemble_level_samples_with_unit_variance():
    """``T_60(X_1)`` under the uniform law, ``sqrt(121)·P_60(X_1/sqrt(3))`` for
    Legendre's ``P_60``, has mean 0 and variance 1: both lie within 5 standard
    errors over 2**17 draws.  ``E[T_60**4]`` comes from 121-point Gauss-Legendre
    quadrature through numpy's Legendre series, exact to degree 241."""
    k, n = 60, 1 << 17
    p = MultilinearPoly(InputLaw.uniform(), {frozenset({(1, k)}): 1})
    values = sample(p, n, seed=3).values
    nodes, weights = np.polynomial.legendre.leggauss(2 * k + 1)
    t = math.sqrt(2 * k + 1) * np.polynomial.legendre.legval(nodes, [0] * k + [1])
    fourth = float(weights @ t**4) / 2
    assert abs(values.mean()) < 5 * math.sqrt(1 / n)
    assert abs(values.var() - 1) < 5 * math.sqrt((fourth - 1) / n)


ENSEMBLE_LAWS = {
    "uniform": InputLaw.uniform(),
    # a_1 = 1: the recurrence's x - a_k step
    "discrete": InputLaw.discrete([-1, 0, 2], [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]),
    "gaussian": InputLaw.gaussian(),
}
ENSEMBLE_DIGESTS = {
    ("uniform", 2): "1d5ac7b7c1757a9cc588a7eadd656d8754cdf5e734c35a5189f0f8d0062ddcc4",
    ("uniform", 3): "e4d3f460dfda6bb35eb1df0b79a9088af972a69cd55878d2f80d3c13c6f178db",
    ("discrete", 2): "3d7aebdb1d53f996ca45ae44241a66e653e56e3696359db4618489165212ffcd",
    ("gaussian", 2): "6ae83a04da598af5ed31c88fe16576a789be6d9ac4471f489296279fc8844518",
    ("gaussian", 3): "1273770e2ee700f3012943b16c84d6d3ff0f5c3e13036e0bb73a823397e900cf",
}


@pytest.mark.parametrize("law, top", sorted(ENSEMBLE_DIGESTS))
def test_ensemble_samples_are_pinned_to_recorded_digests(law, top):
    """sha256 of the sampled bytes of a multilinear polynomial up to level
    ``top``, recorded when the block generators became SFC64.  One variable
    has only the top level, so its top row is its draws' own; the others
    have level 1 as well.  70000 draws span two blocks."""
    p = MultilinearPoly(ENSEMBLE_LAWS[law], {
        frozenset(): Fraction(1, 7),
        frozenset({(1, top)}): Fraction(1, 2),
        frozenset({(2, 1), (3, top)}): Fraction(-1, 3),
        frozenset({(2, top - 1), (3, 1)}): Fraction(1, 5),
    })
    values = sample(p, 70_000, seed=13).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == ENSEMBLE_DIGESTS[law, top]


def test_w2_identical_and_shift():
    s = sample(G1, 10_000, seed=6)
    assert w2_1d(s, s) == 0.0
    shifted = s.values + 0.75
    assert w2_1d(s.values, shifted) == pytest.approx(0.75, abs=1e-12)


def test_w2_translation_between_gaussians():
    a = sample(G1, 200_000, seed=7)
    b = sample(G1 + ChaosPoly.constant(1), 200_000, seed=8)
    assert w2_1d(a, b) == pytest.approx(1.0, abs=0.02)


def test_w2_symmetry_and_triangle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal(4000)
        c = rng.standard_normal(2500) + 0.3
        assert abs(w2_1d(a, c) - w2_1d(c, a)) < 1e-12  # mixed sizes
    for _ in range(5):
        a = rng.standard_normal(3000)
        b = rng.standard_normal(3000) * 2.0
        c = rng.standard_normal(3000) + 1.0
        assert w2_1d(a, c) <= w2_1d(a, b) + w2_1d(b, c) + 1e-9


def test_w2_unequal_sizes_same_law_is_small():
    a = sample(G1, 120_000, seed=12)
    b = sample(G1, 40_000, seed=13, stream=5)
    assert w2_1d(a, b) < 0.03


def test_w2_in_place_equals_the_unfused_cost_bit_for_bit():
    """``w2_1d`` subtracts and squares in place on its own sorted copy; on 300
    random pairs, of equal and of unequal sizes, it returns the bits of the
    computation with a fresh array per step, and leaves its inputs alone."""
    rng = np.random.default_rng(41)
    for trial in range(300):
        na = int(rng.integers(1, 400))
        nb = na if trial % 2 else int(rng.integers(1, 400))
        a = rng.standard_normal(na) * rng.uniform(0.1, 5.0)
        b = rng.standard_t(3, nb) + rng.uniform(-1.0, 1.0)
        a_before, b_before = a.copy(), b.copy()
        assert w2_1d(a, b) == w2_1d_unfused(a, b)
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_w2_rejects_empty():
    with pytest.raises(PreconditionError, match="empty"):
        w2_1d(np.array([]), np.array([1.0]))


def test_var_gamma_examples():
    assert var_gamma(G1) == 0
    assert var_gamma(HE2_1) == 32
    # quartic scaling: the 1/sqrt(2) normalization has rational square 1/2
    assert var_gamma(HE2_1) * Fraction(1, 4) == 8
    dyadic = HE2_1 * Fraction(1.0 / math.sqrt(2.0))
    assert float(var_gamma(dyadic)) == pytest.approx(8.0, abs=1e-12)


def test_excess_kurtosis_examples():
    assert excess_kurtosis(G1) == 0
    assert excess_kurtosis(HE2_1) == 12  # 60/4 - 3
    with pytest.raises(PreconditionError, match="variance"):
        excess_kurtosis(ChaosPoly.constant(2))
    # scale invariance makes the family value exact even with dyadic scaling
    for n in (1, 2, 4, 8):
        assert excess_kurtosis(clt_family(n)) == Fraction(12, n)


def test_clt_family_coherence():
    for n in (1, 2, 4, 8):
        exact = clt_family(n, exact_scale=True)
        assert excess_kurtosis(exact) == Fraction(12, n)
        # var_gamma scales by the fourth power of 1/sqrt(2n), i.e. 1/(4 n**2)
        assert var_gamma(exact) * Fraction(1, 4 * n * n) == Fraction(8, n)
        report_poly = clt_family(n)
        assert rho_q(report_poly, 1).value == pytest.approx(math.sqrt(2.0 / n), abs=1e-9)


def test_clt_family_w2_decreases_and_tails_off():
    values = []
    for n in (1, 4, 16, 64):
        report = normality_report(clt_family(n), 100_000, seed=21)
        values.append(report.w2_to_gaussian)
    assert values == sorted(values, reverse=True)
    assert values[-1] <= 0.1  # true quantile distance at n=64 is ~0.083


def test_normality_report_gaussian_input():
    report = normality_report(G1, 50_000, seed=22)
    assert report.variance == 1
    assert report.excess_kurtosis == 0
    assert report.var_gamma == 0
    assert report.rho == {1: pytest.approx(1.0, abs=1e-12)}
    assert report.w2_to_gaussian < 0.02


def test_normality_report_rejects_constants():
    with pytest.raises(PreconditionError, match="non-deterministic"):
        normality_report(ChaosPoly.constant(1), 100, seed=1)


def test_normality_report_is_deterministic():
    a = canonical_json(json_value(normality_report(HE2_1, 20_000, seed=23)))
    b = canonical_json(json_value(normality_report(HE2_1, 20_000, seed=23, workers=4)))
    assert a == b


def test_sample_file_round_trip(tmp_path):
    s = sample(HE2_1, 5_000, seed=24)
    path = tmp_path / "he2.samples"
    write_sample_file(s, path)
    loaded = read_sample_file(path)
    assert np.array_equal(loaded.values, s.values)
    assert loaded.seed == 24 and loaded.stream == 0
    assert loaded.generator_id == s.generator_id
    header = path.read_text().splitlines()[0]
    assert header == f"# seed=24 stream=0 generator={s.generator_id}"


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("bad_line", [1, 3, 6])
def test_sample_file_bad_value_names_its_line(tmp_path, header, bad_line):
    lines = ["0.5", "-1.25", "", "2e-3", "7.0", "3.5"]
    lines[bad_line - 1] = "0.1x"
    if header:
        lines.insert(0, "# seed=4 stream=1 generator=g")
    path = tmp_path / "bad.samples"
    path.write_text("\n".join(lines) + "\n")
    lineno = bad_line + 1 if header else bad_line
    with pytest.raises(ParseError, match=rf"line {lineno}: bad value '0.1x'$"):
        read_sample_file(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-Infinity"])
@pytest.mark.parametrize("blank", [False, True])
def test_sample_file_non_finite_value_names_its_line(tmp_path, value, blank):
    # a blank line sends the body through the line-by-line parse
    lines = ["# seed=4 stream=1 generator=g", "0.5", "", value, "2.0"] if blank else ["0.5", value]
    path = tmp_path / "odd.samples"
    path.write_text("\n".join(lines) + "\n")
    lineno = 4 if blank else 2
    with pytest.raises(ParseError, match=rf"^sample file line {lineno}: value '{value}' is not finite$"):
        read_sample_file(path)


@pytest.mark.parametrize(
    "field, text, parsed",
    [
        ("seed", "10", 10), ("seed", "-5", -5), ("seed", "0", 0), ("stream", "2147483647", 2**31 - 1),
        ("seed", "1_0", None), ("seed", "\u0663", None), ("seed", "+3", None), ("seed", "07", None),
        ("seed", "-0", None), ("seed", "", None), ("stream", "0x1", None), ("stream", "1.0", None),
    ],
)
def test_sample_file_header_integers_are_read_only_as_written(tmp_path, field, text, parsed):
    # the writer's form: ASCII digits after an optional "-", as str(int) spells them
    path = tmp_path / "header.samples"
    path.write_text(f"# {field}={text} generator=g\n0.5\n", encoding="utf-8")
    if parsed is None:
        with pytest.raises(ParseError, match=re.escape(f"sample file line 1: bad {field} {text!r}") + "$"):
            read_sample_file(path)
    else:
        assert getattr(read_sample_file(path), field) == parsed


def test_sample_file_skips_blank_lines(tmp_path):
    path = tmp_path / "blanks.samples"
    path.write_text("# seed=3 stream=2 generator=g\n1.5\n\n  \n-2.0\n3.25\n\n\n")
    loaded = read_sample_file(path)
    assert loaded.values.tolist() == [1.5, -2.0, 3.25]
    assert (loaded.seed, loaded.stream, loaded.generator_id) == (3, 2, "g")


def test_sample_file_without_header(tmp_path):
    path = tmp_path / "plain.samples"
    path.write_text("0.25\n-4.0\n1e-3")
    loaded = read_sample_file(path)
    assert loaded.values.tolist() == [0.25, -4.0, 1e-3]
    assert (loaded.seed, loaded.stream, loaded.generator_id) == (0, 0, "unknown")
    # without a header the first line must hold a value; later blanks are skipped
    path.write_text("\n0.25\n")
    with pytest.raises(ParseError, match="line 1: bad value ''"):
        read_sample_file(path)


def test_sample_file_with_crlf_line_endings(tmp_path):
    s = sample(HE2_1, 3_000, seed=25, stream=4)
    path = tmp_path / "crlf.samples"
    write_sample_file(s, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    loaded = read_sample_file(path)
    assert np.array_equal(loaded.values, s.values)
    assert (loaded.seed, loaded.stream, loaded.generator_id) == (25, 4, s.generator_id)


READER_CASES = {
    "blank-lines": b"# seed=3 stream=2 generator=g\n1.5\n\n  \n-2.0\n3.25\n\n\n",
    "whitespace-lines": b"1.5\n \t \n-2.0\n\x0c\n\x0b",
    "padded-values": b"  1.5 \n\t-2.0\x0c\n",
    "blank-line-1": b"\n0.25\n",
    "blank-line-2-after-header": b"# seed=1\n\n0.25\n",
    "no-header": b"0.25\n-4.0\n1e-3",
    "empty": b"",  # a 0-byte file: an empty sample with the default header fields
    "header-only": b"# seed=1 stream=2 generator=g\n",
    "header-only-no-newline": b"# seed=1 stream=2 generator=g",
    "header-spacing": b"#seed=4   generator=x  stream=6 other=1\n-0.0\n",
    "crlf": b"# seed=5 stream=1 generator=g\r\n0.5\r\n-1.0\r\n",
    "lone-cr": b"# seed=5 stream=1 generator=g\r0.5\r-1.0\r",
    "mixed-endings": b"0.5\r\n-1.0\r2.0\n\r\n3.0",
    # line breaks to str.splitlines, but not to either reader: one value per line
    "unicode-separators": "0.5\u2028\n1.5\x85\n\x1c2.5\n".encode(),
    "underscore": b"1_0\n2.5\n",
    "unicode-digits": "\u0663.5\n\u0661\n".encode(),
    "plus-sign": b"+2.5\n+1e3\n",
    "header-underscore": b"# seed=1_0\n0.5\n",
    "header-unicode-digit": "# stream=\u0663\n0.5\n".encode(),
    "header-plus": b"# seed=+3\n0.5\n",
    "bad-value": b"# seed=1\n0.5\n\n0.1x\n",
    "bad-header-and-value": b"# seed=x\n0.1x\n",
    "nan-line-1": b"nan\n0.5\n",
    "inf-line-1": b"-Infinity\n0.5\n",
    "inf-later": b"# seed=1\n0.5\n0.25\n-inf\n",
    "nan-after-blank": b"0.5\n\nNaN\n2.0\n",
    "nan-before-bad-value": b"nan\n0.5\nabc\n",
    # longer than the buffer the header read fills: a second open of a pipe
    # would begin after those bytes
    "long-body": b"# seed=1 stream=2 generator=g\n" + b"0.5\n-1.25\n" * 3000,
    "undecodable-header": b"# seed=\xff\n0.5\n",
    "undecodable-late": b"# seed=1\n" + b"0.5\n" * 5000 + b"\xff\n1.0\n",
    "undecodable-late-bad-header": b"# seed=x\n" + b"0.5\n" * 5000 + b"\xff\n",
    # a repeated seed, stream or generator is an error; other fields are ignored
    "header-repeated-seed": b"# seed=1 seed=2 stream=3 stream=4\n0.5\n",
    "header-repeated-generator": b"# generator=a stream=1 generator=a\n0.5\n",
    "header-repeated-stream": b"# stream=1 stream=2\n0.5\n",
    "header-bad-then-repeated": b"# seed=x seed=1\n0.5\n",
    "header-repeated-other": b"# other=1 other=2 seed=3\n0.5\n",
    # what a C text parser could read differently from one float per line
    "two-values-one-line": b"# seed=1\n1.0 2.0\n",
    "two-columns": b"1.0 2.0\n3.0 4.0\n5.0 6.0\n",
    "tab-between-values": b"# seed=1\n0.5\n1.0\t2.0\n",
    "hash-in-body": b"# seed=1\n0.5\n# 1.0\n2.0\n",
    "quoted-value": b'# seed=1\n0.5\n"0.5"\n',
    "nul-after-value": b"0.5\x00\n1.0\n",
    "comma-decimal": b"0,5\n",
    "complex-value": b"1+0j\n",
    "nan-after-separator": b"0.5\n\x1cnan\n",
}


def _read_outcome(read, path):
    try:
        loaded = read(path)
    except (ParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return loaded.values.dtype, loaded.values.tobytes(), loaded.seed, loaded.stream, loaded.generator_id


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_streamed_reader_matches_the_whole_text_reader(tmp_path, name):
    """Values (bit for bit), header fields, and the error and its text equal
    the whole-text reader's.  The late undecodable byte lies past the first
    8 KiB that the header read and the C parser each decode at once, so its
    offset in the message shows the error path decoding the file whole."""
    path = tmp_path / "case.samples"
    path.write_bytes(READER_CASES[name])
    assert _read_outcome(read_sample_file, path) == _read_outcome(read_sample_file_whole_text, path)
    if name.startswith("header-repeated-") and name != "header-repeated-other":
        field = name.removeprefix("header-repeated-")
        with pytest.raises(ParseError, match=rf"^sample file line 1: repeated {field}$"):
            read_sample_file(path)


def _read_through_fifo(tmp_path, data: bytes):
    """``_read_outcome`` of ``read_sample_file`` on a named pipe that a thread
    fills with ``data``.  A reader that opened the pipe a second time would
    wait there for a writer; after 10 s it is given an empty one, so the test
    fails instead of hanging."""
    fifo = tmp_path / "pipe.samples"
    os.mkfifo(fifo)
    outcome = []

    def feed():
        with open(fifo, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    reader = threading.Thread(target=lambda: outcome.append(_read_outcome(read_sample_file, fifo)))
    writer.start()
    reader.start()
    reader.join(timeout=10)
    if reader.is_alive():
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join()
    writer.join(timeout=10)
    assert outcome, "read_sample_file raised on a pipe"
    return outcome[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_piped_reader_matches_the_whole_text_reader(tmp_path, name):
    """A pipe is read once, from the handle it was opened as: its values and
    its errors equal the whole-text reader's on the same bytes in a file."""
    path = tmp_path / "case.samples"
    path.write_bytes(READER_CASES[name])
    expected = _read_outcome(read_sample_file_whole_text, path)
    assert _read_through_fifo(tmp_path, READER_CASES[name]) == expected


def test_sample_file_named_by_bytes_or_a_file_descriptor(tmp_path):
    s = sample(HE2_1, 1000, seed=34)
    path = tmp_path / "any.samples"
    write_sample_file(s, path)
    assert np.array_equal(read_sample_file(os.fsencode(path)).values, s.values)
    assert np.array_equal(read_sample_file(os.open(path, os.O_RDONLY)).values, s.values)
    path.write_text("# seed=1\n0.5\nabc\n")
    with pytest.raises(ParseError, match="line 3: bad value 'abc'"):
        read_sample_file(os.open(path, os.O_RDONLY))


def test_a_file_replaced_after_its_header_is_read_whole_from_the_first_open(tmp_path, monkeypatch):
    """np.loadtxt opens the path again.  When the path no longer names the
    file whose header was read, the body comes from that first open instead,
    so the header and values of two versions are never paired."""
    first = sample(HE2_1, 1000, seed=35)
    second = sample(HE2_1, 1000, seed=36)
    path = tmp_path / "replaced.samples"
    write_sample_file(first, path)
    loadtxt = np.loadtxt

    def replacing_loadtxt(*args, **kwargs):
        replacement = tmp_path / "replacement.samples"
        write_sample_file(second, replacement)
        os.replace(replacement, path)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", replacing_loadtxt)
    loaded = read_sample_file(path)
    assert np.array_equal(loaded.values, first.values) and loaded.seed == 35


def test_sample_file_read_memory_is_flat_in_file_length(tmp_path):
    """tracemalloc peak of reading 262144 lines: the float64 array (2 MiB),
    grown by at most half again while its length is unknown, plus 1 MiB for
    the parser's text chunk and the rest, so 4 MiB.  Measured 2.5 MiB; the
    whole-text reader took 33.6 MB."""
    n = 4 * montecarlo.BLOCK_SIZE
    s = sample(HE2_1, n, seed=27)
    path = tmp_path / "long.samples"
    write_sample_file(s, path)
    tracemalloc.start()
    try:
        loaded = read_sample_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.values, s.values)
    assert peak <= 12 * n + 2**20


def _never_by_line(text):
    raise AssertionError("the C parser fell back to the whole-text reader")


def test_blank_body_lines_stay_on_the_streamed_path(tmp_path, monkeypatch):
    """A blank line in the body, or a trailing one, is skipped by numpy's C
    parser: the whole-text reader is never called, so such a file costs no
    more memory than the clean one."""
    s = sample(HE2_1, 1000, seed=29)
    clean = tmp_path / "clean.samples"
    write_sample_file(s, clean)
    head, *body = clean.read_text().splitlines(keepends=True)
    blanks = tmp_path / "blanks.samples"
    blanks.write_text(head + "".join(body[:500]) + "\n \t\n" + "".join(body[500:]) + "\n")
    monkeypatch.setattr(montecarlo, "_read_by_line", _never_by_line)
    loaded = read_sample_file(blanks)
    assert np.array_equal(loaded.values, s.values)
    assert (loaded.seed, loaded.stream, loaded.generator_id) == (29, 0, s.generator_id)
    # without a header a blank line 1 is still a bad value, named by the whole-text reader
    monkeypatch.undo()
    no_header = tmp_path / "plain.samples"
    no_header.write_text("\n" + "".join(body))
    with pytest.raises(ParseError, match="line 1: bad value ''"):
        read_sample_file(no_header)


def test_clean_sample_file_never_reaches_the_line_by_line_reader(tmp_path, monkeypatch):
    """A 262144-line file as ``write_sample_file`` writes it is converted by
    numpy's C parser alone.  Were it to fall back, every value would still be
    right and only the speed would be lost, so nothing else would notice."""
    n = 4 * montecarlo.BLOCK_SIZE
    s = sample(HE2_1, n, seed=30, stream=2)
    path = tmp_path / "clean.samples"
    write_sample_file(s, path)
    monkeypatch.setattr(montecarlo, "_read_by_line", _never_by_line)
    loaded = read_sample_file(path)
    assert np.array_equal(loaded.values, s.values)
    assert (loaded.seed, loaded.stream, loaded.generator_id) == (30, 2, s.generator_id)


def _decimal_strings(rng: random.Random, count: int) -> list[str]:
    """Finite decimal strings: 1-30 digits, any point position, exponents in
    [-330, 330] capped below overflow, optional signs, and the boundaries of
    zero, the subnormals, the largest float and 2**53 + 1."""
    edges = [
        "-0.0", "0", "+0e-400", "4.9406564584124654e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "2.2250738585072009e-308", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
        "9007199254740993", "-9007199254740993", "9007199254740993.0000000000000001",
        "9007199254740992.9999999999999999", "9007199254740995", "1e-330", "-1e-330",
    ]
    strings = list(edges)
    while len(strings) < count:
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
        if rng.random() < 0.8:
            point = rng.randint(0, len(digits))
            mantissa = digits[:point] + "." + digits[point:]
        else:
            point, mantissa = len(digits), digits
        text = rng.choice(["", "-", "+"]) + mantissa
        if rng.random() < 0.7:
            exponent = min(rng.randint(-330, 330), 307 - point)
            text += rng.choice("eE") + str(exponent)
        strings.append(text)
    return strings


def test_sample_file_values_equal_float_of_each_line_bit_for_bit(tmp_path, monkeypatch):
    """numpy's C parser and ``float`` round every decimal string to the same double."""
    strings = _decimal_strings(random.Random(31), 20_000)
    path = tmp_path / "decimals.samples"
    path.write_text("# seed=1 stream=0 generator=g\n" + "\n".join(strings) + "\n")
    expected = np.array([float(text) for text in strings])
    monkeypatch.setattr(montecarlo, "_read_by_line", _never_by_line)
    loaded = read_sample_file(path)
    assert loaded.values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_sample_file_names_numpy_would_reinterpret_are_read_as_local_text(tmp_path, monkeypatch):
    """np.loadtxt opens a path through numpy's DataSource, which decompresses
    by file-name ending and fetches URLs.  A sample file is plain local text
    whatever its name: a ``.gz`` name takes the line-by-line reader, and a
    name that parses as a URL is read from the local file it names."""
    s = sample(HE2_1, 1000, seed=32)
    gz = tmp_path / "plain.samples.gz"
    write_sample_file(s, gz)
    assert np.array_equal(read_sample_file(gz).values, s.values)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    write_sample_file(s, "http:/host/x.samples")
    monkeypatch.setattr(montecarlo, "_read_by_line", _never_by_line)
    assert np.array_equal(read_sample_file("http://host/x.samples").values, s.values)


@pytest.mark.parametrize("n", [0, 1, montecarlo.PIECE_LINES, montecarlo.PIECE_LINES + 1])
def test_sample_file_pieces_hold_at_most_piece_lines(n):
    values = sample(HE2_1, max(n, 1), seed=27).values[:n]
    s = montecarlo.SampleSet(values=values.copy(), seed=27, stream=0, generator_id="g")
    pieces = list(montecarlo._sample_file_pieces(s))
    assert pieces[0] == "# seed=27 stream=0 generator=g\n"
    assert [piece.count("\n") for piece in pieces[1:]] == (
        [montecarlo.PIECE_LINES] * (n // montecarlo.PIECE_LINES)
        + [n % montecarlo.PIECE_LINES] * bool(n % montecarlo.PIECE_LINES)
    )
    assert "".join(pieces) == format_sample_file(s)


@pytest.mark.parametrize("n", [0, 1, 2 * montecarlo.BLOCK_SIZE + 5])
def test_write_sample_file_writes_the_formatted_text(tmp_path, n):
    values = sample(HE2_1, max(n, 1), seed=28, stream=3).values[:n]
    s = montecarlo.SampleSet(values=values.copy(), seed=-28, stream=3, generator_id="g")
    path = tmp_path / "out.samples"
    write_sample_file(s, path)
    assert path.read_bytes() == format_sample_file(s).encode()


def test_invariance_gap_examples():
    law = InputLaw.rademacher()
    single = MultilinearPoly(law, {frozenset({(1, 1)}): 1})
    # closed-form quantile coupling of signs vs standard normal:
    # sqrt(2 - 4/sqrt(2*pi)) = 0.63579...
    expected = math.sqrt(2.0 - 4.0 / math.sqrt(2.0 * math.pi))
    assert invariance_gap(single, 100_000, seed=25) == pytest.approx(expected, abs=0.02)

    walk = MultilinearPoly(law, {frozenset({(k, 1)}): Fraction(1, 10) for k in range(1, 101)})
    gap = invariance_gap(walk, 100_000, seed=25)
    assert gap < 0.08  # exact lattice value is 0.0578

    gauss_self = MultilinearPoly(InputLaw.gaussian(), {frozenset({(k, 1)}): Fraction(1, 2) for k in range(1, 5)})
    assert invariance_gap(gauss_self, 100_000, seed=26) <= 0.02
