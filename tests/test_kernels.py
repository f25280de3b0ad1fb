"""Float kernels: term accumulation, the LAPACK eigensolve, the canonical
top direction that makes influence output independent of the solver, and the
text of a float array, checked against ``repr`` itself."""

import subprocess
import sys

import numpy as np
import pytest

from chaoscalc import _kernels, hermite_monomial, montecarlo
from chaoscalc.algebra import canonical_json, json_value
from chaoscalc.influence import _top_eigenpair


def _random_encoding(rng, n_slots=7, n_terms=12, n_samples=513):
    values = rng.standard_normal((n_slots, n_samples))
    coeffs = rng.standard_normal(n_terms)
    ptr = [0]
    slots = []
    for _ in range(n_terms):
        k = int(rng.integers(0, 4))
        slots.extend(int(s) for s in rng.integers(0, n_slots, size=k))
        ptr.append(len(slots))
    return values, coeffs, np.array(ptr, dtype=np.int64), np.array(slots, dtype=np.int64)


def _direct(values, coeffs, ptr, slots, i):
    """Draw ``i`` of the term table, one Python float operation at a time."""
    total = 0.0
    for t in range(coeffs.size):
        prod = float(coeffs[t])
        for j in range(ptr[t], ptr[t + 1]):
            prod *= float(values[slots[j], i])
        total += prod
    return total


def test_accumulate_matches_direct_evaluation():
    """Bitwise: sample-file bytes depend on the kernel's operation order,
    each term's coefficient times its factors in order, terms summed in order
    from +0.0.  ``_random_encoding`` draws constant (factor-free) terms too."""
    rng = np.random.default_rng(1)
    values, coeffs, ptr, slots = _random_encoding(rng, n_samples=61)
    assert np.any(np.diff(ptr) == 0)
    out = _kernels.accumulate_terms(values, coeffs, ptr, slots, np.empty(61))
    for i in range(61):
        assert out[i] == _direct(values, coeffs, ptr, slots, i)


def test_accumulate_constant_and_negative_zero_terms():
    # a lone constant term, and a -0.0 product (-1.5 * 0.0) that must sum to +0.0
    values = np.array([[0.0, 2.0, -0.0], [3.0, 0.5, 4.0]])
    coeffs = np.array([-1.5, 0.25])
    ptr = np.array([0, 1, 1], dtype=np.int64)
    slots = np.array([0], dtype=np.int64)
    out = _kernels.accumulate_terms(values, coeffs, ptr, slots, np.empty(3))
    assert out.tolist() == [0.25, -2.75, 0.25]
    zero_only = _kernels.accumulate_terms(values[:1], coeffs[:1], ptr[:2], slots, np.empty(3))
    assert zero_only.tolist() == [0.0, -3.0, 0.0]
    assert not np.signbit(zero_only[0]) and not np.signbit(zero_only[2])
    assert np.signbit(-1.5 * 0.0)


def test_accumulate_fills_out_from_a_list_of_rows():
    """The sampler's form: 1-D factor rows, never stacked, written into a
    slice of a larger array that holds stale values.  The slice is zeroed
    first, so its bits equal a fresh call's, and nothing outside it moves."""
    rng = np.random.default_rng(3)
    values, coeffs, ptr, slots = _random_encoding(rng, n_samples=40)
    expected = _kernels.accumulate_terms(values, coeffs, ptr, slots, np.empty(40))
    block = np.full(50, np.nan)
    out = block[5:45]
    assert _kernels.accumulate_terms(list(values), coeffs, ptr, slots, out) is out
    assert out.tobytes() == expected.tobytes()
    assert np.isnan(block[:5]).all() and np.isnan(block[45:]).all()


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 24, 80):
        m = rng.standard_normal((n, n))
        sym = (m + m.T) / 2
        vals, vecs = _kernels.jacobi_eigh(sym)
        assert np.all(np.diff(vals) >= 0)
        assert np.allclose(vals, np.linalg.eigvalsh(sym), atol=1e-10)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, sym, atol=1e-10)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)


def test_jacobi_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        _kernels.jacobi_eigh(np.zeros((2, 3)))


def test_degenerate_top_direction_is_the_projection_of_e1():
    rng = np.random.default_rng(4)
    spectrum = np.array([5.0, 5.0, 2.0, 1.0, -3.0])
    for _ in range(10):
        rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        sym = rotation @ np.diag(spectrum) @ rotation.T
        sym = (sym + sym.T) / 2
        top_space = rotation[:, :2]
        expected = top_space @ top_space[0]
        expected /= np.linalg.norm(expected)
        value, direction, gap = _top_eigenpair(sym)
        assert value == pytest.approx(5.0, abs=1e-12)
        assert gap == pytest.approx(3.0, abs=1e-12)
        assert np.max(np.abs(direction - expected)) <= 1e-12


def test_top_direction_skips_basis_vectors_orthogonal_to_the_top_space():
    # top eigenvector (0, 1, 1)/sqrt(2): e_1 projects to zero, e_2 gives the direction
    sym = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    value, direction, gap = _top_eigenpair(sym)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert gap == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(direction, [0.0, 2**-0.5, 2**-0.5], atol=1e-15)
    _, _, gap = _top_eigenpair(np.eye(3))
    assert gap is None


def test_influence_stdout_is_identical_across_processes(tmp_path):
    poly = (hermite_monomial({1: 2}) + hermite_monomial({2: 2})) / 2 + hermite_monomial({1: 1, 3: 1})
    path = tmp_path / "f.json"
    path.write_text(canonical_json(json_value(poly)))
    for argv in (["rho", str(path), "--q", "2"], ["strongest", str(path), "--threshold", "0.1"]):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "chaoscalc.cli", *argv], capture_output=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] and outs[0] == outs[1]


def _neighbours(values):
    """Each value with the floats just below and just above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _steps(value, count=64):
    """``count`` consecutive floats on either side of ``value``."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


def _finite(values):
    """The finite ones of ``values``: ``sample`` refuses the rest before writing."""
    return values[np.isfinite(values)]


_TINY = np.nextafter(0.0, 1.0)  # 2**-1074, the least subnormal
_MIN_NORMAL = np.finfo(np.float64).tiny  # 2**-1022
REPR_CASES = {
    "random-bits": lambda: _finite(
        np.random.default_rng(35)
        .integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        .view(np.float64)
    ),
    "powers-of-two": lambda: _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers-of-ten": lambda: _neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "positional-edges": lambda: np.concatenate(
        [_steps(1e-4), _steps(1e-5), _steps(1e16), _steps(1e15), _steps(1e17)]
    ),
    "integers": lambda: np.concatenate(
        [np.arange(0, 100_000), np.arange(0, 2**53 + 1, 2**53 // 50_000), 2**53 - np.arange(1000)]
    ).astype(np.float64),
    "j-times-powers-of-ten": lambda: _finite(
        np.array([float(f"{j}e{k}") for j in range(1, 1000, 7) for k in range(-330, 310, 3)])
    ),
    "subnormal-edges": lambda: np.concatenate(
        [_TINY * np.arange(1, 2000), _neighbours([_MIN_NORMAL, _MIN_NORMAL - _TINY])]
    ),
    "signed-specials": lambda: np.array(
        [0.0, -0.0, _TINY, _MIN_NORMAL, np.finfo(np.float64).max, 1e-4, 1e16]
    ),
    "empty": lambda: np.empty(0),
}


@pytest.mark.parametrize("case", REPR_CASES)
def test_repr_lines_writes_what_repr_writes(case):
    """Bit for bit, with ``repr`` as the oracle: shortest digits, the closest,
    ties to even, the bounds of an even significand included, the irregular
    gap below a power of two, both notations, both zeros and the finite
    extremes; the negatives of each case too (random bits have both signs
    already).  Only finite values: ``sample`` refuses inf and nan.
    The kernel sees the values in pieces of the sample writer's size."""
    values = REPR_CASES[case]()
    if case != "random-bits":
        values = np.concatenate([values, -values])
    piece = montecarlo.PIECE_LINES
    text = "".join(_kernels.repr_lines(values[i : i + piece]) for i in range(0, values.size, piece))
    expected = "".join(repr(v) + "\n" for v in values.tolist())
    if text != expected:
        got = text.split("\n")
        bad = next(i for i, line in enumerate(expected.split("\n")) if got[i : i + 1] != [line])
        pytest.fail(f"{values[bad]!r} ({values[bad:bad + 1].view(np.uint64)[0]:#x}): got {got[bad:bad + 1]}")


def test_repr_lines_takes_a_strided_view():
    values = np.array([0.1, -2.5e-7, 3.0, 1e300, 7.0])
    assert _kernels.repr_lines(values[::2]) == "0.1\n3.0\n7.0\n"


def test_importing_the_cli_leaves_the_repr_tables_unbuilt():
    """The tables are built on the first ``repr_lines`` call: ``import
    chaoscalc.cli`` runs for every command, most of which write no sample."""
    code = (
        "import chaoscalc.cli\n"
        "from chaoscalc import _kernels\n"
        "print(_kernels._repr_tables.cache_info().currsize)\n"
        "_kernels.repr_lines([1.0])\n"
        "print(_kernels._repr_tables.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "0\n1\n"
