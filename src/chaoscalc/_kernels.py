"""Numeric float kernels: batched term accumulation, the symmetric eigensolve,
and the text of a float array.

``accumulate_terms`` evaluates a sampler's term table over one sub-chunk of a
block of draws (as many rows as fit ``montecarlo.CHUNK_CELLS`` table cells),
in a fixed operation order that the sample-file bytes depend on.  The
sampler passes the factor rows as a 2-D view of its chunk table, never a
copy, and the term table as the Python lists it builds once per sample; the
kernel writes into the caller's output slice and reuses one product buffer,
so its per-call overhead and working set stay small next to the chunk's
arithmetic.  ``jacobi_eigh`` is LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``).
The exact-rational algebra never routes through this module; only float paths
(sampling, eigensolves, sample-file text) do.  Callers that need a
solver-independent eigenvector (see ``influence._top_eigenpair``)
canonicalize it themselves.

``repr_lines`` writes a finite float64 array as lines of text, each exactly
what ``repr`` writes for the value; it has no text for inf or nan, which
``sample`` refuses before any value is written.  The digits come from
Schubfach's shortest-digit search (R. Giulietti, "The Schubfach way to render
doubles", 2020), run on whole ``int64`` arrays with its 128-bit products built
from 28-bit limbs; the layout is CPython's ``repr`` layout, assembled in a
byte matrix that one boolean index compresses.  Its tables are built on first
use, not at import.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np


def accumulate_terms(rows, coeffs, term_ptr, term_slots, out):
    """out[i] = sum_t coeffs[t] * prod_{s in term t} rows[s][i].

    ``rows`` holds one float64 row per distinct (variable, level) factor, as a
    list of 1-D arrays or a 2-D array; ``term_slots`` flattens the factor
    lists of all terms and ``term_ptr`` delimits them; the three tables are
    read by index, and as Python lists the per-term loop makes no numpy
    scalar.  ``out``, one value
    per row position, is filled in place and returned.  It is zeroed first,
    each product is ``rows[first] * coeffs[t]``, times the later factors in
    order, and the terms are added in order, so the bits are fixed by the
    term table alone (and a ``-0.0`` product sums to ``+0.0``).
    """
    out[...] = 0.0
    prod = np.empty_like(out)
    for t, c in enumerate(coeffs):
        first, stop = term_ptr[t], term_ptr[t + 1]
        if first == stop:
            out += c
            continue
        np.multiply(rows[term_slots[first]], c, out=prod)
        for s in term_slots[first + 1 : stop]:
            prod *= rows[s]
        out += prod
    return out


def jacobi_eigh(matrix):
    """Eigenvalues (ascending) and column eigenvectors of a symmetric matrix (LAPACK)."""
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigh(a)


# -- the text of a float array ----------------------------------------------------

# limbs of 28 bits: a limb product, and the sum of two, fit an int64
_LIMB = 28
_LIMB_MASK = (1 << _LIMB) - 1
# A line is built in a row of five little-endian uint64 words.  Byte 6 holds
# '-', the text starts at byte 7 and ends by byte 29 (a positional line's '\n'
# right after it), and the fifth word holds 'e', the exponent's sign, three
# digits and '\n'.
_ROW = 40
_TEXT = 7
_EXPONENT = 32
_U64 = np.dtype("<u8")
# the decimal point position p of 0.d1d2...*10**p is table index p + _POINT_BIAS
_POINT_BIAS = 330
# point classes: p + 3 for the positional p = -3..16, then exponent notation
# with two and with three exponent digits
_CLASSES = 22


class _ReprTables(NamedTuple):
    exponent: np.ndarray  # (7, 4096) int64 per search row: k, hidden bit, G's five limbs
    pow10: np.ndarray  # 10**0 .. 10**17
    digits4: np.ndarray  # the four ASCII digits of 0..9999 as one little-endian word
    zeros4: np.ndarray  # trailing zero digits of 0..9999 written with four digits
    point_class: np.ndarray  # class of each point position
    exponent_word: np.ndarray  # fifth row word of each point position
    insert: np.ndarray  # (7, points): low-byte masks of text words 0..2, their inserted bytes, shift
    line_end: np.ndarray  # per mask code: the byte after the text
    masks: np.ndarray  # (classes * 17 * 2, _ROW) bool per mask code: the bytes a line keeps


def _text_insert(point_class: int) -> tuple[int, bytes]:
    """(digits before it, bytes) of what a class inserts into its 17 digits."""
    if point_class < 4:
        return 0, b"0." + b"0" * (3 - point_class)
    return (point_class - 3 if point_class < 20 else 1), b"."


def _text_size(point_class: int, digits: int) -> int:
    """Bytes of text before the exponent, of a class and a digit count."""
    if point_class < 4:
        return digits + 5 - point_class
    if point_class < 20:
        p = point_class - 3
        return p + 1 + max(digits - p, 1)
    return digits + (digits > 1)


@cache
def _repr_tables() -> _ReprTables:
    """The tables of ``repr_lines``, built on its first call."""
    # Search row r serves the doubles of biased exponent r % 2048 whose bounds
    # are regular (r < 2048), or irregular (r >= 2048: significand 2**52, the
    # gap below half the gap above).  G = 0 in the row of zero (2048), so the
    # search there gives m = 0 and the point position k + 2 = 1.  Rows 2047
    # and 4095, of inf and nan, are never read.
    exponent = np.zeros((7, 4096), np.int64)
    exponent[0, 2048] = -1
    scaled = {}  # k: (beta, g), shared by the rows of one k
    rows, entries = [*range(2047), *range(2050, 4095)], []
    for row in rows:
        biased, irregular = row % 2048, row >= 2048
        q = max(biased, 1) - 1075
        # k = floor(log10(width)), the interval's width 2**q, or 3/4 * 2**q when
        # irregular: the paper's fixed-point forms of log10(2) and log10(3/4)
        k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
        if k not in scaled:
            # beta = floor(log2(10**-k)); g = floor(10**-k * 2**(125 - beta)) + 1
            beta = (10**-k).bit_length() - 1 if k <= 0 else -(10**k - 1).bit_length()
            shift = 125 - beta
            scaled[k] = beta, (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        beta, g = scaled[k]
        big = g << (q + beta + 2)  # the paper's g * 2**h, so P = G * 4c
        limbs = [(big >> (_LIMB * j)) & _LIMB_MASK for j in range(4)] + [big >> 4 * _LIMB]
        entries.append([k, (biased != 0) << 52, *limbs])
    exponent[:, rows] = np.array(entries, np.int64).T
    group = np.arange(10000)
    ascii4 = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    digits4 = (ascii4 + 48).astype(np.uint8).view("<u4")[:, 0].astype(np.uint64)
    zeros4 = sum((group % 10**j == 0).astype(np.int64) for j in range(1, 5))
    points = np.arange(-_POINT_BIAS, _POINT_BIAS)
    point_class = np.where(np.abs(points - 1) < 100, 20, 21)
    positional = (points >= -3) & (points <= 16)
    point_class[positional] = points[positional] + 3
    words = np.zeros((points.size, 8), np.uint8)
    for i, p in enumerate(points.tolist()):
        words[i, :6] = list(b"e%+04d\n" % (p - 1))
    insert = np.zeros((7, _CLASSES), np.uint64)
    line_end = np.zeros((_CLASSES, 17, 2), np.int64)
    masks = np.zeros((_CLASSES, 17, 2, _ROW), bool)
    for cls in range(_CLASSES):
        before, text = _text_insert(cls)
        low = np.zeros(24, np.uint8)
        low[: _TEXT + before] = 255
        inserted = np.zeros(24, np.uint8)
        inserted[_TEXT + before : _TEXT + before + len(text)] = list(text)
        insert[:, cls] = [*low.view(_U64), *inserted.view(_U64), 8 * len(text)]
        for digits in range(1, 18):
            size = _text_size(cls, digits)
            line_end[cls, digits - 1] = _TEXT + size
            keep = masks[cls, digits - 1]
            keep[:, _TEXT - 1] = [False, True]
            if cls < 20:
                keep[:, _TEXT : _TEXT + size + 1] = True
            else:
                keep[:, _TEXT : _TEXT + size] = True
                keep[:, [_EXPONENT, _EXPONENT + 1, _EXPONENT + 5]] = True
                keep[:, _EXPONENT + 2 + (cls == 20) : _EXPONENT + 5] = True
    return _ReprTables(
        exponent=exponent,
        pow10=np.array([10**j for j in range(18)], np.int64),
        digits4=digits4,
        zeros4=zeros4,
        point_class=point_class,
        exponent_word=words.view(_U64)[:, 0].astype(np.uint64),
        insert=insert[:, point_class],
        line_end=line_end.reshape(-1),
        masks=masks.reshape(-1, _ROW),
    )


def _round_to_odd(cols, out, v, sticky, scratch) -> None:
    """``out = floor(P / 2**127)``, made odd when bits 64..126 of ``P`` hold a one,
    for ``P = sum(cols[j] * 2**(28 j))`` (columns may be negative, ``P`` not).

    This is the paper's ``rop``: it drops the bits below 64, where g's
    rounding up lands; counting them makes an exact midpoint odd (2**-25
    would be written ``...313e-08`` for ``...312e-08``).  ``v``, ``sticky``
    and ``scratch`` are work arrays.
    """
    c0, c1, c2, c3, c4, c5 = cols
    np.right_shift(c0, _LIMB, out=v)
    v += c1
    v >>= _LIMB
    v += c2  # its low 28 bits are bits 56..83 of P
    np.right_shift(v, 8, out=sticky)
    sticky &= (1 << 20) - 1
    v >>= _LIMB
    v += c3  # bits 84..111
    np.bitwise_and(v, _LIMB_MASK, out=scratch)
    sticky |= scratch
    v >>= _LIMB
    v += c4  # bits 112..139, and the carry above them
    np.bitwise_and(v, (1 << 15) - 1, out=scratch)
    sticky |= scratch
    np.right_shift(v, 15, out=out)
    np.left_shift(c5, 13, out=scratch)
    out += scratch
    out |= sticky != 0


def _shortest(bits: np.ndarray, tables: _ReprTables):
    """Schubfach's search on each double of ``bits`` (its ``int64`` view).

    Returns ``(m, point)``: ``m`` the shortest digits that read back as the
    double, the closest of them to it with ties to even, left-aligned in 17
    digits; ``point - _POINT_BIAS`` the decimal point position.  Variable
    names follow the paper: the value is ``c * 2**q``; ``vb``, ``vbl`` and
    ``vbr`` are ``4 * 10**-k`` times it and its two rounding bounds.
    """
    row = bits >> 52
    row &= 0x7FF
    c = bits & ((1 << 52) - 1)
    irregular = c == 0
    irregular &= row != 1
    row += irregular * 2048
    k, hidden, *limbs = (column.take(row) for column in tables.exponent)
    c += hidden
    odd = (c & 1).astype(np.int8)
    # 4c in two limbs, and the columns of P = G * 4c
    lo = c << 2
    lo &= _LIMB_MASK
    hi = c >> (_LIMB - 2)
    cols = [lo * limb for limb in limbs] + [hi * limbs[4]]
    scratch = hidden
    for j in range(4):
        np.multiply(hi, limbs[j], out=scratch)
        cols[j + 1] += scratch
    vb = c
    _round_to_odd(cols, vb, lo, hi, scratch)
    # the bounds: G * (4c - delta), delta = 2, or 1 below an irregular value; then G * (4c + 2)
    delta = 2 - irregular.view(np.int8)
    for col, limb in zip(cols, limbs):
        np.multiply(limb, delta, out=scratch)
        col -= scratch
    vbl = row
    _round_to_odd(cols, vbl, lo, hi, scratch)
    delta += 2
    for col, limb in zip(cols, limbs):
        np.multiply(limb, delta, out=scratch)
        col += scratch
    vbr = limbs[0]
    _round_to_odd(cols, vbr, lo, hi, scratch)
    del cols, limbs, lo, hi, scratch, delta
    # an even significand's bounds are in the interval
    vbl += odd
    vbr -= odd
    s = vb >> 2
    s10 = s // 10
    # u' = 10 * s10 and w' = u' + 10 at the next decade: one alone in the interval wins
    x = s10 * 40
    upin = vbl <= x
    x += 40
    wpin = x <= vbr
    coarser = upin != wpin
    # else u = s or w = s + 1: the one in the interval, or the closer, ties to even s
    np.left_shift(s, 2, out=x)
    uin = vbl <= x
    x += 4
    win = x <= vbr
    vb &= 3
    np.bitwise_and(s, 1, out=x)
    vb += x
    up = vb > 2
    up |= ~uin
    up &= win
    s10 += wpin
    s += up
    m = np.where(coarser, s10, s)
    k += coarser
    # digits of m | 1 (one for m = 0): an estimate from the bit length, the
    # exponent of its float, then one comparison; float rounding moves the bit
    # length only above 2**53, where it cannot move the estimate off digits - 1
    # or digits
    m1 = m | 1
    est = m1.astype(np.float64).view(np.int64)
    est >>= 52
    est -= 1022
    est *= 1233
    est >>= 12
    digits = m1 >= tables.pow10.take(est)
    digits = est + digits
    k += digits
    k += _POINT_BIAS
    np.subtract(17, digits, out=digits)
    m *= tables.pow10.take(digits)
    return m, k


def repr_lines(values) -> str:
    """``"".join(repr(v) + "\\n" for v in values.tolist())`` for a 1-D array of finite float64s.

    Each line is what ``repr`` writes: the shortest digits that read back as
    the value, the closest of them with ties to even, in positional notation
    (with a ``.0`` suffix when whole) when the decimal point position lies in
    -3..16, else as ``d[.ddd]e±XX`` with at least two exponent digits; and
    ``0.0`` or ``-0.0``.  Infinities and NaNs have no class: ``sample``, the
    one caller's source, refuses draws that overflow float64, so no sample
    holds one.

    The lines are built in one ``_ROW``-byte row each: the 17 digits as
    ASCII, with the point (or a ``0.000`` prefix) inserted by shifting the
    bytes after it, a '\\n' after the text and the exponent word; then a
    mask row per (point class, digit count, sign) picks each line's bytes,
    so the text is compressed out of the matrix in one boolean index.
    """
    tables = _repr_tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    n = bits.shape[0]
    m, point = _shortest(bits, tables)
    # m = d0 w1 w2 w3 w4: one digit, then four groups of four
    scratch = np.empty(n, np.int64)
    w12 = m // 10**8
    np.multiply(w12, 10**8, out=scratch)
    m -= scratch
    d0 = w12 // 10**8
    np.multiply(d0, 10**8, out=scratch)
    w12 -= scratch
    w1 = w12 // 10**4
    np.multiply(w1, 10**4, out=scratch)
    w2 = w12
    w2 -= scratch
    w3 = m // 10**4
    np.multiply(w3, 10**4, out=scratch)
    w4 = m
    w4 -= scratch
    # significant digits: 17 less the trailing zeros
    zeros = tables.zeros4.take(w1)
    for group in (w2, w3, w4):
        tables.zeros4.take(group, out=scratch)
        zeros *= scratch == 4
        zeros += scratch
    code = tables.point_class.take(point)
    code *= 17
    code -= zeros
    code += 16
    code <<= 1
    code += bits < 0
    # text words: byte 6 '-', byte 7 d0, bytes 8..23 w1..w4
    word0 = d0.astype(np.uint64)
    word0 += 48
    word0 <<= 56
    word0 |= ord("-") << 48
    word1 = tables.digits4.take(w1)
    word2 = tables.digits4.take(w3)
    carry = tables.digits4.take(w2)
    carry <<= 32
    word1 |= carry
    tables.digits4.take(w4, out=carry)
    carry <<= 32
    word2 |= carry
    del d0, w1, w2, w3, w4, m, zeros, scratch
    # the bytes from the insertion point on move up by `shift` bits; the
    # inserted bytes fill the gap
    shift = tables.insert[6].take(point)
    back = np.subtract(64, shift)
    rows = np.empty((n, _ROW // 8), _U64)
    for j, word in enumerate((word0, word1, word2)):
        low = tables.insert[j].take(point)
        low &= word
        word ^= low  # the bytes that move
        if j:
            np.right_shift(previous, back, out=carry)
            low |= carry
        np.left_shift(word, shift, out=carry)
        low |= carry
        tables.insert[3 + j].take(point, out=carry)
        low |= carry
        rows[:, j] = low
        previous = word
    np.right_shift(previous, back, out=carry)
    rows[:, 3] = carry
    del word0, word1, word2, previous, word, low, carry, shift, back
    rows[:, 4] = tables.exponent_word.take(point)
    text = rows.view(np.uint8).reshape(-1)
    end = tables.line_end.take(code)
    end += np.arange(0, n * _ROW, _ROW)
    text[end] = ord("\n")
    keep = tables.masks.take(code, axis=0).reshape(-1)
    text = text[keep]
    del rows, keep
    return text.tobytes().decode("ascii")
