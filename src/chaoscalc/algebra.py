"""Exact Hermite-basis algebra for polynomials in independent standard Gaussians.

A polynomial is stored as a sparse linear combination of monomials
``prod_i He_{k_i}(G_i)`` where ``He_k`` is the probabilists' Hermite polynomial
(``He_2 = x**2 - 1``) and the ``G_i`` are independent standard Gaussian
coordinates.  Coefficients are exact rationals.  The basis is orthogonal under
the Gaussian law with per-variable weight ``<He_j, He_k> = k! * delta_{jk}``,
so expectations, inner products and moments reduce to exact combinatorial sums.

A monomial is its entries: the tuple ``((variable, degree), ...)`` in
ascending variable order with positive degrees, ``()`` for the constant.
``ChaosPoly`` keys its coefficients on these tuples, and every integer core
below runs on them.

Degree-``p`` homogeneous polynomials (all monomials of total degree ``p``) span
the order-``p`` stratum of this algebra; strata for different ``p`` are
mutually orthogonal.

Products run on integer numerators.  ``ChaosPoly.__mul__`` scales each operand
to integers over the lcm of its own denominators, expands every pairwise
monomial product in Python ints (``_expand_product``) and normalises once,
building one ``Fraction`` per output term.  (The ``decompose`` split needs no
Hermite products: it expands ordinary powers, see that module.)
``inner_product`` likewise sums the shared terms' integer numerators and
builds one ``Fraction``.  ``_gradients`` takes every partial derivative of a
polynomial held as integer numerators (``He_k' = k He_{k-1}``), and
``malliavin.gamma_gradient`` pairs two such gradients.  ``_times_coordinate``
multiplies integer numerators by one coordinate ``G_w`` with the raising
rule ``G He_k = He_{k+1} + k He_{k-1}``, without the general product; the
influence form builds its carre du champ from it.  Sums and scalings stay on
``Fraction``.

Every result reaches JSON through one encoder, ``JsonResult.to_json_dict``:
one key per dataclass field, valued by ``json_value``, and a ``Fraction``
field ``x`` twice, as the float ``x`` and the exact string ``x_exact``.  The
one route to the bytes is the command line's
``canonical_json(json_value(result))``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import ParseError, PreconditionError, as_integer

RationalLike = Fraction | int | float | str


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact rational.  Floats convert via their exact binary value;
    a NaN or infinite float is a ``PreconditionError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise PreconditionError(f"coefficients must be finite, got {value!r}")
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational coefficient")


_WEIGHT_CACHE_SIZE = 1 << 14
_HERMITE_PRODUCT_CACHE_SIZE = 1 << 10
_RAISE_CACHE_SIZE = 1 << 14


Entries = tuple[tuple[int, int], ...]
EMPTY_INDEX: Entries = ()
MonomialLike = Mapping[int, int] | Iterable[tuple[int, int]]


def _monomial(index: MonomialLike) -> Entries:
    """The entries of a monomial given as ``{variable: degree}`` or as pairs.

    Variable ids and degrees must be positive integers, each variable listed
    once; absent variables have degree zero.
    """
    pairs = {}
    for var, deg in index.items() if isinstance(index, Mapping) else index:
        var = as_integer(var, "variable ids must be positive integers", 1)
        if var in pairs:
            raise PreconditionError(f"variable {var} repeats")
        pairs[var] = as_integer(deg, f"degrees must be positive integers for variable {var}", 1)
    return tuple(sorted(pairs.items()))


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weight(entries: Entries) -> int:
    """Orthogonality weight ``prod_i k_i!`` of the monomial."""
    w = 1
    for _, deg in entries:
        w *= math.factorial(deg)
    return w


def _degree(entries: Entries) -> int:
    return sum(d for _, d in entries)


def _sort_key(entries: Entries) -> tuple:
    """The canonical term order: total degree, then entries."""
    return (_degree(entries), entries)


@lru_cache(maxsize=_HERMITE_PRODUCT_CACHE_SIZE)
def hermite_product_1d(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Linearization ``He_m * He_n = sum_r C(m,r) C(n,r) r! He_{m+n-2r}``.

    Returns ``((output_degree, integer_coefficient), ...)``.
    """
    return tuple(
        (m + n - 2 * r, math.comb(m, r) * math.comb(n, r) * math.factorial(r))
        for r in range(min(m, n) + 1)
    )


def _index_product(a: Entries, b: Entries) -> list[tuple[Entries, int]]:
    """Expand the product of two Hermite monomials, given as sorted
    ``(variable, degree)`` entries, back onto the Hermite basis."""
    db = dict(b)
    base = [(v, d) for v, d in a if v not in db]
    shared = [(v, d, db.pop(v)) for v, d in a if v in db]
    base.extend(db.items())
    if not shared:
        return [(tuple(sorted(base)), 1)]
    out = []
    for combo in itertools.product(*(hermite_product_1d(m, n) for _, m, n in shared)):
        entries = list(base)
        mult = 1
        for (v, _, _), (deg, coeff) in zip(shared, combo):
            if deg:
                entries.append((v, deg))
            mult *= coeff
        entries.sort()
        out.append((tuple(entries), mult))
    return out


def _expand_product(a: Mapping[Entries, int], b: Mapping[Entries, int]) -> dict[Entries, int]:
    """Product of two polynomials held as integer numerators, back on the Hermite basis.

    The result's denominator is the product of the operands' denominators; the
    caller divides once.  Zero totals are dropped.
    """
    out: dict[Entries, int] = {}
    get = out.get
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            n = n1 * n2
            for entries, mult in _index_product(e1, e2):
                out[entries] = get(entries, 0) + n * mult
    return {entries: t for entries, t in out.items() if t}


def _numerators(terms: Mapping[Entries, Fraction]) -> tuple[int, dict[Entries, int]]:
    """``(D, {entries: c * D})``, the same monomials over ``D``, the lcm of the denominators."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return denom, {idx: c.numerator * (denom // c.denominator) for idx, c in terms.items()}


class ChaosPoly:
    """Sparse polynomial in the Hermite basis with exact rational coefficients.

    Instances are immutable by contract: no operation mutates its inputs and
    the term mapping is never exposed for writing.  The zero polynomial is the
    empty term map and its ``degree`` is ``None``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Entries, Fraction] = {}
        for idx, coeff in items:
            idx = _monomial(idx)
            c = as_fraction(coeff)
            if idx in data:
                data[idx] += c
            else:
                data[idx] = c
        self._terms = {i: c for i, c in data.items() if c != 0}

    @classmethod
    def _from_clean(cls, terms: dict[Entries, Fraction]) -> "ChaosPoly":
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def _from_numerators(cls, totals: Mapping[Entries, int], denom: int) -> "ChaosPoly":
        """``sum totals[e] / denom * He_e``, one normalised ``Fraction`` per nonzero total."""
        return cls._from_clean({e: Fraction(t, denom) for e, t in totals.items() if t})

    @classmethod
    def zero(cls) -> "ChaosPoly":
        return cls._from_clean({})

    @classmethod
    def constant(cls, value: RationalLike) -> "ChaosPoly":
        c = as_fraction(value)
        return cls._from_clean({EMPTY_INDEX: c} if c else {})

    @property
    def terms(self) -> Mapping[Entries, Fraction]:
        return dict(self._terms)

    @property
    def degree(self) -> int | None:
        """Maximal total degree over stored terms; ``None`` for the zero polynomial."""
        if not self._terms:
            return None
        return max(map(_degree, self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> Fraction:
        return self._terms.get(EMPTY_INDEX, Fraction(0))

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for idx in self._terms:
            seen.update(v for v, _ in idx)
        return tuple(sorted(seen))

    def coefficient(self, index: MonomialLike) -> Fraction:
        return self._terms.get(_monomial(index), Fraction(0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ChaosPoly":
        if not isinstance(other, ChaosPoly):
            other = ChaosPoly.constant(other)
        out = dict(self._terms)
        for idx, c in other._terms.items():
            s = out.get(idx, 0) + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return ChaosPoly._from_clean(out)

    __radd__ = __add__

    def __neg__(self) -> "ChaosPoly":
        return ChaosPoly._from_clean({i: -c for i, c in self._terms.items()})

    def __sub__(self, other) -> "ChaosPoly":
        if not isinstance(other, ChaosPoly):
            other = ChaosPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "ChaosPoly":
        return (-self) + other

    def __mul__(self, other) -> "ChaosPoly":
        if not isinstance(other, ChaosPoly):
            c = as_fraction(other)
            if not c:
                return ChaosPoly.zero()
            return ChaosPoly._from_clean({i: c * v for i, v in self._terms.items()})
        da, na = _numerators(self._terms)
        db, nb = _numerators(other._terms)
        return ChaosPoly._from_numerators(_expand_product(na, nb), da * db)

    def __rmul__(self, other) -> "ChaosPoly":
        return self.__mul__(other)

    def __truediv__(self, other) -> "ChaosPoly":
        c = as_fraction(other)
        return self * (Fraction(1) / c)

    def __eq__(self, other) -> bool:
        return isinstance(other, ChaosPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "ChaosPoly(0)"
        bits = []
        for idx in sorted(self._terms, key=_sort_key):
            c = self._terms[idx]
            mono = "*".join(f"He{d}(G{v})" for v, d in idx) or "1"
            bits.append(f"{c}*{mono}")
        return "ChaosPoly(" + " + ".join(bits) + ")"


def hermite_values(x, upto: int) -> list:
    """``[He_0(x), ..., He_upto(x)]`` by the recurrence ``He_{k+1}(x) = x He_k(x) - k He_{k-1}(x)``.

    Exact for rationals; elementwise for floats and numpy arrays.
    """
    values = [1, x]
    for k in range(1, upto):
        values.append(x * values[k] - k * values[k - 1])
    return values[: upto + 1]


# -- constructors -------------------------------------------------------------


def hermite_monomial(index: MonomialLike, coeff: RationalLike = 1) -> ChaosPoly:
    """A single basis monomial ``coeff * prod_i He_{k_i}(G_i)``."""
    index = _monomial(index)
    c = as_fraction(coeff)
    if not c:
        return ChaosPoly.zero()
    return ChaosPoly._from_clean({index: c})


# -- operations ---------------------------------------------------------------


def _gradients(nums: Mapping[Entries, int]) -> dict[int, dict[Entries, int]]:
    """Every partial derivative of ``sum nums[e] He_e``: ``{v: {lowered entries: k * num}}``.

    ``d_v He_e = k He_{e lowered in v}``; distinct monomials stay distinct, so no terms merge.
    """
    grads: dict[int, dict[Entries, int]] = {}
    for entries, num in nums.items():
        for i, (v, k) in enumerate(entries):
            rest = ((v, k - 1),) if k > 1 else ()
            grads.setdefault(v, {})[entries[:i] + rest + entries[i + 1:]] = k * num
    return grads


@lru_cache(maxsize=_RAISE_CACHE_SIZE)
def _raised_keys(entries: Entries, w: int) -> tuple[Entries, Entries, int]:
    """``(e + 1_w, e - 1_w, k)`` for the entries ``e``, of degree ``k`` in ``w``.

    ``e - 1_w`` is meaningless at ``k = 0``, where the raising rule has no lower term.
    """
    i = bisect_left(entries, (w,))
    head = entries[:i]
    if i < len(entries) and entries[i][0] == w:
        k = entries[i][1]
        tail = entries[i + 1:]
        down = head + ((w, k - 1),) + tail if k > 1 else head + tail
        return head + ((w, k + 1),) + tail, down, k
    return head + ((w, 1),) + entries[i:], entries, 0


def _times_coordinate(nums: Mapping[Entries, int], w: int) -> dict[Entries, int]:
    """``G_w * sum nums[e] He_e`` by the raising rule ``G He_k = He_{k+1} + k He_{k-1}``.

    Equal to ``_expand_product(nums, {((w, 1),): 1})``; zero totals are dropped.
    """
    out: dict[Entries, int] = {}
    get = out.get
    for entries, num in nums.items():
        up, down, k = _raised_keys(entries, w)
        out[up] = get(up, 0) + num
        if k:
            out[down] = get(down, 0) + k * num
    return {entries: t for entries, t in out.items() if t}


def expectation(f: ChaosPoly) -> Fraction:
    """Gaussian expectation: the constant-term coefficient (centered basis)."""
    return f.constant_term()


def inner_product(f: ChaosPoly, g: ChaosPoly) -> Fraction:
    """L2 pairing ``E[f g] = sum over shared indices of c_f c_g prod_i k_i!``. Exact.

    Each side's shared coefficients are scaled to integers over the lcm of
    their own denominators; the weighted products are summed in ints and
    divided once.
    """
    if len(f._terms) > len(g._terms):
        f, g = g, f
    g_terms = g._terms
    shared = [(idx, cf, g_terms[idx]) for idx, cf in f._terms.items() if idx in g_terms]
    if not shared:
        return Fraction(0)
    df = math.lcm(*(cf.denominator for _, cf, _ in shared))
    dg = math.lcm(*(cg.denominator for _, _, cg in shared))
    total = sum(
        cf.numerator * (df // cf.denominator) * cg.numerator * (dg // cg.denominator) * _weight(e)
        for e, cf, cg in shared
    )
    return Fraction(total, df * dg)


def project_chaos(f: ChaosPoly, m: int) -> ChaosPoly:
    """Orthogonal projection onto the degree-``m`` stratum: keep total degree ``m``."""
    m = as_integer(m, "projection degree must be a nonnegative integer", 0)
    return ChaosPoly._from_clean({idx: c for idx, c in f._terms.items() if _degree(idx) == m})


def poly_pow(f: ChaosPoly, n: int) -> ChaosPoly:
    """``f**n`` by repeated squaring; the product starts from the first factor it needs."""
    n = as_integer(n, "exponent must be a nonnegative integer", 0)
    if n == 0:
        return ChaosPoly.constant(1)
    result = None
    base = f
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def moment(f: ChaosPoly, k: int) -> Fraction:
    """Exact ``E[f**k]``.

    Splits the power as ``E[f**a * f**b]`` with ``a = k // 2`` so only powers up
    to ``ceil(k/2)`` need expanding.
    """
    k = as_integer(k, "moment order must be a positive integer", 1)
    a = k // 2
    b = k - a
    fa = poly_pow(f, a)
    fb = fa * f if b == a + 1 else fa
    return inner_product(fa, fb)


def homogeneous_degree(f: ChaosPoly, name: str = "polynomial") -> int:
    """Degree of a single-stratum polynomial; raises if terms span several strata.

    The zero polynomial and constants report degree 0.
    """
    degrees = set(map(_degree, f._terms))
    if not degrees:
        return 0
    if len(degrees) > 1:
        raise PreconditionError(
            f"{name} is not homogeneous: term degrees {sorted(degrees)}"
        )
    return degrees.pop()


# -- canonical JSON polynomial format -----------------------------------------


def poly_to_json_dict(f: ChaosPoly) -> dict:
    """Canonical form: terms sorted by (total degree, index), rationals as strings."""
    terms = []
    for idx in sorted(f._terms, key=_sort_key):
        terms.append({"coeff": str(f._terms[idx]), "index": {str(v): d for v, d in idx}})
    return {"terms": terms}


def canonical_json(data) -> str:
    """Compact JSON with sorted keys; NaN or an infinity raises ``ValueError``, as JSON has none."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def json_value(value):
    """The JSON value of a result: ``ChaosPoly`` by ``poly_to_json_dict``, a
    ``JsonResult`` by its ``to_json_dict()``, tuples and lists as arrays, dict
    keys as ``str(k)`` (so ``sort_keys`` orders them as strings); others as is."""
    if isinstance(value, ChaosPoly):
        return poly_to_json_dict(value)
    if isinstance(value, JsonResult):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    return value


class JsonResult:
    """A result whose ``to_json_dict()`` has one key per dataclass field (module docstring)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Fraction):
                out[field.name], out[field.name + "_exact"] = float(value), str(value)
            else:
                out[field.name] = json_value(value)
        return out


def _decode_json(text: str):
    """``json.loads(text)``, or a ``ParseError`` naming the line and column or a repeated key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _unique_keys(pairs: list) -> dict:
    """One JSON object's pairs as a dict; a repeated key is a ``ParseError``."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return out


def _parse_coeff(raw, where: str) -> Fraction:
    """A nonzero rational from a JSON coefficient, or a ``ParseError`` that names ``where``."""
    try:
        coeff = Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad coefficient {raw!r}: {exc}") from None
    if coeff == 0:
        raise ParseError(f"{where}: zero coefficient is not allowed")
    return coeff


def _parse_int(text: str) -> int:
    """The int that ``text`` spells only as ``str`` writes it: ASCII, no padding or ``+``."""
    if not text.isascii() or str(int(text)) != text:
        raise ValueError(f"not a canonical integer: {text!r}")
    return int(text)


def poly_from_json_dict(data) -> ChaosPoly:
    if not isinstance(data, dict) or "terms" not in data:
        raise ParseError("polynomial JSON must be an object with a 'terms' array")
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list):
        raise ParseError("'terms' must be an array")
    out: dict[Entries, Fraction] = {}
    for pos, term in enumerate(raw_terms):
        where = f"term {pos}"
        if not isinstance(term, dict) or "coeff" not in term or "index" not in term:
            raise ParseError(f"{where}: expected an object with 'coeff' and 'index'")
        coeff = _parse_coeff(term["coeff"], where)
        index = term["index"]
        if not isinstance(index, dict):
            raise ParseError(f"{where}: 'index' must be an object")
        entries = {}
        for key, deg in index.items():
            try:
                var = _parse_int(key)
            except ValueError:
                raise ParseError(f"{where}: bad variable id {key!r}") from None
            if var < 1:
                raise ParseError(f"{where}: variable ids must be positive, got {var}")
            if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
                raise ParseError(
                    f"{where}: degree for variable {var} must be a positive integer, got {deg!r}"
                )
            entries[var] = deg
        idx = tuple(sorted(entries.items()))
        if idx in out:
            raise ParseError(f"{where}: duplicate index {dict(idx)}")
        out[idx] = coeff
    return ChaosPoly._from_clean(out)


def poly_from_json(text: str) -> ChaosPoly:
    return poly_from_json_dict(_decode_json(text))
