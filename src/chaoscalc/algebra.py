"""Exact Hermite-basis algebra for polynomials in independent standard Gaussians.

A polynomial is stored as a sparse linear combination of monomials
``prod_i He_{k_i}(G_i)`` where ``He_k`` is the probabilists' Hermite polynomial
(``He_2 = x**2 - 1``) and the ``G_i`` are independent standard Gaussian
coordinates.  Coefficients are exact rationals.  The basis is orthogonal under
the Gaussian law with per-variable weight ``<He_j, He_k> = k! * delta_{jk}``,
so expectations, inner products and moments reduce to exact combinatorial sums.

Degree-``p`` homogeneous polynomials (all monomials of total degree ``p``) span
the order-``p`` stratum of this algebra; strata for different ``p`` are
mutually orthogonal.

Products run on integer numerators.  ``ChaosPoly.__mul__`` scales each operand
to integers over the lcm of its own denominators, expands every pairwise
monomial product in Python ints (``_expand_product``, also the expansion loop
of ``decompose.rotate_basis``) and normalises once, building one ``Fraction``
per output term.  ``inner_product`` likewise sums the shared terms' integer
numerators and builds one ``Fraction``.  ``_lower`` takes one monomial's
derivative in one variable (``He_k' = k He_{k-1}``); ``partial_derivative``
and the influence form of ``influence._influence_form``, which runs on
``_numerators`` and ``_expand_product`` without building ``ChaosPoly``
values, share it.  Sums and scalings stay on ``Fraction``.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import MissingVariableError, ParseError, PreconditionError

RationalLike = Fraction | int | float | str


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact rational.  Floats convert via their exact binary value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational coefficient")


_WEIGHT_CACHE_SIZE = 1 << 14
_HERMITE_PRODUCT_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weight(entries: tuple[tuple[int, int], ...]) -> int:
    w = 1
    for _, deg in entries:
        w *= math.factorial(deg)
    return w


class MultiIndex:
    """Exponent pattern of one Hermite monomial: variable id -> degree.

    Stored degrees are strictly positive (an absent variable has degree zero)
    and variable ids are positive integers kept in ascending order.
    """

    __slots__ = ("entries", "total_degree", "_hash")

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = dict(entries)
        for var, deg in pairs.items():
            if not isinstance(var, int) or isinstance(var, bool) or var < 1:
                raise ValueError(f"variable ids must be positive integers, got {var!r}")
            if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
                raise ValueError(f"degrees must be positive integers, got {deg!r} for variable {var}")
        self.entries = tuple(sorted(pairs.items()))
        self.total_degree = sum(d for _, d in self.entries)
        self._hash = hash(self.entries)

    @classmethod
    def _from_sorted(cls, entries: tuple[tuple[int, int], ...]) -> "MultiIndex":
        obj = object.__new__(cls)
        obj.entries = entries
        obj.total_degree = sum(d for _, d in entries)
        obj._hash = hash(entries)
        return obj

    @property
    def weight(self) -> int:
        """Orthogonality weight ``prod_i k_i!`` of the monomial."""
        return _weight(self.entries)

    def degree_of(self, var: int) -> int:
        for v, d in self.entries:
            if v == var:
                return d
        return 0

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    def is_constant(self) -> bool:
        return not self.entries

    def sort_key(self) -> tuple:
        return (self.total_degree, self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultiIndex({dict(self.entries)!r})"


EMPTY_INDEX = MultiIndex()


@lru_cache(maxsize=_HERMITE_PRODUCT_CACHE_SIZE)
def hermite_product_1d(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Linearization ``He_m * He_n = sum_r C(m,r) C(n,r) r! He_{m+n-2r}``.

    Returns ``((output_degree, integer_coefficient), ...)``.
    """
    return tuple(
        (m + n - 2 * r, math.comb(m, r) * math.comb(n, r) * math.factorial(r))
        for r in range(min(m, n) + 1)
    )


Entries = tuple[tuple[int, int], ...]


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


def _expand_product(
    a: Mapping[Entries, int],
    b: Mapping[Entries, int],
    memo: dict[tuple[Entries, Entries], list[tuple[Entries, int]]] | None = None,
) -> dict[Entries, int]:
    """Product of two polynomials held as integer numerators, back on the Hermite basis.

    Monomials are keyed by their entries tuples.  The result's denominator is
    the product of the operands' denominators; the caller divides once.  Zero
    totals are dropped.  ``memo`` caches monomial products across calls that
    share it.
    """
    out: dict[Entries, int] = {}
    get = out.get
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            if memo is None:
                pairs = _index_product(e1, e2)
            else:
                pairs = memo.get((e1, e2))
                if pairs is None:
                    pairs = memo[e1, e2] = _index_product(e1, e2)
            n = n1 * n2
            for entries, mult in pairs:
                out[entries] = get(entries, 0) + n * mult
    return {entries: t for entries, t in out.items() if t}


def _numerators(terms: Mapping[MultiIndex, Fraction]) -> tuple[int, dict[Entries, int]]:
    """``(D, {entries: c * D})`` with ``D`` the lcm of the coefficients' denominators."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return denom, {idx.entries: c.numerator * (denom // c.denominator) for idx, c in terms.items()}


class ChaosPoly:
    """Sparse polynomial in the Hermite basis with exact rational coefficients.

    Instances are immutable by contract: no operation mutates its inputs and
    the term mapping is never exposed for writing.  The zero polynomial is the
    empty term map and its ``degree`` is ``None``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[MultiIndex, Fraction] = {}
        for idx, coeff in items:
            if not isinstance(idx, MultiIndex):
                idx = MultiIndex(idx)
            c = as_fraction(coeff)
            if idx in data:
                data[idx] += c
            else:
                data[idx] = c
        self._terms = {i: c for i, c in data.items() if c != 0}

    @classmethod
    def _from_clean(cls, terms: dict[MultiIndex, Fraction]) -> "ChaosPoly":
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def _from_numerators(cls, totals: Mapping[Entries, int], denom: int) -> "ChaosPoly":
        """``sum totals[e] / denom * He_e``, one normalised ``Fraction`` per nonzero total."""
        return cls._from_clean(
            {MultiIndex._from_sorted(e): Fraction(t, denom) for e, t in totals.items() if t}
        )

    @classmethod
    def zero(cls) -> "ChaosPoly":
        return cls._from_clean({})

    @classmethod
    def constant(cls, value: RationalLike) -> "ChaosPoly":
        c = as_fraction(value)
        return cls._from_clean({EMPTY_INDEX: c} if c else {})

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        return dict(self._terms)

    @property
    def degree(self) -> int | None:
        """Maximal total degree over stored terms; ``None`` for the zero polynomial."""
        if not self._terms:
            return None
        return max(idx.total_degree for idx in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> Fraction:
        return self._terms.get(EMPTY_INDEX, Fraction(0))

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for idx in self._terms:
            seen.update(idx.variables())
        return tuple(sorted(seen))

    def coefficient(self, index: MultiIndex | Mapping[int, int]) -> Fraction:
        if not isinstance(index, MultiIndex):
            index = MultiIndex(index)
        return self._terms.get(index, Fraction(0))

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
        for idx in sorted(self._terms, key=MultiIndex.sort_key):
            c = self._terms[idx]
            mono = "*".join(f"He{d}(G{v})" for v, d in idx.entries) or "1"
            bits.append(f"{c}*{mono}")
        return "ChaosPoly(" + " + ".join(bits) + ")"

    # -- evaluation ---------------------------------------------------------

    def eval(self, point: Mapping[int, float | Fraction]):
        """Evaluate at a point via ``hermite_values``.

        The result type follows the point values: exact rationals in, exact
        rational out; floats in, float out.
        """
        missing = set(self.variables()) - set(point)
        if missing:
            raise MissingVariableError(missing)
        tops: dict[int, int] = {}
        for idx in self._terms:
            for var, deg in idx.entries:
                tops[var] = max(tops.get(var, 0), deg)
        tables = {var: hermite_values(point[var], top) for var, top in tops.items()}
        total = 0
        for idx, coeff in self._terms.items():
            prod = coeff
            for var, deg in idx.entries:
                prod = prod * tables[var][deg]
            total = total + prod
        return total


def hermite_values(x, upto: int) -> list:
    """``[He_0(x), ..., He_upto(x)]`` by the recurrence ``He_{k+1}(x) = x He_k(x) - k He_{k-1}(x)``.

    Exact for rationals; elementwise for floats and numpy arrays.
    """
    values = [1, x]
    for k in range(1, upto):
        values.append(x * values[k] - k * values[k - 1])
    return values[: upto + 1]


# -- constructors -------------------------------------------------------------


def gaussian(var: int) -> ChaosPoly:
    """The coordinate ``G_var`` itself (degree-1 monomial)."""
    return hermite_monomial({var: 1})


def hermite_monomial(index: Mapping[int, int] | MultiIndex, coeff: RationalLike = 1) -> ChaosPoly:
    """A single basis monomial ``coeff * prod_i He_{k_i}(G_i)``."""
    if not isinstance(index, MultiIndex):
        index = MultiIndex(index)
    c = as_fraction(coeff)
    if not c:
        return ChaosPoly.zero()
    return ChaosPoly._from_clean({index: c})


def fresh_variables(polys: Iterable[ChaosPoly], count: int) -> tuple[int, ...]:
    """Allocate ``count`` variable ids not used by any of ``polys`` (max used + 1, ...)."""
    top = 0
    for f in polys:
        for v in f.variables():
            top = max(top, v)
    return tuple(range(top + 1, top + 1 + count))


# -- operations ---------------------------------------------------------------


def add(f: ChaosPoly, g: ChaosPoly) -> ChaosPoly:
    return f + g


def mul(f: ChaosPoly, g: ChaosPoly) -> ChaosPoly:
    return f * g


def _lower(entries: Entries, var: int) -> tuple[int, Entries]:
    """``(k, entries)`` with ``var``'s degree ``k`` lowered by one: ``d_var He_e = k He_lowered``.

    ``k`` is 0 and ``entries`` come back unchanged when ``var`` is absent.
    """
    for i, (v, k) in enumerate(entries):
        if v == var:
            rest = ((v, k - 1),) if k > 1 else ()
            return k, entries[:i] + rest + entries[i + 1:]
    return 0, entries


def partial_derivative(f: ChaosPoly, var: int) -> ChaosPoly:
    """Exact partial derivative, using ``He_k' = k He_{k-1}``.

    Lowering ``var`` maps distinct monomials that hold it to distinct
    monomials, so no two terms merge.
    """
    if not isinstance(var, int) or var < 1:
        raise ValueError(f"variable ids must be positive integers, got {var!r}")
    out: dict[MultiIndex, Fraction] = {}
    for idx, coeff in f._terms.items():
        deg, lowered = _lower(idx.entries, var)
        if deg:
            out[MultiIndex._from_sorted(lowered)] = coeff * deg
    return ChaosPoly._from_clean(out)


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
    shared = [(idx.entries, cf, g_terms[idx]) for idx, cf in f._terms.items() if idx in g_terms]
    if not shared:
        return Fraction(0)
    df = math.lcm(*(cf.denominator for _, cf, _ in shared))
    dg = math.lcm(*(cg.denominator for _, _, cg in shared))
    total = sum(
        cf.numerator * (df // cf.denominator) * cg.numerator * (dg // cg.denominator) * _weight(e)
        for e, cf, cg in shared
    )
    return Fraction(total, df * dg)


def norm_sq(f: ChaosPoly) -> Fraction:
    return inner_product(f, f)


def project_chaos(f: ChaosPoly, m: int) -> ChaosPoly:
    """Orthogonal projection onto the degree-``m`` stratum: keep total degree ``m``."""
    if not isinstance(m, int) or m < 0:
        raise PreconditionError(f"projection degree must be a nonnegative integer, got {m!r}")
    return ChaosPoly._from_clean(
        {idx: c for idx, c in f._terms.items() if idx.total_degree == m}
    )


def compose_hermite(level: int, x: ChaosPoly) -> ChaosPoly:
    """``He_level`` evaluated at the polynomial ``x``, re-expanded on the basis."""
    if not isinstance(level, int) or level < 0:
        raise PreconditionError(f"Hermite level must be a nonnegative integer, got {level!r}")
    if level == 0:
        return ChaosPoly.constant(1)
    return hermite_values(x, level)[level]


def evaluate(f: ChaosPoly, point: Mapping[int, float | Fraction]):
    return f.eval(point)


def poly_pow(f: ChaosPoly, n: int) -> ChaosPoly:
    if not isinstance(n, int) or n < 0:
        raise PreconditionError(f"exponent must be a nonnegative integer, got {n!r}")
    result = ChaosPoly.constant(1)
    base = f
    while n:
        if n & 1:
            result = result * base
        base_needed = n >> 1
        if base_needed:
            base = base * base
        n = base_needed
    return result


def moment(f: ChaosPoly, k: int) -> Fraction:
    """Exact ``E[f**k]``.

    Splits the power as ``E[f**a * f**b]`` with ``a = k // 2`` so only powers up
    to ``ceil(k/2)`` need expanding.
    """
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"moment order must be a positive integer, got {k!r}")
    a = k // 2
    b = k - a
    fa = poly_pow(f, a)
    fb = fa * f if b == a + 1 else fa
    return inner_product(fa, fb)


def homogeneous_degree(f: ChaosPoly, name: str = "polynomial") -> int:
    """Degree of a single-stratum polynomial; raises if terms span several strata.

    The zero polynomial and constants report degree 0.
    """
    degrees = {idx.total_degree for idx in f._terms}
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
    for idx in sorted(f._terms, key=MultiIndex.sort_key):
        terms.append(
            {
                "coeff": str(f._terms[idx]),
                "index": {str(v): d for v, d in idx.entries},
            }
        )
    return {"terms": terms}


def poly_to_json(f: ChaosPoly) -> str:
    return json.dumps(poly_to_json_dict(f), sort_keys=True, separators=(",", ":"))


def poly_from_json_dict(data) -> ChaosPoly:
    if not isinstance(data, dict) or "terms" not in data:
        raise ParseError("polynomial JSON must be an object with a 'terms' array")
    raw_terms = data["terms"]
    if not isinstance(raw_terms, list):
        raise ParseError("'terms' must be an array")
    out: dict[MultiIndex, Fraction] = {}
    for pos, term in enumerate(raw_terms):
        where = f"term {pos}"
        if not isinstance(term, dict) or "coeff" not in term or "index" not in term:
            raise ParseError(f"{where}: expected an object with 'coeff' and 'index'")
        try:
            coeff = Fraction(str(term["coeff"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad coefficient {term['coeff']!r}: {exc}") from None
        if coeff == 0:
            raise ParseError(f"{where}: zero coefficient is not allowed")
        index = term["index"]
        if not isinstance(index, dict):
            raise ParseError(f"{where}: 'index' must be an object")
        entries = {}
        for key, deg in index.items():
            try:
                var = int(key)
            except ValueError:
                raise ParseError(f"{where}: bad variable id {key!r}") from None
            if var < 1:
                raise ParseError(f"{where}: variable ids must be positive, got {var}")
            if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
                raise ParseError(
                    f"{where}: degree for variable {var} must be a positive integer, got {deg!r}"
                )
            if var in entries:
                raise ParseError(f"{where}: duplicate variable id {var}")
            entries[var] = deg
        idx = MultiIndex(entries)
        if idx in out:
            raise ParseError(f"{where}: duplicate index {dict(idx.entries)}")
        out[idx] = coeff
    return ChaosPoly._from_clean(out)


def poly_from_json(text: str) -> ChaosPoly:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return poly_from_json_dict(data)
