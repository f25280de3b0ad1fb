"""Directional influence semi-norms.

``rho_q(f)`` is the supremum of the L2 norm of the carre du champ of ``(f, x)``
over unit-norm degree-``q`` test polynomials ``x``.  Over a finite monomial
basis of the degree-``q`` stratum this is a symmetric eigenproblem: assemble
``Q[a, b] = <Gamma(f, e_a), Gamma(f, e_b)>`` for an orthonormal basis ``e_a``
and take the square root of the top eigenvalue.  ``_influence_form`` is the
one assembly for every degree.  Each ``d_v e_a`` is a single Hermite
monomial, so ``Gamma(f, e_a) = sum_{(v, k) in a} k d_v f He_{a - 1_v}`` is
built from the gradient of ``f`` by the raising rule ``G_w He_k = He_{k+1} +
k He_{k-1}`` (``algebra._times_coordinate``), one coordinate at a time, with
no general Hermite product.

Every influence (``rho_q``, ``strongest_influence``, each
``decompose.iterate_decomposition`` step, the ``rho`` of
``montecarlo.normality_report``) is read off ``_influence_scan``, over the
paper's test space: the whole degree-``q`` chaos, padded with fresh
variables.  The first degree whose running max clears a threshold is the
first whose own solve clears it, and the item there is that degree's own.
Each degree's basis is over the variables of ``f`` alone, and one budget
(``_budgeted_degrees``) caps both its dimension and the scan's work up to it:
``rho_q``, ``strongest_influence`` and ``montecarlo.normality_report`` check
every degree they solve before the first solve, and a decomposition step
checks each degree as it reaches it.

Every entry of ``Q`` is an exact rational, summed on integer numerators and
rounded once to a float, with powers of two taken out so that high degrees
(``q >= 100``) do not overflow the conversion; only the eigensolve (LAPACK
``eigh``) runs in floats.  The reported direction does not depend on the
solver: it is the normalized projection of the first standard basis vector
onto the top eigenspace (see ``_top_eigenpair``), so degenerate top
eigenspaces still give a defined direction.  Its float error is reported as
``eigen_residual``, ``||Q v - lambda v||``, next to the ``eigengap``.

A degree-1 direction is snapped to an exactly unit rational vector
(``_unit_rational``): the inverse stereographic image of the float vector
rounded on the grid ``STEREO_GRID``.  Each coordinate moves by about
``2 * 2**-53`` beyond the float vector's own norm error ``|sum v**2 - 1|``,
at the level of the eigensolve's rounding, and the coordinates share one
denominator below ``2**107``, so the exact split along the direction
(``decompose.decompose_along``) needs no rescaling.  Degree ``q >= 2``
directions are unit for the weighted norm ``sum_a a! c_a**2``, which need not
have rational points; each coordinate is the exact value of a float, divided
exactly by a power of two, so none underflows (``_degree_influence``).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from ._kernels import jacobi_eigh
from .algebra import (
    ChaosPoly,
    Entries,
    JsonResult,
    _degree,
    _gradients,
    _numerators,
    _times_coordinate,
    _weight,
    as_fraction,
    homogeneous_degree,
)
from .errors import BasisSizeError, PreconditionError, as_integer, as_positive_real

DEFAULT_BASIS_CAP = 512
BASIS_CAP_ENV = "CHAOSCALC_MAX_BASIS_DIM"
TOP_CLUSTER_RTOL = 1e-9
# the grid of the stereographic snap: one float ulp at unit scale
STEREO_GRID = 2**53


@dataclass(frozen=True)
class InfluenceResult(JsonResult):
    q: int
    value: float
    direction: ChaosPoly
    basis_dimension: int
    # top eigenvalue of the form (a squared influence) minus the largest one
    # outside the top cluster; None when every eigenvalue is in the cluster
    eigengap: float | None = None
    # ||Q v - lambda v|| of the float unit eigenvector before any snap; None
    # on an empty basis
    eigen_residual: float | None = None


@dataclass(frozen=True)
class StrongestInfluence(JsonResult):
    """Least degree q at which the influence clears the caller's threshold."""

    q_star: int | None
    rho_values: dict[int, float]
    direction: ChaosPoly | None
    threshold: float


def _basis_cap() -> int:
    """The basis-dimension cap: ``CHAOSCALC_MAX_BASIS_DIM`` if set, else ``DEFAULT_BASIS_CAP``."""
    raw = os.environ.get(BASIS_CAP_ENV, "")
    if not raw.strip():
        return DEFAULT_BASIS_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise PreconditionError(f"{BASIS_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def degree_monomials(variables: Sequence[int], degree: int) -> list[Entries]:
    """The entries of every Hermite monomial of total ``degree`` over ``variables``, fixed order.

    One multiset of the sorted variables per monomial, so the exponent
    vectors descend lexicographically.
    """
    variables = sorted(variables)
    if not variables:
        return []
    return [
        tuple((v, len(list(run))) for v, run in itertools.groupby(combo))
        for combo in itertools.combinations_with_replacement(variables, degree)
    ]


def _top_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray, float | None]:
    """Top eigenvalue, its canonical unit direction, and the eigengap.

    The top eigenspace holds the eigenvalues within
    ``TOP_CLUSTER_RTOL * max(1, max |lambda|)`` of the largest.  Its projector
    ``U U^T`` does not depend on the basis ``U`` the solver returns, so the
    direction -- the normalized projection of the first standard basis vector
    ``e_i`` whose projection is nonzero (norm above ``TOP_CLUSTER_RTOL``) -- is
    defined on degenerate spaces too.  ``||U U^T e_i||`` is the norm of row
    ``i`` of ``U``.
    """
    vals, vecs = jacobi_eigh(matrix)
    top = float(vals[-1])
    inside = vals >= top - TOP_CLUSTER_RTOL * max(1.0, float(np.max(np.abs(vals))))
    span = vecs[:, inside]
    row_norms = np.linalg.norm(span, axis=1)
    first = int(np.argmax(row_norms > TOP_CLUSTER_RTOL))
    vec = span @ (span[first] / row_norms[first])
    outside = vals[~inside]
    gap = top - float(outside[-1]) if outside.size else None
    return top, vec, gap


def _unit_rational(v: np.ndarray) -> list[Fraction]:
    """An exactly unit rational vector next to the float unit vector ``v``.

    The classical rational parametrisation of the sphere: project ``v``
    stereographically from the pole opposite its largest entry ``v_k`` (the
    first on ties), ``t_i = v_i / (1 + |v_k|)`` for ``i != k``, round the
    image to integers ``m_i`` on the grid ``M = STEREO_GRID`` and map back,
    ``x_i = 2 m_i M / (S + M**2)`` and ``x_k = sign(v_k) (M**2 - S) / (S +
    M**2)`` with ``S = sum m_i**2``.  ``sum x**2 == 1`` exactly.  Since
    ``|t|**2 = (1 - |v_k|) / (1 + |v_k|) < 1``, ``S < M**2`` and every
    coordinate is over the one denominator ``S + M**2 < 2**107``; coordinates
    with ``m_i = 0`` are 0.  Each coordinate moves by at most about ``2 *
    2**-53`` plus ``v``'s own norm error ``|sum v**2 - 1|``.
    """
    k = int(np.argmax(np.abs(v)))
    pivot = float(v[k])
    scale = 1.0 + abs(pivot)
    m = [round(float(c) / scale * STEREO_GRID) for c in v]
    m[k] = 0
    square = STEREO_GRID * STEREO_GRID
    s = sum(c * c for c in m)
    denom = s + square
    out = [Fraction(2 * STEREO_GRID * c, denom) for c in m]
    out[k] = Fraction(square - s if pivot >= 0 else s - square, denom)
    return out


def _float_ratio(num: int, den: int) -> tuple[float, int]:
    """``(x, e)`` with ``x`` the correctly rounded ``num / (den * 2**e)`` and ``0.5 <= |x| <= 2``.

    Scaling by a power of two commutes with rounding, so ``math.ldexp(x, e)``
    is ``num / den`` bit for bit wherever that is a normal float, and neither
    step overflows when the quotient is beyond the float range.
    """
    e = num.bit_length() - den.bit_length()
    return (num / (den << e) if e >= 0 else (num << -e) / den), e


@lru_cache(maxsize=1 << 10)
def _sqrt_ratio(n: int) -> tuple[float, int]:
    """``(s, h)`` with ``math.ldexp(s, h) == math.sqrt(n)`` wherever ``float(n)`` is finite."""
    x, e = _float_ratio(n, 1)
    if e % 2:
        x, e = 2 * x, e - 1
    return math.sqrt(x), e // 2


def _hermite_multiples(
    prod: dict[Entries, int], variables: Sequence[int], degree: int, entries: Entries = ()
) -> Iterator[tuple[Entries, dict[Entries, int]]]:
    """``(b, He_b * prod)`` for every monomial ``b`` of total ``degree`` over ``variables``.

    ``b`` is built one coordinate ``w`` at a time, in the order of
    ``variables``, by ``He_{j+1}(G_w) P = G_w He_j(G_w) P - j He_{j-1}(G_w) P``
    (``algebra._times_coordinate``), which carries the two previous products.
    The walk is depth first, so monomials that share a prefix share its
    products, and each product dies once its branch is done.  ``b`` comes in
    that order, not sorted; zero totals are dropped.
    """
    if not degree:
        yield entries, prod
        return
    w, rest = variables[0], variables[1:]
    prev: dict[Entries, int] = {}
    for j in range(degree + 1):
        if j:
            raised = _times_coordinate(prod, w)
            for e, num in prev.items():
                raised[e] = raised.get(e, 0) - (j - 1) * num
                if not raised[e]:
                    del raised[e]
            prev, prod = prod, raised
        head = entries + ((w, j),) if j else entries
        if rest:
            yield from _hermite_multiples(prod, rest, degree - j, head)
        elif j == degree:
            yield head, prod


def _influence_form(f: ChaosPoly, basis: Sequence[Entries]) -> np.ndarray:
    """``Q[a, b] = <Gamma(f, e_a), Gamma(f, e_b)>`` over the normalized monomials ``basis``.

    ``basis`` is ``degree_monomials(f.variables(), q)`` for some ``q >= 1``
    and nonempty, so each ``b + 1_v`` below has a slot.

    ``f`` is scaled once to integer numerators over the lcm ``D`` of its
    denominators and its gradient is taken once on them.  ``Gamma(f, He_a) =
    sum_{(v, k) in a} k d_v f He_{a - 1_v}`` needs no general product: for
    each ``v``, ``_hermite_multiples`` raises ``d_v f`` to ``d_v f He_b`` for
    every ``b`` of degree ``q - 1``, and each product is added to the slot of
    ``a = b + 1_v`` in an inverted index (monomial -> slot -> numerator over
    ``D``) and dropped.  One pass over the monomials then accumulates every
    pairing in Python ints.  ``total / D**2`` is the correctly rounded float of
    the exact inner product, then divided by ``sqrt(w_a w_b)``; both steps
    take powers of two out (``_float_ratio``), so an entry whose parts are
    beyond the float range, as at ``q >= 100``, is still the float of the
    exact value.
    """
    denom, nums = _numerators(f._terms)
    grads = _gradients(nums)
    slots = {idx: a for a, idx in enumerate(basis)}
    variables = sorted(grads)
    degree = _degree(basis[0]) - 1
    index: dict[Entries, dict[int, int]] = {}
    for v in variables:
        for lowered, prod in _hermite_multiples(grads[v], variables, degree):
            exponents = dict(lowered)
            k = exponents[v] = exponents.get(v, 0) + 1
            a = slots[tuple(sorted(exponents.items()))]
            for entries, num in prod.items():
                held = index.setdefault(entries, {})
                held[a] = held.get(a, 0) + k * num
    dim = len(basis)
    # each unordered pair of slots that share a monomial lands in totals[a][b] or totals[b][a]
    totals = [[0] * dim for _ in range(dim)]
    for entries, held in index.items():
        weight = _weight(entries)
        pairs = list(held.items())
        for i, (a, num_a) in enumerate(pairs):
            row, scaled = totals[a], weight * num_a
            for b, num_b in pairs[i:]:
                row[b] += scaled * num_b
    denom_sq = denom * denom
    weights = [_weight(idx) for idx in basis]
    form = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            total = totals[a][b] + totals[b][a] if b > a else totals[a][a]
            if total:
                inner, e = _float_ratio(total, denom_sq)
                root, h = _sqrt_ratio(weights[a] * weights[b])
                try:
                    form[a, b] = form[b, a] = math.ldexp(inner / root, e - h)
                except OverflowError:
                    message = f"influence form entry near 2**{e - h} is too large for a float"
                    raise OverflowError(message) from None
    return form


def _degree_influence(f: ChaosPoly, q: int) -> InfluenceResult:
    """Degree-``q`` influence over the degree-``q`` monomials of the variables of ``f``.

    The form is exact and the eigensolve in floats.  A ``q = 1`` direction is
    exactly unit (``_unit_rational``).  At higher degrees the coordinate
    ``v / sqrt(weight)`` of an eigenvector entry ``v`` is the exact float
    ``v / s`` divided exactly by ``2**h``, where ``sqrt(weight) = s * 2**h``
    (``_sqrt_ratio``), so it does not underflow however large the weight.
    No argument or cap checks: callers make them.
    """
    basis = degree_monomials(f.variables(), q)
    if not basis:
        return InfluenceResult(q=q, value=0.0, direction=ChaosPoly.zero(), basis_dimension=0)
    form = _influence_form(f, basis)
    top, vec, gap = _top_eigenpair(form)
    # with the gap this bounds the angle error (Davis-Kahan: sin theta <= residual / gap)
    residual = float(np.linalg.norm(form @ vec - top * vec))
    if q == 1:
        coeffs = zip(basis, _unit_rational(vec))
    else:
        roots = (_sqrt_ratio(_weight(idx)) for idx in basis)
        exact = (as_fraction(float(entry) / root) / 2**h for entry, (root, h) in zip(vec, roots))
        coeffs = zip(basis, exact)
    direction = ChaosPoly._from_clean({idx: c for idx, c in coeffs if c})
    return InfluenceResult(
        q=q,
        value=math.sqrt(max(top, 0.0)),
        direction=direction,
        basis_dimension=len(basis),
        eigengap=gap,
        eigen_residual=residual,
    )


def rho_q(f: ChaosPoly, q: int) -> InfluenceResult:
    """The paper's degree-``q`` influence: the last item of ``_influence_scan(f, q)``.

    Every degree up to ``q`` is checked against the influence budget
    (``_budgeted_degrees``) before any solve, so a too-large ``q`` fails at
    once.  A constant builds no basis and is answered at once, for any ``q``.
    """
    q = as_integer(q, "influence degree must be a positive integer", 1)
    if not f.variables():
        return _degree_influence(f, q)
    *_, result = _influence_scan(f, q)
    return result


def _budgeted_degrees(nvars: int, top: int, cap: int) -> Iterator[int]:
    """Degrees 1 .. ``top`` of a scan over ``nvars`` variables, each yielded once it fits the budget.

    Degree ``q`` builds ``dim_q = C(nvars - 1 + q, q)`` monomials
    (``degree_monomials`` over the variables of ``f``), and each costs about
    ``q**2``: its Gamma is raised ``q`` times (``_hermite_multiples``), on
    products that grow with ``q``.  Degree ``q`` is refused when ``dim_q``
    exceeds ``cap`` or the work ``sum_{q' <= q} q'**2 dim_q'`` exceeds
    ``cap**2``, the entry count of one form at the cap.  A refusal below
    ``top`` is a lower bound for the whole scan, so a huge ``top`` fails at once.
    """
    dim, work = 1, 0
    for q in range(1, top + 1):
        dim = dim * (nvars - 1 + q) // q
        if dim > cap:
            raise BasisSizeError(dim, cap, q < top)
        work += q * q * dim
        if work > cap * cap:
            raise BasisSizeError(work, cap * cap, q < top, "influence scan work sum_q q**2 dim_q")
        yield q


def _influence_scan(f: ChaosPoly, top: int, lazy: bool = False) -> Iterator[InfluenceResult]:
    """``rho_q(f, q)`` for q = 1 .. ``top``, each computed only when consumed.

    If ``n`` uses only fresh variables, ``Gamma(f, m n) = n Gamma(f, m)``: a
    space padded with ``q - 1`` of them holds the form of each degree ``<= q``.
    So each degree is solved once, over the variables of ``f``, and the item
    is the best so far, the higher degree on a tie within
    ``TOP_CLUSTER_RTOL``, as its block holds the first padded basis vector.
    Every degree up to ``top`` is checked against the influence budget
    (``_budgeted_degrees``) before the first solve; with ``lazy``, each
    degree only when it is reached, so a caller that stops early is never
    refused a degree beyond it.
    """
    degrees = _budgeted_degrees(len(f.variables()), top, _basis_cap())
    best: InfluenceResult | None = None
    for q in degrees if lazy else list(degrees):
        result = _degree_influence(f, q)
        if best is None or result.value >= best.value - TOP_CLUSTER_RTOL * max(1.0, best.value):
            best = result
        yield replace(best, q=q)


def strongest_influence(f: ChaosPoly, threshold: float) -> StrongestInfluence:
    """Scan q = 1 .. floor(p/2) and report the least q whose influence clears ``threshold``.

    ``f`` must sit in a single stratum of degree p >= 2; a vanishing degree-
    floor(p/2) influence is the finite-size certificate that no macroscopic
    direction remains, so the scan stops there.
    """
    threshold = as_positive_real(threshold, "threshold must be finite and positive")
    p = homogeneous_degree(f, "polynomial")
    if p < 2:
        raise PreconditionError(f"strongest_influence needs homogeneous degree >= 2, got {p}")
    rho_values: dict[int, float] = {}
    q_star: int | None = None
    direction: ChaosPoly | None = None
    for result in _influence_scan(f, p // 2):
        rho_values[result.q] = result.value
        if q_star is None and result.value >= threshold:
            q_star = result.q
            direction = result.direction
    return StrongestInfluence(
        q_star=q_star, rho_values=rho_values, direction=direction, threshold=threshold
    )
