"""Factoring along a chosen direction, iterated decomposition, and the degree-2 canonical form.

Substitutions use the Wick picture (Janson, *Gaussian Hilbert Spaces*, 1997,
ch. 3): the Hermite monomial ``He_a(G)`` is the Wick power ``:G^a:``, and
Wick powers are multilinear in their linear forms, so an orthonormal
substitution of linear forms expands ordinary powers of those forms and reads
every ordinary monomial ``G^g`` back as ``He_g(G)``.  The split is a
rank-one update ``G_j -> G_j + m_j S / D`` with one shared linear form ``S``,
expanded by ``_rank_one_substitute``: the binomial theorem per coordinate and
powers of ``S``.

The key exact construction: to split any ``f`` along a unit linear direction
``x = u . G``, write ``G = u x + P G`` with the projection
``P = I - u u^T``.  ``x`` is independent of ``P G`` and Wick powers of
independent parts factor, so the one substitution
``G_j -> u_j X + (P G)_j = G_j + u_j (X - u . G)`` gives
``f = sum_l A_l He_l(x)`` with ``A_l`` the coefficient of ``X^l``.  Every
step is rational, so the reassembly ``sum_l A_l He_l(x) == f`` and the
decoupling ``gamma_gradient(A_l, x) == 0`` hold exactly, not to tolerance;
iterated decomposition therefore reads ``A_0`` off the split instead of
subtracting the other levels from ``f``.

For directions of degree q >= 2 no such split exists; that path is the
exact orthogonal projection of a homogeneous ``f`` on the products of
``He_l(x)`` with monomials off ``x``'s variables, solved in rationals (see
``_fit``), with residual diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from ._kernels import jacobi_eigh
from .algebra import (
    ChaosPoly,
    Entries,
    JsonResult,
    _degree,
    _numerators,
    as_fraction,
    hermite_monomial,
    hermite_values,
    homogeneous_degree,
    inner_product,
    project_chaos,
)
from .errors import PreconditionError, as_integer, as_positive_real, check_unit_norm
from .influence import _influence_scan
from .malliavin import gamma_gradient


@dataclass(frozen=True)
class DecompositionStep(JsonResult):
    """One split of ``f`` along a unit direction ``x`` of degree ``q``.

    ``coefficients[l]`` multiplies ``He_l(x)``; on the exact (q = 1) path the
    reassembly matches the input digit for digit and every coefficient
    decouples from the direction exactly.
    """

    direction: ChaosPoly
    q: int
    coefficients: tuple[ChaosPoly, ...]
    remainder_gamma_norm: float
    exact: bool
    fit_rank: int | None = None

    def reassemble(self) -> ChaosPoly:
        ladder = hermite_values(self.direction, len(self.coefficients) - 1)
        return _reassemble(self.coefficients, ladder)


def _reassemble(coefficients: Sequence[ChaosPoly], ladder: Sequence) -> ChaosPoly:
    """``sum_l coefficients[l] * ladder[l]``, where ``ladder[l]`` is ``He_l(x)``."""
    out = ChaosPoly.zero()
    for coeff, h in zip(coefficients, ladder):
        out = out + coeff * h
    return out


@dataclass(frozen=True)
class IterationTrace(JsonResult):
    """Result of repeatedly factoring out strongest-influence directions."""

    steps: tuple[DecompositionStep, ...]
    contributions: tuple[ChaosPoly, ...]
    residual: ChaosPoly
    residual_norm: float
    per_step_norms: tuple[float, ...]


@dataclass(frozen=True)
class QuadraticCanonicalForm(JsonResult):
    """Diagonalized degree-<=2 polynomial: eigenvalues, rotation, linear part, constant."""

    variables: tuple[int, ...]
    eigenvalues: tuple[float, ...]
    rotation: tuple[tuple[float, ...], ...]
    linear: tuple[float, ...]
    constant: float

    def to_poly(self) -> ChaosPoly:
        """Rebuild ``sum_i lam_i He_2(H_i) + sum_i b_i H_i + c`` on the rotated coordinates."""
        out = ChaosPoly.constant(as_fraction(self.constant))
        for var, lam, b in zip(self.variables, self.eigenvalues, self.linear):
            if lam:
                out = out + hermite_monomial({var: 2}, as_fraction(lam))
            if b:
                out = out + hermite_monomial({var: 1}, as_fraction(b))
        return out


# -- the split along a linear direction ----------------------------------------


# Bits per exponent in a packed ordinary monomial.  No exponent exceeds the
# largest listed degree of a term, and a term of degree 2**32 could never be
# expanded, so the fields cannot overflow into each other.
_WIDTH = 32
_MASK = (1 << _WIDTH) - 1


def _ordinary_product(a: Mapping[int, object], b: Mapping[int, object]) -> dict:
    """Product of two polynomials in ordinary monomials, keyed by packed exponents.

    A monomial ``prod_j x_j^k_j`` is the integer ``sum_j k_j << (_WIDTH * j)``,
    so the product of two monomials is the sum of their keys: one output
    monomial per pair.  Zero totals are kept; the caller drops them at the end.
    """
    out: dict = {}
    get = out.get
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            key = e1 + e2
            out[key] = get(key, 0) + n1 * n2
    return out


def _rank_one_substitute(
    denom: int, numerators: Mapping[Entries, int], variables: Sequence[int],
    m: Sequence[int], d: int,
) -> tuple[int, dict[tuple[int, Entries], int]]:
    """The split ``G_j -> u_j X + (P G)_j`` of ``sum_e numerators[e] He_e / denom``.

    ``G_j`` is ``variables[j]``, ``u = m / d`` is exactly unit with integer
    ``m`` and ``d``, ``P = I - u u^T`` and ``X`` is a new coordinate on column
    ``n``.  The substitution is the rank-one update ``G_j -> G_j + m_j S / D``
    with the one integer linear form ``S = d X - sum_j m_j G_j`` shared by
    every coordinate and ``D = d**2``.  The forms are orthonormal, so the Wick
    power of a listed part ``He_a`` is, by the binomial theorem per
    coordinate, ``sum_{b <= a} C(a, b) m^b G^(a-b) S^|b| / D**|b|``.  Every
    term's ``num C(a, b) m^b`` goes to the bucket ``g_k`` of ``k = |b|``, and
    ``sum_k g_k S^k D**(top - k)`` is summed by Horner in ``S``: at most
    ``top`` products with the form ``S``.  Returns ``(denom D**top, out)``:
    ``out[(l, e)]`` is the nonzero numerator of ``He_l(X)`` times the
    Hermite monomial of sorted entries ``e``.  The unlisted entries of a term
    are numbered into the key's bits above ``X``, which products with ``S``
    never reach.
    """
    col_of = {var: j for j, var in enumerate(variables)}
    level_shift = _WIDTH * len(variables)
    rest_shift = level_shift + _WIDTH
    rests: dict[Entries, int] = {}
    # rows[j, k][b] = (packed a_j - b, C(k, b) m_j**b, b) for a_j = k
    rows: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    # buckets[k]: packed (rest number, G^(a-b)) -> sum of num C(a, b) m^b over |b| = k
    buckets: list[dict[int, int]] = [{}]
    for entries, num in numerators.items():
        rest = []
        listed = []
        for var, k in entries:
            j = col_of.get(var)
            if j is None:
                rest.append((var, k))
                continue
            row = rows.get((j, k))
            if row is None:
                shift = _WIDTH * j
                row = rows[j, k] = [
                    ((k - b) << shift, math.comb(k, b) * m[j] ** b, b) for b in range(k + 1)
                ]
            listed.append(row)
        parts = [(rests.setdefault(tuple(rest), len(rests)) << rest_shift, num, 0)]
        for row in listed:
            parts = [(key + e, c * t, k + b) for key, c, k in parts for e, t, b in row]
        for key, c, k in parts:
            while len(buckets) <= k:
                buckets.append({})
            g = buckets[k]
            g[key] = g.get(key, 0) + c
    top = len(buckets) - 1
    big_d = d * d
    s_form = {1 << _WIDTH * j: -c for j, c in enumerate(m) if c}
    s_form[1 << level_shift] = d
    acc = buckets[top]
    for k in range(top - 1, -1, -1):
        acc = _ordinary_product(acc, s_form)
        scale = big_d ** (top - k)
        get = acc.get
        for key, c in buckets[k].items():
            acc[key] = get(key, 0) + c * scale
    rest_of = list(rests)
    by_id = sorted((var, _WIDTH * j) for j, var in enumerate(variables))
    totals: dict[tuple[int, Entries], int] = {}
    for key, t in acc.items():
        if t:
            degrees = ((var, key >> shift & _MASK) for var, shift in by_id)
            entries = tuple((var, k) for var, k in degrees if k)
            rest = rest_of[key >> rest_shift]
            totals[key >> level_shift & _MASK, tuple(sorted(entries + rest)) if rest else entries] = t
    return denom * big_d**top, totals


def _split_linear(f: ChaosPoly, x: ChaosPoly) -> DecompositionStep:
    """The split of ``f`` along the linear direction ``x``, which must be exactly unit.

    The q = 1 branch of ``decompose_along``.  ``x`` is used as it is; an
    ``x`` whose exact squared norm is not 1 is a ``PreconditionError`` that
    names that norm.  The unit vector is scaled to integers ``m`` over ``d``
    and substituted by ``_rank_one_substitute``; the ``X^l`` part of its
    totals is ``A_l``.
    """
    norm_sq = inner_product(x, x)
    if norm_sq != 1:
        raise PreconditionError(
            f"a linear direction must be exactly unit; got squared norm {norm_sq}"
        )
    variables, unit = zip(*sorted((idx[0][0], c) for idx, c in x._terms.items()))
    d = math.lcm(*(c.denominator for c in unit))
    m = [c.numerator * (d // c.denominator) for c in unit]
    denom, out = _rank_one_substitute(*_numerators(f._terms), variables, m, d)
    levels: list[dict[Entries, int]] = [{} for _ in range((f.degree or 0) + 1)]
    for (level, entries), t in out.items():
        levels[level][entries] = t
    return DecompositionStep(
        direction=ChaosPoly({((var, 1),): c for var, c in zip(variables, unit)}),
        q=1,
        coefficients=tuple(ChaosPoly._from_numerators(t, denom) for t in levels),
        remainder_gamma_norm=0.0,
        exact=True,
    )


def _solve_exact(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """The solution ``c`` of ``matrix c = rhs`` in rationals, for a positive definite ``matrix``.

    Gauss-Jordan elimination without pivoting: the leading minors of a
    positive definite matrix are positive, so no pivot is 0.
    """
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for k, pivot in enumerate(rows):
        pivot[:] = [v / pivot[k] for v in pivot]
        for row in rows:
            factor = row[k]
            if row is not pivot and factor:
                row[:] = [a - factor * b for a, b in zip(row, pivot)]
    return [row[-1] for row in rows]


def decompose_along(f: ChaosPoly, x: ChaosPoly) -> DecompositionStep:
    """Split ``f`` along a unit direction ``x`` of degree q: ``f ~ sum_l A_l He_l(x)``.

    A linear ``x`` splits any ``f`` exactly, mixed degree and constants
    included (see the module docstring).  Its exact squared norm must be 1,
    as that of every q = 1 direction of ``rho_q`` and ``strongest_influence``
    is, or ``PreconditionError``; ``step.direction`` is ``x`` itself.

    q >= 2 needs a homogeneous ``f`` of degree ``p > q`` and ``x`` within
    1e-8 of unit norm.  The split is the exact projection ``_fit``; the step
    reports the norm of ``Gamma(R, x)`` of its residual ``R``, not ``R``.
    """
    q = homogeneous_degree(x, "direction")
    if q == 1:
        return _split_linear(f, x)
    return _fit(f, x, q)[0]


def _fit(f: ChaosPoly, x: ChaosPoly, q: int) -> tuple[DecompositionStep, ChaosPoly]:
    """The split of ``f`` along ``x`` of degree ``q >= 2``, and the degree-p part of its residual.

    The split is the exact orthogonal projection of ``f`` on the products
    ``m * He_l(x)`` where the Hermite monomials ``m`` avoid the variables of
    ``x`` (so every coefficient decouples from ``x`` by construction): levels
    l >= 1 allow deg(m) <= p - l q and level 0 allows deg(m) <= p - 1.  ``m``
    and ``He_l(x)`` share no variable, so ``<f, m He_l(x)> / m! = <f_m,
    He_l(x)>``, where ``f_m`` is the part on ``x``'s variables of the terms of
    ``f`` whose part off them is ``m``: only such ``m`` get a nonzero weight.
    The ``He_l(x)`` have distinct degrees ``l q``, so their Gram matrix ``mu``
    is positive definite, and each ``m`` of degree ``d`` solves its leading
    block ``mu[:s, :s]``, ``s = 1 + (p - d) // q``, in rationals.
    ``fit_rank`` is the dimension of the fitted space.  One ladder and one
    reassembly give the residual ``R``, orthogonal to it, and ``Gamma(R, x)``.
    """
    p = homogeneous_degree(f, "polynomial")
    if q < 1 or q >= p:
        raise PreconditionError(f"direction degree must satisfy 1 <= q < p; got q={q}, p={p}")
    check_unit_norm(inner_product(x, x), 1e-8, "direction")

    on_x = set(x.variables())
    hx = [ChaosPoly.constant(1), *hermite_values(x, p // q)[1:]]
    mu = [[inner_product(a, b) for b in hx] for a in hx]
    groups: dict[Entries, dict[Entries, Fraction]] = {}
    for idx, c in f._terms.items():
        off = tuple(e for e in idx if e[0] not in on_x)
        on = tuple(e for e in idx if e[0] in on_x)
        groups.setdefault(off, {})[on] = c
    parts: list[dict[Entries, Fraction]] = [{} for _ in hx]
    for off, terms in groups.items():
        d = _degree(off)
        if d == p:  # a term wholly off x: level 0 allows degree p - 1 only
            continue
        s = 1 + (p - d) // q
        f_m = ChaosPoly._from_clean(terms)
        rhs = [inner_product(f_m, hx[level]) for level in range(s)]
        for level, value in enumerate(_solve_exact([row[:s] for row in mu[:s]], rhs)):
            if value:
                parts[level][off] = value
    coefficients = tuple(ChaosPoly._from_clean(part) for part in parts)

    # C(n + d - 1, d) monomials of degree d over n >= 1 free variables, each fitting s levels
    n_free = len(set(f.variables()) - on_x)
    fit_rank = 1 + p // q
    if n_free:
        fit_rank = sum(math.comb(n_free + d - 1, d) * (1 + (p - d) // q) for d in range(p))
    residual = f - _reassemble(coefficients, hx)
    gamma = gamma_gradient(residual, x)
    step = DecompositionStep(
        direction=x,
        q=q,
        coefficients=coefficients,
        remainder_gamma_norm=math.sqrt(float(inner_product(gamma, gamma))),
        exact=False,
        fit_rank=fit_rank,
    )
    return step, project_chaos(residual, p)


def iterate_decomposition(f: ChaosPoly, threshold: float, max_steps: int) -> IterationTrace:
    """Repeatedly factor the strongest-influence direction out of the remainder.

    Each pass scans q = 1, 2, ... only up to the least degree q* whose
    influence on the current remainder clears ``threshold`` (higher degrees
    are neither assembled nor checked against the influence budget); as the scan is
    a running max over degrees, q* is also the least degree whose own solve
    clears it.  Each pass splits along that degree's direction, keeps the
    degree-p part of the level-0 coefficient as the new remainder and books
    the rest as that step's contribution.  On the
    exact q = 1 path the new remainder is ``A_0`` itself: the split
    reassembles the remainder exactly, and its substitution keeps every
    term's degree, so ``A_0`` is homogeneous of degree p.  For q >= 2 the new
    remainder is the degree-p part of the residual of ``_fit``, as
    the fitted ``A_0`` has degree below p.  On the exact path ``A_0`` is independent of
    the direction ``x``, so the contribution ``r - A_0 = sum_{l>=1} A_l
    He_l(x)`` is orthogonal to it and its squared norm is the drop
    ``|r|^2 - |A_0|^2`` of the exact norms already held.
    Stops when every influence up to floor(p/2) falls below ``threshold``,
    the remainder norm drops below ``threshold``, or ``max_steps`` (a
    nonnegative integer) is reached.  By construction the input always equals
    the sum of contributions plus the final remainder.
    """
    threshold = as_positive_real(threshold, "threshold must be finite and positive")
    max_steps = as_integer(max_steps, "max_steps must be a nonnegative integer", 0)
    if f.is_zero():
        return IterationTrace((), (), ChaosPoly.zero(), 0.0, ())
    norm_sq = inner_product(f, f)
    check_unit_norm(norm_sq, 1e-9, "input")
    p = homogeneous_degree(f, "input")
    steps: list[DecompositionStep] = []
    contributions: list[ChaosPoly] = []
    step_norms_sq: list[Fraction] = []
    remainder = f
    if p >= 2:
        while len(steps) < max_steps and not remainder.is_zero():
            if math.sqrt(float(norm_sq)) < threshold:
                break
            scan = _influence_scan(remainder, p // 2, lazy=True)
            found = next((r for r in scan if r.value >= threshold), None)
            if found is None:
                break
            if found.q == 1:
                step = decompose_along(remainder, found.direction)
                new_remainder = step.coefficients[0]
            else:
                step, new_remainder = _fit(remainder, found.direction, found.q)
            contribution = remainder - new_remainder
            new_norm_sq = inner_product(new_remainder, new_remainder)
            steps.append(step)
            contributions.append(contribution)
            step_norms_sq.append(
                norm_sq - new_norm_sq if step.exact else inner_product(contribution, contribution)
            )
            remainder, norm_sq = new_remainder, new_norm_sq
    return IterationTrace(
        steps=tuple(steps),
        contributions=tuple(contributions),
        residual=remainder,
        residual_norm=math.sqrt(float(norm_sq)),
        per_step_norms=tuple(math.sqrt(float(x)) for x in step_norms_sq),
    )


def canonical_quadratic(f: ChaosPoly) -> QuadraticCanonicalForm:
    """Diagonalize a polynomial of degree <= 2.

    The symmetric matrix S has the He_2 coefficients on the diagonal and half
    of each mixed ``G_i G_j`` coefficient off the diagonal; its eigen data
    (descending by |eigenvalue|, positive first on ties) plus the rotated
    linear part and the constant determine the polynomial's law completely.
    """
    degree = f.degree
    if degree is not None and degree > 2:
        raise PreconditionError(f"canonical_quadratic needs degree <= 2, got {degree}")
    constant = f.constant_term()
    lin: dict[int, Fraction] = {}
    quad: dict[tuple[int, int], Fraction] = {}
    for idx, coeff in f._terms.items():
        if len(idx) == 2:
            (v, _), (w, _) = idx
            quad[(v, w)] = coeff / 2
        elif idx:
            ((v, k),) = idx
            if k == 1:
                lin[v] = coeff
            else:
                quad[(v, v)] = coeff
    variables = sorted({v for pair in quad for v in pair} | set(lin))
    n = len(variables)
    if n == 0:
        return QuadraticCanonicalForm((), (), (), (), float(constant))
    pos = {v: i for i, v in enumerate(variables)}
    s = np.zeros((n, n))
    for (v, w), coeff in quad.items():
        s[pos[v], pos[w]] = s[pos[w], pos[v]] = float(coeff)
    vals, vecs = jacobi_eigh(s)
    order = sorted(range(n), key=lambda i: (-abs(vals[i]), 0.0 if vals[i] >= 0 else 1.0, i))
    rotation_rows = []
    eigenvalues = []
    for i in order:
        row = vecs[:, i].copy()
        cutoff = 1e-12 * max(1.0, float(np.max(np.abs(row))))
        for entry in row:
            if abs(entry) > cutoff:
                if entry < 0:
                    row = -row
                break
        rotation_rows.append(tuple(float(e) for e in row))
        eigenvalues.append(float(vals[i]))
    ell = np.array([float(lin.get(v, 0)) for v in variables])
    rotated_linear = tuple(float(np.dot(row, ell)) for row in rotation_rows)
    return QuadraticCanonicalForm(
        variables=tuple(variables),
        eigenvalues=tuple(eigenvalues),
        rotation=tuple(rotation_rows),
        linear=rotated_linear,
        constant=float(constant),
    )
