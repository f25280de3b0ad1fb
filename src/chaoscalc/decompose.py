"""Orthogonal basis changes, factoring along a chosen direction, and the degree-2 canonical form.

The key exact construction: to split ``f`` along a unit linear direction
``x = sum_i a_i G_i``, complete ``a`` to an exactly orthogonal rational matrix
by a Householder reflector, rotate, group by the Hermite degree of the pivot
coordinate, and rotate the coefficients back (all level groups through one
shared back-rotation).  Every step is rational, so the reassembly
``sum_l A_l He_l(x) + A_0 == f`` and the decoupling
``gamma_gradient(A_l, x) == 0`` hold exactly, not to tolerance; iterated
decomposition therefore reads ``A_0`` off the split instead of subtracting
the other levels from ``f``.

For directions of degree q >= 2 no rotation exists; that path is a documented
least-squares surrogate (see ``decompose_along``) with residual diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from ._kernels import jacobi_eigh
from .algebra import (
    ChaosPoly,
    Entries,
    MultiIndex,
    RationalLike,
    _expand_product,
    _numerators,
    as_fraction,
    compose_hermite,
    hermite_monomial,
    homogeneous_degree,
    inner_product,
    poly_to_json_dict,
    project_chaos,
)
from .errors import PreconditionError
from .influence import _check_threshold, degree_monomials, strongest_influence
from .malliavin import independence_score

ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True)
class DecompositionStep:
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
        out = ChaosPoly.zero()
        for level, coeff in enumerate(self.coefficients):
            out = out + coeff * compose_hermite(level, self.direction)
        return out

    def to_json_dict(self) -> dict:
        return {
            "direction": poly_to_json_dict(self.direction),
            "q": self.q,
            "coefficients": [poly_to_json_dict(c) for c in self.coefficients],
            "remainder_gamma_norm": self.remainder_gamma_norm,
            "exact": self.exact,
            "fit_rank": self.fit_rank,
        }


@dataclass(frozen=True)
class IterationTrace:
    """Result of repeatedly factoring out strongest-influence directions."""

    steps: tuple[DecompositionStep, ...]
    contributions: tuple[ChaosPoly, ...]
    residual: ChaosPoly
    residual_norm: float
    per_step_norms: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "contributions": [poly_to_json_dict(c) for c in self.contributions],
            "residual": poly_to_json_dict(self.residual),
            "residual_norm": self.residual_norm,
            "per_step_norms": list(self.per_step_norms),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class QuadraticCanonicalForm:
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

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "eigenvalues": list(self.eigenvalues),
            "rotation": [list(row) for row in self.rotation],
            "linear": list(self.linear),
            "constant": self.constant,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# -- orthogonal substitution ----------------------------------------------------


def _to_fraction_matrix(rotation) -> list[list[Fraction]]:
    rows = [[as_fraction(entry) for entry in row] for row in rotation]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise PreconditionError("rotation matrix must be square")
    return rows


def rotate_basis(f: ChaosPoly, rotation, variables: Sequence[int]) -> ChaosPoly:
    """Substitute an orthogonal change of coordinates over the listed variables.

    Row ``i`` of ``rotation`` defines the new coordinate
    ``H_i = sum_j rotation[i][j] G_{variables[j]}`` and the substitution
    ``G_{variables[j]} -> sum_i rotation[i][j] H_i`` is expanded exactly on the
    Hermite basis (new coordinates reuse the listed ids).  Variables of ``f``
    outside the list pass through untouched.  One-shot form of ``_rotation``,
    which holds the integer arithmetic.
    """
    return _rotation(rotation, variables)(f)


def _rotation(rotation, variables: Sequence[int]) -> Callable[[ChaosPoly], ChaosPoly]:
    """The substitution of ``rotate_basis``, checked and set up once for many polynomials.

    The arithmetic runs on integer numerators.  The rows are scaled to integers
    over ``d``, the lcm of their denominators, so the substituted linear form
    of column ``j`` is ``N_x / d``.  ``He_k`` of it is ``N_k / d**k`` with
    ``N_{k+1} = N_x N_k - k d**2 N_{k-1}``, the Hermite recurrence itself, so
    rows that are orthogonal only to float precision expand just as exactly.
    Each term's factors are multiplied in ints and accumulated over
    ``L d**top`` (``L`` the lcm of the coefficients' denominators, ``top`` the
    largest listed degree of a term); every output term is normalised once.
    The ``N_k`` table and the monomial-product memo live as long as the
    returned function, so polynomials rotated by it share them.
    """
    rows = _to_fraction_matrix(rotation)
    variables = list(variables)
    if len(variables) != len(rows):
        raise PreconditionError(
            f"rotation is {len(rows)}x{len(rows)} but {len(variables)} variables were listed"
        )
    if len(set(variables)) != len(variables):
        raise PreconditionError("listed variable ids must be distinct")
    d = math.lcm(*(entry.denominator for row in rows for entry in row))
    m = [[entry.numerator * (d // entry.denominator) for entry in row] for row in rows]
    d_sq = d * d
    n = len(m)
    dev = max(
        (
            abs(sum(a * b for a, b in zip(m[i], m[j])) - (d_sq if i == j else 0))
            for i in range(n)
            for j in range(i, n)
        ),
        default=0,
    )
    if dev != 0 and dev / d_sq > ORTHOGONALITY_TOL:
        raise PreconditionError(
            f"rotation is not orthogonal: max deviation {dev / d_sq:.3e}"
        )
    col_of = {var: j for j, var in enumerate(variables)}
    memo: dict = {}
    # hermite[var][k] = N_k, the numerators of He_k(substituted G_var) over d**k
    hermite: dict[int, list[dict[Entries, int]]] = {}

    def hermite_numerators(var: int, deg: int) -> dict[Entries, int]:
        levels = hermite.get(var)
        if levels is None:
            j = col_of[var]
            lin = {((variables[i], 1),): m[i][j] for i in range(n) if m[i][j]}
            levels = hermite[var] = [{(): 1}, lin]
        while len(levels) <= deg:
            k = len(levels) - 1
            nxt = _expand_product(levels[1], levels[k], memo)
            for e, c in levels[k - 1].items():
                nxt[e] = nxt.get(e, 0) - k * d_sq * c
            levels.append({e: c for e, c in nxt.items() if c})
        return levels[deg]

    def apply(f: ChaosPoly) -> ChaosPoly:
        denom, numerators = _numerators(f._terms)
        listed = {e: sum(deg for var, deg in e if var in col_of) for e in numerators}
        top = max(listed.values(), default=0)
        out: dict[Entries, int] = {}
        for entries, num in numerators.items():
            acc = {(): num * d ** (top - listed[entries])}
            for var, deg in entries:
                if var in col_of:
                    factor = hermite_numerators(var, deg)
                else:
                    factor = {((var, deg),): 1}
                acc = _expand_product(acc, factor, memo)
            for e, c in acc.items():
                out[e] = out.get(e, 0) + c
        return ChaosPoly._from_numerators(out, denom * d**top)

    return apply


def householder_rows(a: Sequence[Fraction]) -> list[list[Fraction]]:
    """Exactly orthogonal rational matrix whose first row is the unit vector ``a``.

    Reflector through ``a + e1`` (or ``a - e1`` when ``a_1 < 0``, avoiding
    cancellation), with the first row negated as needed.  Orthogonality is
    exact for any rational input; the first row equals ``a`` exactly when
    ``a`` has exact unit norm.
    """
    n = len(a)
    flip = a[0] >= 0
    v = list(a)
    if flip:
        v[0] = v[0] + 1
    else:
        v[0] = v[0] - 1
    vtv = sum(x * x for x in v)
    if vtv == 0:
        raise PreconditionError("direction vector must be nonzero")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = (Fraction(1) if i == j else Fraction(0)) - 2 * v[i] * v[j] / vtv
            row.append(entry)
        rows.append(row)
    if flip:
        rows[0] = [-entry for entry in rows[0]]
    return rows


def _transpose(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    return [[rows[i][j] for i in range(n)] for j in range(n)]


def decompose_along_w1(f: ChaosPoly, a: Mapping[int, RationalLike]) -> DecompositionStep:
    """Exact split of ``f`` along the unit linear direction ``sum_i a_i G_i``.

    The direction is completed to an exactly orthogonal rational basis, ``f``
    is rotated, grouped by the Hermite degree of the pivot coordinate, and the
    group coefficients are rotated back to the original coordinates through
    one ``_rotation`` of the transposed rows, so every group shares its
    ``He_k`` table and product memo.  The reported direction is the first
    rotation row (exactly unit-norm; equal to ``a`` up to the 1e-12 slack the
    precondition allows).
    """
    coeffs = {int(v): as_fraction(c) for v, c in a.items() if as_fraction(c) != 0}
    if not coeffs:
        raise PreconditionError("direction vector must be nonzero")
    norm_sq = sum(c * c for c in coeffs.values())
    if norm_sq != 1 and abs(float(norm_sq) - 1.0) > 1e-12:
        raise PreconditionError(
            f"direction must have unit norm; got squared norm {float(norm_sq)!r}"
        )
    variables = sorted(coeffs)
    avec = [coeffs[v] for v in variables]
    rows = householder_rows(avec)
    pivot = variables[0]
    rotated = rotate_basis(f, rows, variables)
    levels: dict[int, dict[MultiIndex, Fraction]] = {}
    for idx, coeff in rotated._terms.items():
        level = idx.degree_of(pivot)
        rest = {v: d for v, d in idx.entries if v != pivot}
        bucket = levels.setdefault(level, {})
        rest_idx = MultiIndex(rest)
        bucket[rest_idx] = bucket.get(rest_idx, Fraction(0)) + coeff
    back = _rotation(_transpose(rows), variables)
    coefficients = []
    for level in range((f.degree or 0) + 1):
        bucket = levels.get(level)
        coefficients.append(back(ChaosPoly(bucket)) if bucket else ChaosPoly.zero())
    direction = ChaosPoly.zero()
    for var, entry in zip(variables, rows[0]):
        if entry:
            direction = direction + hermite_monomial({var: 1}, entry)
    return DecompositionStep(
        direction=direction,
        q=1,
        coefficients=tuple(coefficients),
        remainder_gamma_norm=0.0,
        exact=True,
    )


def decompose_along(f: ChaosPoly, x: ChaosPoly) -> DecompositionStep:
    """Split a degree-p stratum element along a unit direction ``x`` of degree q < p.

    q = 1 delegates to the exact rotation path.  For q >= 2 the split is a
    least-squares fit of ``f`` on products ``m * He_l(x)`` where the monomials
    ``m`` avoid the variables of ``x`` (so every coefficient decouples from
    ``x`` by construction): levels l >= 1 allow deg(m) <= p - l q and the
    level-0 block is capped at degree p - 1.  The unexplained residual is
    reported through ``remainder_gamma_norm``; the reassembly is generally not
    exact on this path.
    """
    p = homogeneous_degree(f, "polynomial")
    q = homogeneous_degree(x, "direction")
    if q < 1 or q >= p:
        raise PreconditionError(f"direction degree must satisfy 1 <= q < p; got q={q}, p={p}")
    x_norm_sq = inner_product(x, x)
    if x_norm_sq != 1 and abs(float(x_norm_sq) - 1.0) > 1e-8:
        raise PreconditionError(
            f"direction must have unit norm; got squared norm {float(x_norm_sq)!r}"
        )
    if q == 1:
        coeffs = {idx.entries[0][0]: c for idx, c in x._terms.items()}
        if x_norm_sq != 1:
            scale = as_fraction(1.0 / math.sqrt(float(x_norm_sq)))
            coeffs = {v: c * scale for v, c in coeffs.items()}
        return decompose_along_w1(f, coeffs)

    free_vars = sorted(set(f.variables()) - set(x.variables()))
    levels = p // q
    hx = [compose_hermite(level, x) for level in range(levels + 1)]
    mu = [[inner_product(hx[i], hx[j]) for j in range(levels + 1)] for i in range(levels + 1)]

    def degree_cap(level: int) -> int:
        return p - 1 if level == 0 else p - level * q

    monomials: list[MultiIndex] = [MultiIndex()]
    if free_vars:
        for deg in range(1, max(degree_cap(level) for level in range(levels + 1)) + 1):
            monomials.extend(degree_monomials(free_vars, deg))

    parts = [ChaosPoly.zero() for _ in range(levels + 1)]
    total_rank = 0
    for mono in monomials:
        valid = [level for level in range(levels + 1) if mono.total_degree <= degree_cap(level)]
        if not valid:
            continue
        mono_poly = hermite_monomial(mono)
        weight = Fraction(mono.weight)
        rhs = np.array(
            [float(inner_product(f, mono_poly * hx[level]) / weight) for level in valid]
        )
        system = np.array([[float(mu[i][j]) for j in valid] for i in valid])
        solution, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
        total_rank += int(rank)
        for level, value in zip(valid, solution):
            if value != 0.0:
                parts[level] = parts[level] + hermite_monomial(mono, as_fraction(float(value)))

    reassembled = ChaosPoly.zero()
    for level in range(levels + 1):
        reassembled = reassembled + parts[level] * hx[level]
    residual = f - reassembled
    return DecompositionStep(
        direction=x,
        q=q,
        coefficients=tuple(parts),
        remainder_gamma_norm=independence_score(residual, x),
        exact=False,
        fit_rank=total_rank,
    )


def iterate_decomposition(
    f: ChaosPoly,
    threshold: float,
    max_steps: int,
    extra_vars: int | None = None,
) -> IterationTrace:
    """Repeatedly factor the strongest-influence direction out of the remainder.

    Each pass finds the least degree q whose influence on the current
    remainder clears ``threshold``, splits along that direction, keeps the
    degree-p part of the level-0 coefficient as the new remainder and books the
    rest as that step's contribution.  On the exact q = 1 path the level-0
    coefficient is ``A_0`` itself, since the split reassembles the remainder
    exactly; for q >= 2 it is ``A_0 + (remainder - step.reassemble())``, the
    remainder minus the fitted levels ``sum_{l>=1} A_l He_l(x)``.  Stops when every influence up to
    floor(p/2) falls below ``threshold``, the remainder norm drops below
    ``threshold``, or ``max_steps`` is reached.  By construction the input
    always equals the sum of contributions plus the final remainder.
    """
    _check_threshold(threshold)
    if max_steps < 0:
        raise PreconditionError(f"max_steps must be nonnegative, got {max_steps}")
    if f.is_zero():
        return IterationTrace((), (), ChaosPoly.zero(), 0.0, ())
    total = inner_product(f, f)
    if total != 1 and abs(float(total) - 1.0) > 1e-9:
        raise PreconditionError(f"input must have unit norm; got squared norm {float(total)!r}")
    p = homogeneous_degree(f, "input")
    steps: list[DecompositionStep] = []
    contributions: list[ChaosPoly] = []
    remainder = f
    if p >= 2:
        while len(steps) < max_steps and not remainder.is_zero():
            if math.sqrt(float(inner_product(remainder, remainder))) < threshold:
                break
            scan = strongest_influence(remainder, threshold, extra_vars)
            if scan.q_star is None:
                break
            step = decompose_along(remainder, scan.direction)
            level0 = step.coefficients[0]
            if not step.exact:
                level0 = level0 + (remainder - step.reassemble())
            new_remainder = project_chaos(level0, p)
            contribution = remainder - new_remainder
            steps.append(step)
            contributions.append(contribution)
            remainder = new_remainder
    residual_norm = math.sqrt(float(inner_product(remainder, remainder)))
    per_step = tuple(
        math.sqrt(float(inner_product(c, c))) for c in contributions
    )
    return IterationTrace(
        steps=tuple(steps),
        contributions=tuple(contributions),
        residual=remainder,
        residual_norm=residual_norm,
        per_step_norms=per_step,
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
        if idx.total_degree == 1:
            lin[idx.entries[0][0]] = coeff
        elif idx.total_degree == 2:
            if len(idx.entries) == 1:
                var = idx.entries[0][0]
                quad[(var, var)] = coeff
            else:
                (v, _), (w, _) = idx.entries
                quad[(v, w)] = coeff / 2
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
