"""Directional influence semi-norms and variable influences.

``rho_q(f)`` is the supremum of the L2 norm of the carre du champ of ``(f, x)``
over unit-norm degree-``q`` test polynomials ``x``.  Over a finite monomial
basis of the degree-``q`` stratum this is a symmetric eigenproblem: assemble
``Q[a, b] = <Gamma(f, e_a), Gamma(f, e_b)>`` for an orthonormal basis ``e_a``
and take the square root of the top eigenvalue.  The test space is spanned by
the monomials over the variables of ``f`` plus a configurable number of fresh
variables (fresh coordinates can genuinely enlarge the supremum for q >= 2).

Every entry of ``Q`` is an exact rational rounded once to a float; only the
eigensolve (LAPACK ``eigh``) runs in floats.  The reported direction does not
depend on the solver: it is the normalized projection of the first standard
basis vector onto the top eigenspace (see ``_top_eigenpair``), so degenerate
top eigenspaces still give a defined direction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._kernels import jacobi_eigh
from .algebra import (
    ChaosPoly,
    MultiIndex,
    as_fraction,
    fresh_variables,
    hermite_monomial,
    homogeneous_degree,
    partial_derivative,
    poly_to_json_dict,
)
from .errors import BasisSizeError, PreconditionError

DEFAULT_BASIS_CAP = 512
BASIS_CAP_ENV = "CHAOSCALC_MAX_BASIS_DIM"
TOP_CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class InfluenceResult:
    q: int
    value: float
    direction: ChaosPoly
    basis_dimension: int
    extra_variables_used: int
    # top eigenvalue of the form (a squared influence) minus the largest one
    # outside the top cluster; None when every eigenvalue is in the cluster
    eigengap: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "value": self.value,
            "direction": poly_to_json_dict(self.direction),
            "basis_dimension": self.basis_dimension,
            "extra_variables_used": self.extra_variables_used,
            "eigengap": self.eigengap,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StrongestInfluence:
    """Least degree q at which the influence clears the caller's threshold."""

    q_star: int | None
    rho_values: dict[int, float]
    direction: ChaosPoly | None
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "q_star": self.q_star,
            "rho_values": {str(q): v for q, v in sorted(self.rho_values.items())},
            "direction": None if self.direction is None else poly_to_json_dict(self.direction),
            "threshold": self.threshold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _basis_cap(max_basis_dim: int | None) -> int:
    if max_basis_dim is not None:
        return max_basis_dim
    raw = os.environ.get(BASIS_CAP_ENV, "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError:
            raise PreconditionError(f"{BASIS_CAP_ENV} must be an integer, got {raw!r}") from None
    return DEFAULT_BASIS_CAP


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


def degree_monomials(variables: Sequence[int], degree: int) -> list[MultiIndex]:
    """All Hermite multi-indices of exact total ``degree`` over ``variables``, fixed order."""
    variables = sorted(variables)
    if not variables:
        return []
    out = []
    for expo in _compositions(degree, len(variables)):
        out.append(MultiIndex({v: e for v, e in zip(variables, expo) if e}))
    return out


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


def _gram_matrix(polys: Sequence[ChaosPoly], weights: Sequence[int]) -> np.ndarray:
    """``G[a, b] = <p_a, p_b> / sqrt(w_a w_b)`` with each inner product exact, rounded once.

    An inverted index maps each monomial to the (slot, integer numerator over
    the common denominator ``D``) pairs that hold it, so one pass over the
    monomials accumulates every pairing in Python ints; ``total / D**2`` is
    the correctly rounded float of the exact inner product.
    """
    denom = math.lcm(*(c.denominator for p in polys for c in p._terms.values()))
    index: dict[MultiIndex, list[tuple[int, int]]] = {}
    for a, p in enumerate(polys):
        for idx, c in p._terms.items():
            index.setdefault(idx, []).append((a, c.numerator * (denom // c.denominator)))
    dim = len(polys)
    totals = [[0] * dim for _ in range(dim)]
    for idx, entries in index.items():
        weight = idx.weight
        for i, (a, num_a) in enumerate(entries):
            row, scaled = totals[a], weight * num_a
            for b, num_b in entries[i:]:
                row[b] += scaled * num_b
    denom_sq = denom * denom
    gram = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            if totals[a][b]:
                inner = totals[a][b] / denom_sq
                gram[a, b] = gram[b, a] = inner / math.sqrt(weights[a] * weights[b])
    return gram


def _influence_form(f: ChaosPoly, basis: Sequence[MultiIndex]) -> np.ndarray:
    """``Q[a, b] = <Gamma(f, e_a), Gamma(f, e_b)>`` over the normalized monomials ``basis``.

    ``Gamma(f, e_a) = sum_v d_v f * d_v e_a``, with each ``d_v f`` computed once.
    """
    grads = {v: partial_derivative(f, v) for v in f.variables()}
    gammas = []
    for idx in basis:
        e_a = hermite_monomial(idx)
        gamma = ChaosPoly.zero()
        for v in idx.variables():
            if v in grads:
                gamma = gamma + grads[v] * partial_derivative(e_a, v)
        gammas.append(gamma)
    return _gram_matrix(gammas, [idx.weight for idx in basis])


def rho_1(f: ChaosPoly) -> InfluenceResult:
    """Degree-1 influence via the gradient Gram matrix ``M[i,j] = <d_i f, d_j f>``.

    The value is the square root of the top eigenvalue and the direction is the
    corresponding unit linear combination of the coordinates of ``f``.
    """
    variables = f.variables()
    if not variables:
        return InfluenceResult(
            q=1, value=0.0, direction=ChaosPoly.zero(), basis_dimension=0, extra_variables_used=0
        )
    grads = [partial_derivative(f, v) for v in variables]
    n = len(variables)
    top, vec, gap = _top_eigenpair(_gram_matrix(grads, [1] * n))
    direction = ChaosPoly.zero()
    for v, a in zip(variables, vec):
        direction = direction + hermite_monomial({v: 1}, as_fraction(float(a)))
    return InfluenceResult(
        q=1,
        value=math.sqrt(max(top, 0.0)),
        direction=direction,
        basis_dimension=n,
        extra_variables_used=0,
        eigengap=gap,
    )


def rho_q(
    f: ChaosPoly,
    q: int,
    extra_vars: int | None = None,
    max_basis_dim: int | None = None,
) -> InfluenceResult:
    """Degree-``q`` influence over the monomial basis of the degree-``q`` stratum.

    ``extra_vars`` fresh coordinates (default ``q - 1``) are appended to the
    variables of ``f`` before enumerating the basis; the quadratic form is
    assembled exactly and only the eigensolve runs in floats.
    """
    if not isinstance(q, int) or q < 1:
        raise PreconditionError(f"influence degree must be a positive integer, got {q!r}")
    if extra_vars is None:
        extra_vars = q - 1
    if extra_vars < 0:
        raise PreconditionError(f"extra_vars must be nonnegative, got {extra_vars}")
    variables = list(f.variables()) + list(fresh_variables([f], extra_vars))
    nvars = len(variables)
    dim = math.comb(q + nvars - 1, nvars - 1) if nvars else 0
    cap = _basis_cap(max_basis_dim)
    if dim > cap:
        raise BasisSizeError(dim, cap)
    basis = degree_monomials(variables, q)
    if not basis:
        return InfluenceResult(
            q=q, value=0.0, direction=ChaosPoly.zero(), basis_dimension=0,
            extra_variables_used=extra_vars,
        )
    top, vec, gap = _top_eigenpair(_influence_form(f, basis))
    direction = ChaosPoly.zero()
    for idx, entry in zip(basis, vec):
        if entry != 0.0:
            coeff = as_fraction(float(entry) / math.sqrt(idx.weight))
            direction = direction + hermite_monomial(idx, coeff)
    return InfluenceResult(
        q=q,
        value=math.sqrt(max(top, 0.0)),
        direction=direction,
        basis_dimension=dim,
        extra_variables_used=extra_vars,
        eigengap=gap,
    )


def strongest_influence(
    f: ChaosPoly,
    threshold: float,
    extra_vars: int | None = None,
    max_basis_dim: int | None = None,
) -> StrongestInfluence:
    """Scan q = 1 .. floor(p/2) and report the least q whose influence clears ``threshold``.

    ``f`` must sit in a single stratum of degree p >= 2; a vanishing degree-
    floor(p/2) influence is the finite-size certificate that no macroscopic
    direction remains, so the scan stops there.
    """
    if threshold <= 0:
        raise PreconditionError(f"threshold must be positive, got {threshold}")
    p = homogeneous_degree(f, "polynomial")
    if p < 2:
        raise PreconditionError(f"strongest_influence needs homogeneous degree >= 2, got {p}")
    rho_values: dict[int, float] = {}
    q_star: int | None = None
    direction: ChaosPoly | None = None
    for q in range(1, p // 2 + 1):
        if q == 1 and (extra_vars is None or extra_vars == 0):
            result = rho_1(f)
        else:
            result = rho_q(f, q, extra_vars, max_basis_dim)
        rho_values[q] = result.value
        if q_star is None and result.value >= threshold:
            q_star = q
            direction = result.direction
    return StrongestInfluence(
        q_star=q_star, rho_values=rho_values, direction=direction, threshold=float(threshold)
    )


def multilinear_influences(poly) -> dict[int, Fraction]:
    """Per-variable influence of a multilinear polynomial.

    ``Inf_i = sum_{terms containing i} a_J**2``, normalized by the variance
    ``sum_{J nonempty} a_J**2``.  Exact rationals throughout.
    """
    from .ensembles import MultilinearPoly  # local import to avoid a cycle

    if not isinstance(poly, MultilinearPoly):
        raise TypeError("multilinear_influences expects a MultilinearPoly")
    variance = poly.variance()
    if variance == 0:
        raise PreconditionError("polynomial has zero variance; influences are undefined")
    totals: dict[int, Fraction] = {}
    for term, coeff in poly.terms.items():
        c2 = coeff * coeff
        for var, _level in term:
            totals[var] = totals.get(var, Fraction(0)) + c2
    return {var: c2 / variance for var, c2 in sorted(totals.items())}
