"""Directional influence semi-norms.

``rho_q(f)`` is the supremum of the L2 norm of the carre du champ of ``(f, x)``
over unit-norm degree-``q`` test polynomials ``x``.  Over a finite monomial
basis of the degree-``q`` stratum this is a symmetric eigenproblem: assemble
``Q[a, b] = <Gamma(f, e_a), Gamma(f, e_b)>`` for an orthonormal basis ``e_a``
and take the square root of the top eigenvalue.  ``_influence_form`` is the
one assembly for every degree; ``rho_1`` is ``rho_q`` at ``q = 1`` over the
variables of ``f``.

The test space is spanned by the monomials over the variables of ``f`` plus a
configurable number of fresh variables.  If ``n`` uses only fresh variables,
``Gamma(f, m n) = n Gamma(f, m)``, so the form splits into one block per
fresh-variable monomial, each the form of a lower degree over the variables of
``f``.  With at least one fresh variable the value is therefore exactly
``max_{q' <= q} rho_{q'}(f, extra_vars=0)``.

Every entry of ``Q`` is an exact rational, summed on integer numerators and
rounded once to a float; only the eigensolve (LAPACK ``eigh``) runs in floats.
The reported direction does not depend on the solver: it is the normalized
projection of the first standard basis vector onto the top eigenspace (see
``_top_eigenpair``), so degenerate top eigenspaces still give a defined
direction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import jacobi_eigh
from .algebra import (
    ChaosPoly,
    Entries,
    MultiIndex,
    _expand_product,
    _lower,
    _numerators,
    _weight,
    as_fraction,
    fresh_variables,
    homogeneous_degree,
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


def _influence_form(f: ChaosPoly, basis: Sequence[MultiIndex]) -> np.ndarray:
    """``Q[a, b] = <Gamma(f, e_a), Gamma(f, e_b)>`` over the normalized monomials ``basis``.

    ``f`` is scaled once to integer numerators over the lcm ``D`` of its
    denominators and each ``d_v f`` is taken once on them.  Since
    ``d_v e_a = k He_{e_a lowered in v}`` is one monomial, ``Gamma(f, e_a) =
    sum_v d_v f * d_v e_a`` is one integer expansion per variable of ``e_a``,
    over ``D``.  An inverted index maps each monomial of these products to the
    (slot, numerator) pairs that hold it, so one pass over the monomials
    accumulates every pairing in Python ints; ``total / D**2`` is the
    correctly rounded float of the exact inner product, then divided by
    ``sqrt(w_a w_b)``.
    """
    denom, nums = _numerators(f._terms)
    grads: dict[int, dict[Entries, int]] = {}
    for v in f.variables():
        grad = grads[v] = {}
        for entries, num in nums.items():
            k, lowered = _lower(entries, v)
            if k:
                grad[lowered] = k * num
    index: dict[Entries, list[tuple[int, int]]] = {}
    for a, idx in enumerate(basis):
        gamma: dict[Entries, int] = {}
        for v in idx.variables():
            if v in grads:
                k, lowered = _lower(idx.entries, v)
                for entries, num in _expand_product(grads[v], {lowered: k}).items():
                    gamma[entries] = gamma.get(entries, 0) + num
        for entries, num in gamma.items():
            if num:
                index.setdefault(entries, []).append((a, num))
    dim = len(basis)
    totals = [[0] * dim for _ in range(dim)]
    for entries, pairs in index.items():
        weight = _weight(entries)
        for i, (a, num_a) in enumerate(pairs):
            row, scaled = totals[a], weight * num_a
            for b, num_b in pairs[i:]:
                row[b] += scaled * num_b
    denom_sq = denom * denom
    weights = [idx.weight for idx in basis]
    form = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            if totals[a][b]:
                inner = totals[a][b] / denom_sq
                form[a, b] = form[b, a] = inner / math.sqrt(weights[a] * weights[b])
    return form


def rho_1(f: ChaosPoly) -> InfluenceResult:
    """Degree-1 influence: ``rho_q(f, 1, extra_vars=0)``.

    Over the coordinates ``G_v`` of ``f``, ``Gamma(f, G_v) = d_v f``, so the
    form is the gradient Gram matrix ``<d_i f, d_j f>`` and the direction a
    unit linear combination of the coordinates of ``f``.
    """
    return rho_q(f, 1, extra_vars=0)


def rho_q(f: ChaosPoly, q: int, extra_vars: int | None = None) -> InfluenceResult:
    """Degree-``q`` influence over the monomial basis of the degree-``q`` stratum.

    ``extra_vars`` fresh coordinates (default ``q - 1``) are appended to the
    variables of ``f`` before enumerating the basis; the quadratic form is
    assembled exactly and only the eigensolve runs in floats.  The basis
    dimension is capped by ``CHAOSCALC_MAX_BASIS_DIM`` (default 512).
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
    cap = _basis_cap()
    if dim > cap:
        raise BasisSizeError(dim, cap)
    basis = degree_monomials(variables, q)
    if not basis:
        return InfluenceResult(
            q=q, value=0.0, direction=ChaosPoly.zero(), basis_dimension=0,
            extra_variables_used=extra_vars,
        )
    top, vec, gap = _top_eigenpair(_influence_form(f, basis))
    coeffs = ((idx, float(entry) / math.sqrt(idx.weight)) for idx, entry in zip(basis, vec))
    direction = ChaosPoly._from_clean({idx: as_fraction(c) for idx, c in coeffs if c})
    return InfluenceResult(
        q=q,
        value=math.sqrt(max(top, 0.0)),
        direction=direction,
        basis_dimension=dim,
        extra_variables_used=extra_vars,
        eigengap=gap,
    )


def _check_threshold(threshold: float) -> None:
    """Reject a threshold that is not finite and positive (NaN compares false to everything)."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise PreconditionError(f"threshold must be finite and positive, got {threshold}")


def strongest_influence(
    f: ChaosPoly,
    threshold: float,
    extra_vars: int | None = None,
) -> StrongestInfluence:
    """Scan q = 1 .. floor(p/2) and report the least q whose influence clears ``threshold``.

    ``f`` must sit in a single stratum of degree p >= 2; a vanishing degree-
    floor(p/2) influence is the finite-size certificate that no macroscopic
    direction remains, so the scan stops there.
    """
    _check_threshold(threshold)
    p = homogeneous_degree(f, "polynomial")
    if p < 2:
        raise PreconditionError(f"strongest_influence needs homogeneous degree >= 2, got {p}")
    rho_values: dict[int, float] = {}
    q_star: int | None = None
    direction: ChaosPoly | None = None
    for q in range(1, p // 2 + 1):
        result = rho_q(f, q, extra_vars)
        rho_values[q] = result.value
        if q_star is None and result.value >= threshold:
            q_star = q
            direction = result.direction
    return StrongestInfluence(
        q_star=q_star, rho_values=rho_values, direction=direction, threshold=float(threshold)
    )
