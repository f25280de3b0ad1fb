"""Ornstein-Uhlenbeck generator, carre du champ, and exact identity checkers.

The carre du champ ``Gamma(f, g)`` is the gradient pairing ``sum_i d_i f d_i g``
(``gamma_gradient``).  The generator route ``(L(fg) - f Lg - g Lf) / 2`` is
kept only in the test suite, as the independent oracle it must match exactly.
The identity checkers below return exact rational reports rather than
booleans alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ChaosPoly,
    expectation,
    homogeneous_degree,
    inner_product,
    partial_derivative,
)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of a checked identity (or inequality) in exact rationals."""

    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
            "holds": self.holds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def ou_generator(f: ChaosPoly) -> ChaosPoly:
    """Diagonal action of the generator: multiply the degree-m stratum by -m."""
    return ChaosPoly._from_clean(
        {idx: -idx.total_degree * c for idx, c in f._terms.items() if idx.total_degree}
    )


def gamma_gradient(f: ChaosPoly, g: ChaosPoly) -> ChaosPoly:
    """Carre du champ as the gradient pairing ``sum_i d_i f * d_i g``, exact."""
    out = ChaosPoly.zero()
    shared = set(f.variables()) & set(g.variables())
    for var in sorted(shared):
        out = out + partial_derivative(f, var) * partial_derivative(g, var)
    return out


def check_ipp(f: ChaosPoly, g: ChaosPoly) -> IdentityReport:
    """Integration by parts: ``-E[f Lg] == E[Gamma(f, g)]``, exact."""
    lhs = -expectation(f * ou_generator(g))
    rhs = expectation(gamma_gradient(f, g))
    residual = lhs - rhs
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual, holds=residual == 0)


def check_algebraic_identity(f: ChaosPoly, g: ChaosPoly, h: ChaosPoly) -> IdentityReport:
    """``E[Gamma(f,g) h] == (p+q-r)/2 * E[f g h]`` for single-stratum inputs."""
    p = homogeneous_degree(f, "first argument")
    q = homogeneous_degree(g, "second argument")
    r = homogeneous_degree(h, "third argument")
    lhs = expectation(gamma_gradient(f, g) * h)
    rhs = Fraction(p + q - r, 2) * expectation(f * g * h)
    residual = lhs - rhs
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual, holds=residual == 0)


def check_spectral_inequality(x: ChaosPoly, y: ChaosPoly) -> IdentityReport:
    """Second-moment bound ``E[Gamma(x,y)^2] <= (p+q)/2 * E[x y Gamma(x,y)]``.

    The factor (p+q)/2 follows from expanding ``(L + p + q)^2`` as
    ``L(L + p + q) + (p + q)(L + p + q)`` and dropping the nonpositive first
    term; equality holds e.g. for x == y in the degree-1 stratum.
    ``holds`` reports the inequality; ``residual = lhs - rhs`` is <= 0 when it holds.
    """
    p = homogeneous_degree(x, "first argument")
    q = homogeneous_degree(y, "second argument")
    gamma = gamma_gradient(x, y)
    lhs = expectation(gamma * gamma)
    rhs = Fraction(p + q, 2) * expectation(x * y * gamma)
    residual = lhs - rhs
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual, holds=residual <= 0)


def gamma_norm_sq(f: ChaosPoly, x: ChaosPoly) -> Fraction:
    """Exact squared L2 norm of the carre du champ of the pair."""
    gamma = gamma_gradient(f, x)
    return inner_product(gamma, gamma)


def independence_score(f: ChaosPoly, x: ChaosPoly) -> float:
    """L2 norm of the carre du champ of the pair; 0 iff the pair decouples.

    Small values certify that ``f`` carries (asymptotically) no dependence on
    ``x``; this is the quantity driving the decomposition stopping rules.
    """
    return math.sqrt(float(gamma_norm_sq(f, x)))
