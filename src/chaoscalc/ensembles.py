"""Orthonormal polynomial ensembles over a general input law, and multilinear polynomials.

For a centered unit-variance law with enough finite moments, Gram-Schmidt on
``1, x, x**2, ...`` under the law's (exact rational) moments yields polynomials
``T_0 = 1, T_1 = x, T_2, ...`` with ``E[T_j(X) T_k(X)] = delta_{jk}``.  Each
``T_k`` is stored as an integer-free rational polynomial together with its
exact squared norm, so orthonormality remains a rational statement even though
the normalizing constants are square roots.  Finite-support laws make the
moment Gram matrix singular at some degree; the ensemble truncates there
(Rademacher stops at degree 1).

A multilinear polynomial is a combination ``sum_J a_J prod_{(j,k) in J} T_k(X_j)``
with each variable appearing at most once per term.  Substituting independent
standard Gaussians for the inputs maps ``T_k(X_j)`` to the unit-norm Hermite
monomial ``He_k(G_j)/sqrt(k!)`` and preserves second moments.  The influence
of a variable (``multilinear_influences``) is the sum of ``a_J**2`` over the
terms that contain it, over the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    ChaosPoly,
    JsonResult,
    RationalLike,
    _decode_json,
    _parse_coeff,
    _weight,
    as_fraction,
)
from .errors import ParseError, PreconditionError, as_integer


@dataclass(frozen=True)
class InputLaw:
    """Centered, unit-variance input law with exact rational moments.

    Kinds: ``gaussian``, ``rademacher`` (fair signs on +-1), ``uniform``
    (on [-sqrt(3), sqrt(3)]), and ``discrete`` (finite support with rational
    points and probabilities, the one kind that takes them).  Every law is
    checked when it is built.
    ``level_bound`` is the top level of its ensemble, where Gram-Schmidt stops:
    the number of distinct points of positive probability minus one (1 for
    rademacher), or None for gaussian and uniform.
    """

    kind: str
    points: tuple[Fraction, ...] | None = None
    probabilities: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        # a tuple, not a set: kind may be unhashable
        if self.kind not in ("gaussian", "rademacher", "uniform", "discrete"):
            raise PreconditionError(f"unknown law kind {self.kind!r}")
        if self.kind != "discrete":
            if self.points is not None or self.probabilities is not None:
                raise PreconditionError(f"law kind {self.kind!r} takes no points or probabilities")
            return
        pts, probs = (
            tuple(map(as_fraction, () if xs is None else xs))
            for xs in (self.points, self.probabilities)
        )
        if len(pts) != len(probs) or not pts:
            raise PreconditionError("discrete law needs matching nonempty points/probabilities")
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise PreconditionError("discrete probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probabilities", probs)
        if self.moment(1) != 0:
            raise PreconditionError(f"discrete law is not centered: mean {self.moment(1)}")
        if self.moment(2) != 1:
            raise PreconditionError(f"discrete law does not have unit variance: {self.moment(2)}")

    @classmethod
    def gaussian(cls) -> "InputLaw":
        return cls("gaussian")

    @classmethod
    def rademacher(cls) -> "InputLaw":
        return cls("rademacher")

    @classmethod
    def uniform(cls) -> "InputLaw":
        return cls("uniform")

    @classmethod
    def discrete(
        cls, points: Sequence[RationalLike], probabilities: Sequence[RationalLike]
    ) -> "InputLaw":
        return cls("discrete", points=points, probabilities=probabilities)

    @property
    def level_bound(self) -> int | None:
        if self.kind == "discrete":
            return len({x for x, p in zip(self.points, self.probabilities) if p}) - 1
        return 1 if self.kind == "rademacher" else None

    def moment(self, k: int) -> Fraction:
        """Exact k-th moment ``E[X**k]``."""
        k = as_integer(k, "moment order must be nonnegative", 0)
        if self.kind == "gaussian":
            if k % 2:
                return Fraction(0)
            out = 1
            for j in range(1, k, 2):
                out *= j
            return Fraction(out)
        if self.kind == "rademacher":
            return Fraction(1 if k % 2 == 0 else 0)
        if self.kind == "uniform":
            # E[X^k] over [-sqrt(3), sqrt(3)] is 3^(k/2) / (k+1) for even k
            if k % 2:
                return Fraction(0)
            return Fraction(3 ** (k // 2), k + 1)
        # discrete, the one kind left
        return sum(
            (prob * point**k for point, prob in zip(self.points, self.probabilities)),
            Fraction(0),
        )

    def to_json_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.kind == "discrete":
            data["points"] = [str(p) for p in self.points]
            data["probabilities"] = [str(p) for p in self.probabilities]
        return data

    @classmethod
    def from_json_dict(cls, data) -> "InputLaw":
        if not isinstance(data, dict) or "kind" not in data:
            raise ParseError("law must be an object with a 'kind'")
        kind = data["kind"]
        if kind == "discrete":
            for key in ("points", "probabilities"):
                if not isinstance(data.get(key), list):
                    raise ParseError(f"bad discrete law: {key!r} must be an array")
            try:
                points = [Fraction(str(p)) for p in data["points"]]
                probabilities = [Fraction(str(p)) for p in data["probabilities"]]
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad discrete law: {exc}") from None
            return cls.discrete(points, probabilities)
        # a tuple, not a set: kind may be an unhashable JSON list or object
        if kind in ("gaussian", "rademacher", "uniform"):
            return cls(kind)
        raise ParseError(f"unknown law kind {kind!r}")


@dataclass(frozen=True)
class EnsemblePoly:
    """One orthonormal ensemble member ``T_k = p_k / sqrt(norm_sq)``.

    ``coeffs[i]`` is the coefficient of ``x**i`` in the un-normalized ``p_k``;
    keeping the normalization as an explicit squared norm keeps all pairings
    rational.
    """

    coeffs: tuple[Fraction, ...]
    norm_sq: Fraction

    @cached_property
    def _float_form(self) -> tuple[list[float], float]:
        """The coefficients as floats, highest power first, and ``sqrt(norm_sq)``."""
        return [float(c) for c in reversed(self.coeffs)], math.sqrt(float(self.norm_sq))

    def eval(self, x, out, scratch) -> None:
        """``out = T_k(x)`` elementwise for ``k >= 1``, by Horner's rule in place.

        The partial sums live in ``scratch``; ``out`` may be ``x`` itself, as
        it is written after the last read of ``x``.  ``p_k`` is monic, so the
        first step, ``0·x + 1``, is a fill of 1 (``x`` is finite).
        """
        coeffs, norm = self._float_form
        scratch.fill(coeffs[0])
        for c in coeffs[1:-1]:
            scratch *= x
            scratch += c
        np.multiply(scratch, x, out=out)
        out += coeffs[-1]
        out /= norm


@dataclass(frozen=True)
class OrthonormalEnsemble:
    law: InputLaw
    polys: tuple[EnsemblePoly, ...]

    @property
    def effective_degree(self) -> int:
        return len(self.polys) - 1


def build_ensemble(law: InputLaw, d: int) -> OrthonormalEnsemble:
    """Gram-Schmidt on monomials under the law's moments, unit-normalized.

    Trusts its law, checked when it was built.  Truncates early (effective
    degree ``law.level_bound`` < d) when the next residual has exactly zero
    norm, which happens precisely when the law's support is finite.
    """
    d = as_integer(d, "ensemble degree must be nonnegative", 0)
    # every moment the loops below read, each checked and computed once
    moments = [law.moment(j) for j in range(2 * d + 1)]
    polys: list[EnsemblePoly] = [EnsemblePoly((Fraction(1),), Fraction(1))]
    for k in range(1, d + 1):
        # start from x**k and subtract projections on previous members
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        for prev in polys:
            # <x**k, p_j> / n_j
            overlap = sum(
                c * moments[k + i] for i, c in enumerate(prev.coeffs) if c
            )
            if overlap:
                ratio = overlap / prev.norm_sq
                for i, c in enumerate(prev.coeffs):
                    coeffs[i] -= ratio * c
        norm_sq = Fraction(0)
        for a, ca in enumerate(coeffs):
            if not ca:
                continue
            for b, cb in enumerate(coeffs):
                if cb:
                    norm_sq += ca * cb * moments[a + b]
        if norm_sq == 0:
            break
        polys.append(EnsemblePoly(tuple(coeffs), norm_sq))
    return OrthonormalEnsemble(law=law, polys=tuple(polys))


class MultilinearPoly(JsonResult):
    """Sparse multilinear polynomial over an orthonormal ensemble.

    Terms map a frozenset of ``(variable id, level)`` factors to a rational
    coefficient; the empty set is the constant term.  A variable appears at
    most once per term: the factors are checked as given, so a repeat is
    refused, not merged.  Terms with equal factor sets are summed, but
    ``from_json_dict`` refuses a file that repeats one.  Levels must not
    exceed the law's ``level_bound`` (Rademacher admits level 1 only); no
    ensemble is built to check this.
    """

    __slots__ = ("law", "_terms", "_max_level")

    def __init__(self, law: InputLaw, terms: Mapping | Iterable[tuple]):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[frozenset, Fraction] = {}
        max_level = 0
        for pos, (factors, coeff) in enumerate(items):
            checked: dict[int, int] = {}
            for v, k in factors:
                what = f"term {pos}: bad factor {(v, k)!r}: variable ids and levels must be integers >= 1"
                v, k = as_integer(v, what, 1), as_integer(k, what, 1)
                if v in checked:
                    raise PreconditionError(f"term {pos}: variable {v} repeats")
                checked[v] = k
                max_level = max(max_level, k)
            factors = frozenset(checked.items())
            c = as_fraction(coeff)
            if c:
                data[factors] = data.get(factors, Fraction(0)) + c
        self._terms = {t: c for t, c in data.items() if c != 0}
        self._max_level = max_level
        self.law = law
        bound = law.level_bound
        if bound is not None and bound < max_level:
            raise PreconditionError(
                f"law {law.kind!r} supports ensemble levels up to {bound}, "
                f"but level {max_level} was used"
            )

    @property
    def terms(self) -> Mapping[frozenset, Fraction]:
        return dict(self._terms)

    @property
    def max_level(self) -> int:
        return self._max_level

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for term in self._terms:
            seen.update(v for v, _ in term)
        return tuple(sorted(seen))

    def variance(self) -> Fraction:
        return sum(
            (c * c for t, c in self._terms.items() if t), Fraction(0)
        )

    def second_moment(self) -> Fraction:
        return sum((c * c for c in self._terms.values()), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPoly)
            and self.law == other.law
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"MultilinearPoly({self.law.kind}, {len(self._terms)} terms)"

    def to_json_dict(self) -> dict:
        terms = []
        for term in sorted(self._terms, key=lambda t: (len(t), sorted(t))):
            terms.append(
                {
                    "coeff": str(self._terms[term]),
                    "vars": [[v, k] for v, k in sorted(term)],
                }
            )
        return {"law": self.law.to_json_dict(), "terms": terms}

    @classmethod
    def from_json_dict(cls, data) -> "MultilinearPoly":
        if not isinstance(data, dict) or "law" not in data or "terms" not in data:
            raise ParseError("multilinear JSON must be an object with 'law' and 'terms'")
        law = InputLaw.from_json_dict(data["law"])
        if not isinstance(data["terms"], list):
            raise ParseError("'terms' must be an array")
        terms, seen = [], set()
        for pos, term in enumerate(data["terms"]):
            where = f"term {pos}"
            if not isinstance(term, dict) or "coeff" not in term:
                raise ParseError(f"{where}: expected an object with 'coeff'")
            coeff = _parse_coeff(term["coeff"], where)
            entries = term.get("vars", [])
            if not isinstance(entries, list):
                raise ParseError(f"{where}: 'vars' must be an array")
            factors: dict[int, int] = {}
            for entry in entries:
                factor = entry if isinstance(entry, list) else [entry]
                if not 1 <= len(factor) <= 2 or not all(type(x) is int for x in factor):
                    raise ParseError(
                        f"{where}: bad factor {entry!r}: variable ids and levels must be integers"
                    )
                if factor[0] in factors:
                    raise ParseError(f"{where}: variable {factor[0]} repeats")
                factors[factor[0]] = factor[1] if len(factor) == 2 else 1
            key = frozenset(factors.items())
            if key in seen:
                raise ParseError(f"{where}: duplicate term {dict(sorted(key))}")
            seen.add(key)
            terms.append((factors.items(), coeff))
        return cls(law, terms)

    @classmethod
    def from_json(cls, text: str) -> "MultilinearPoly":
        return cls.from_json_dict(_decode_json(text))


def substitute_gaussian(p: MultilinearPoly) -> ChaosPoly:
    """Replace the inputs by independent standard Gaussians.

    Each factor ``T_k(X_j)`` maps to ``He_k(G_j)/sqrt(k!)``, the unit-norm
    Hermite monomial, so second moments are preserved.  With levels <= 1 the
    image coefficients stay exactly rational; higher levels introduce the
    irrational ``1/sqrt(k!)`` normalizations, which are carried as exact
    dyadic conversions of their float values.
    """
    out = {}
    for term, coeff in p._terms.items():
        index = tuple(sorted(term))
        weight = _weight(index)
        out[index] = coeff if weight == 1 else coeff * as_fraction(1.0 / math.sqrt(weight))
    return ChaosPoly(out)


def multilinear_influences(poly: MultilinearPoly) -> dict[int, Fraction]:
    """Per-variable influence of a multilinear polynomial.

    ``Inf_i = sum_{terms containing i} a_J**2``, normalized by the variance
    ``sum_{J nonempty} a_J**2``.  Exact rationals throughout.
    """
    if not isinstance(poly, MultilinearPoly):
        raise TypeError("multilinear_influences expects a MultilinearPoly")
    variance = poly.variance()
    if variance == 0:
        raise PreconditionError("polynomial has zero variance; influences are undefined")
    totals: dict[int, Fraction] = {}
    for term, coeff in poly._terms.items():
        c2 = coeff * coeff
        for var, _ in term:
            totals[var] = totals.get(var, Fraction(0)) + c2
    return {var: c2 / variance for var, c2 in sorted(totals.items())}
