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
of a variable is the sum of ``a_J**2`` over the terms that contain it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import ChaosPoly, MultiIndex, RationalLike, as_fraction
from .errors import ParseError, PreconditionError


@dataclass(frozen=True)
class InputLaw:
    """Centered, unit-variance input law with exact rational moments.

    Kinds: ``gaussian``, ``rademacher`` (fair signs on +-1), ``uniform``
    (on [-sqrt(3), sqrt(3)]), and ``discrete`` (finite support with rational
    points and probabilities).
    """

    kind: str
    points: tuple[Fraction, ...] | None = None
    probabilities: tuple[Fraction, ...] | None = None

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
        pts = tuple(as_fraction(p) for p in points)
        probs = tuple(as_fraction(p) for p in probabilities)
        if len(pts) != len(probs) or not pts:
            raise PreconditionError("discrete law needs matching nonempty points/probabilities")
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise PreconditionError("discrete probabilities must be nonnegative and sum to 1")
        law = cls("discrete", points=pts, probabilities=probs)
        if law.moment(1) != 0:
            raise PreconditionError(f"discrete law is not centered: mean {law.moment(1)}")
        if law.moment(2) != 1:
            raise PreconditionError(f"discrete law does not have unit variance: {law.moment(2)}")
        return law

    def moment(self, k: int) -> Fraction:
        """Exact k-th moment ``E[X**k]``."""
        if k < 0:
            raise PreconditionError("moment order must be nonnegative")
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
        if self.kind == "discrete":
            return sum(
                (prob * point**k for point, prob in zip(self.points, self.probabilities)),
                Fraction(0),
            )
        raise PreconditionError(f"unknown law kind {self.kind!r}")

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
        if kind in {"gaussian", "rademacher", "uniform"}:
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

    def eval(self, x):
        """``T_k(x)`` by Horner's rule; elementwise for numpy arrays."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc / math.sqrt(float(self.norm_sq))


@dataclass(frozen=True)
class OrthonormalEnsemble:
    law: InputLaw
    polys: tuple[EnsemblePoly, ...]

    @property
    def effective_degree(self) -> int:
        return len(self.polys) - 1

    def pairing(self, j: int, k: int) -> Fraction:
        """Exact ``E[T_j(X) T_k(X)]``; 1 on the diagonal by construction."""
        if j == k:
            return Fraction(1)
        pj, pk = self.polys[j], self.polys[k]
        total = Fraction(0)
        for a, ca in enumerate(pj.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(pk.coeffs):
                if cb:
                    total += ca * cb * self.law.moment(a + b)
        if total == 0:
            return Fraction(0)
        # cross terms are exactly zero by construction; a nonzero value here is a bug
        raise AssertionError(f"ensemble pairing ({j},{k}) is not orthogonal: {total}")


def build_ensemble(law: InputLaw, d: int) -> OrthonormalEnsemble:
    """Gram-Schmidt on monomials under the law's moments, unit-normalized.

    Truncates early (effective degree < d) when the next residual has exactly
    zero norm, which happens precisely when the law's support is finite.
    """
    if d < 0:
        raise PreconditionError("ensemble degree must be nonnegative")
    if law.moment(1) != 0:
        raise PreconditionError(f"law is not centered: mean {law.moment(1)}")
    if law.moment(2) != 1:
        raise PreconditionError(f"law does not have unit variance: {law.moment(2)}")
    law.moment(2 * d)  # fails fast if the law cannot produce enough moments
    polys: list[EnsemblePoly] = [EnsemblePoly((Fraction(1),), Fraction(1))]
    for k in range(1, d + 1):
        # start from x**k and subtract projections on previous members
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        for prev in polys:
            # <x**k, p_j> / n_j
            overlap = sum(
                c * law.moment(k + i) for i, c in enumerate(prev.coeffs) if c
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
                    norm_sq += ca * cb * law.moment(a + b)
        if norm_sq == 0:
            break
        polys.append(EnsemblePoly(tuple(coeffs), norm_sq))
    return OrthonormalEnsemble(law=law, polys=tuple(polys))


FactorSet = frozenset  # of (variable-id, level) pairs


class MultilinearPoly:
    """Sparse multilinear polynomial over an orthonormal ensemble.

    Terms map a frozenset of ``(variable id, level)`` factors to a rational
    coefficient; the empty set is the constant term and no variable repeats
    within a term.  Levels must exist in the law's ensemble (Rademacher admits
    level 1 only).
    """

    __slots__ = ("law", "_terms", "_max_level")

    def __init__(self, law: InputLaw, terms: Mapping | Iterable[tuple]):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[frozenset, Fraction] = {}
        max_level = 0
        for factors, coeff in items:
            factors = frozenset((int(v), int(k)) for v, k in factors)
            seen_vars = [v for v, _ in factors]
            if len(seen_vars) != len(set(seen_vars)):
                raise PreconditionError(f"variable repeats within term {sorted(factors)}")
            for v, k in factors:
                if v < 1:
                    raise PreconditionError(f"variable ids must be positive, got {v}")
                if k < 1:
                    raise PreconditionError(
                        f"ensemble levels must be >= 1, got {k} (constants belong to the empty term)"
                    )
                max_level = max(max_level, k)
            c = as_fraction(coeff)
            if c:
                data[factors] = data.get(factors, Fraction(0)) + c
        self._terms = {t: c for t, c in data.items() if c != 0}
        self._max_level = max_level
        self.law = law
        ensemble = build_ensemble(law, max_level)
        if ensemble.effective_degree < max_level:
            raise PreconditionError(
                f"law {law.kind!r} supports ensemble levels up to {ensemble.effective_degree}, "
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

    def level_of(self, var: int) -> int | None:
        """The unique level ``var`` carries across terms, or None if absent.

        Raises when the variable appears at several levels (peeling such a
        variable would be ill-defined).
        """
        levels = {k for term in self._terms for v, k in term if v == var}
        if not levels:
            return None
        if len(levels) > 1:
            raise PreconditionError(
                f"variable {var} appears at several ensemble levels {sorted(levels)}"
            )
        return levels.pop()

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data) -> "MultilinearPoly":
        if not isinstance(data, dict) or "law" not in data or "terms" not in data:
            raise ParseError("multilinear JSON must be an object with 'law' and 'terms'")
        law = InputLaw.from_json_dict(data["law"])
        if not isinstance(data["terms"], list):
            raise ParseError("'terms' must be an array")
        terms = []
        for pos, term in enumerate(data["terms"]):
            where = f"term {pos}"
            if not isinstance(term, dict) or "coeff" not in term:
                raise ParseError(f"{where}: expected an object with 'coeff'")
            try:
                coeff = Fraction(str(term["coeff"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{where}: bad coefficient {term['coeff']!r}: {exc}") from None
            if coeff == 0:
                raise ParseError(f"{where}: zero coefficient is not allowed")
            entries = term.get("vars", [])
            if not isinstance(entries, list):
                raise ParseError(f"{where}: 'vars' must be an array")
            factors = []
            for entry in entries:
                factor = entry if isinstance(entry, list) else [entry]
                if not 1 <= len(factor) <= 2 or not all(type(x) is int for x in factor):
                    raise ParseError(
                        f"{where}: bad factor {entry!r}: variable ids and levels must be integers"
                    )
                factors.append((factor[0], factor[1] if len(factor) == 2 else 1))
            terms.append((frozenset(factors), coeff))
        return cls(law, terms)

    @classmethod
    def from_json(cls, text: str) -> "MultilinearPoly":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
        return cls.from_json_dict(data)


def substitute_gaussian(p: MultilinearPoly, max_level: int | None = None) -> ChaosPoly:
    """Replace the inputs by independent standard Gaussians.

    Each factor ``T_k(X_j)`` maps to ``He_k(G_j)/sqrt(k!)``, the unit-norm
    Hermite monomial, so second moments are preserved.  With levels <= 1 the
    image coefficients stay exactly rational; higher levels introduce the
    irrational ``1/sqrt(k!)`` normalizations, which are carried as exact
    dyadic conversions of their float values.
    """
    if max_level is not None and p.max_level > max_level:
        raise PreconditionError(
            f"term level {p.max_level} exceeds the Gaussian ensemble cap {max_level}"
        )
    out: dict[MultiIndex, Fraction] = {}
    for term, coeff in p._terms.items():
        index = MultiIndex({v: k for v, k in term})
        weight = index.weight
        if weight == 1:
            c = coeff
        else:
            c = coeff * as_fraction(1.0 / math.sqrt(weight))
        out[index] = out.get(index, Fraction(0)) + c
    return ChaosPoly(out)


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of peeling the highest-influence variables off a multilinear polynomial."""

    retained: tuple[tuple[int, MultilinearPoly], ...]
    remainder: MultilinearPoly
    peeled_levels: tuple[int, ...]
    remainder_max_influence: Fraction

    def reconstruct(self) -> MultilinearPoly:
        """``sum_v Z_v * R_v + remainder``; equals the original input exactly."""
        law = self.remainder.law
        terms: dict[frozenset, Fraction] = dict(self.remainder._terms)
        for (var, part), level in zip(self.retained, self.peeled_levels):
            for term, coeff in part._terms.items():
                full = frozenset(set(term) | {(var, level)})
                terms[full] = terms.get(full, Fraction(0)) + coeff
        return MultilinearPoly(law, terms)


def truncate_by_influence(p: MultilinearPoly, count: int) -> TruncationResult:
    """Peel the ``count`` most influential variables, largest influence first.

    For each peeled variable ``v`` (ties broken by ascending id) the factor
    ``Z_v`` is stripped from every term that contains ``v`` and none of the
    earlier-peeled variables; terms avoiding all peeled variables form the
    remainder, whose maximal influence (normalized by the original variance)
    is reported.
    """
    if count < 0:
        raise PreconditionError(f"count must be nonnegative, got {count}")
    if count == 0:
        return TruncationResult((), p, (), _max_influence(p, p.variance()))
    influences = multilinear_influences(p)
    order = sorted(influences, key=lambda v: (-influences[v], v))
    peeled = order[:count]
    levels = tuple(p.level_of(v) for v in peeled)
    peel_rank = {v: i for i, v in enumerate(peeled)}
    buckets: list[dict[frozenset, Fraction]] = [{} for _ in peeled]
    remainder: dict[frozenset, Fraction] = {}
    for term, coeff in p._terms.items():
        hits = [peel_rank[v] for v, _ in term if v in peel_rank]
        if hits:
            rank = min(hits)
            var = peeled[rank]
            stripped = frozenset(fac for fac in term if fac[0] != var)
            buckets[rank][stripped] = buckets[rank].get(stripped, Fraction(0)) + coeff
        else:
            remainder[term] = coeff
    remainder_poly = MultilinearPoly(p.law, remainder)
    retained = tuple(
        (var, MultilinearPoly(p.law, bucket)) for var, bucket in zip(peeled, buckets)
    )
    return TruncationResult(
        retained=retained,
        remainder=remainder_poly,
        peeled_levels=levels,
        remainder_max_influence=_max_influence(remainder_poly, p.variance()),
    )


def _influence_totals(p: MultilinearPoly) -> dict[int, Fraction]:
    """Per variable, ``sum a_J**2`` over the terms ``J`` that contain it."""
    totals: dict[int, Fraction] = {}
    for term, coeff in p._terms.items():
        c2 = coeff * coeff
        for var, _ in term:
            totals[var] = totals.get(var, Fraction(0)) + c2
    return totals


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
    return {var: c2 / variance for var, c2 in sorted(_influence_totals(poly).items())}


def _max_influence(p: MultilinearPoly, reference_variance: Fraction) -> Fraction:
    totals = _influence_totals(p)
    if reference_variance == 0 or not totals:
        return Fraction(0)
    return max(totals.values()) / reference_variance
