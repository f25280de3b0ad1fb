"""Orthonormal polynomial ensembles over a general input law, and multilinear polynomials.

For a centered unit-variance law with enough finite moments, the monic
polynomials ``p_k`` orthogonal under the law satisfy a three-term recurrence
``p_{k+1} = (x - a_k) p_k - b_k p_{k-1}`` whose coefficients are exact
rationals of the law's moments (Chebyshev's algorithm, ``build_ensemble``).
The ensemble ``T_k = p_k / sqrt(h_k)``, ``T_0 = 1, T_1 = x, T_2, ...``, has
``E[T_j(X) T_k(X)] = delta_{jk}``, and the squared norms ``h_k = b_1...b_k``
keep orthonormality a rational statement even though the normalizing
constants are square roots.  On a finite support some ``h_k`` is exactly 0;
the ensemble truncates there (Rademacher stops at degree 1).

A multilinear polynomial is a combination ``sum_J a_J prod_{(j,k) in J} T_k(X_j)``
with each variable appearing at most once per term.  Substituting independent
standard Gaussians for the inputs maps ``T_k(X_j)`` to the unit-norm Hermite
monomial ``He_k(G_j)/sqrt(k!)`` and preserves second moments.  The influence
of a variable (``multilinear_influences``) is the sum of ``a_J**2`` over the
terms that contain it, over the variance.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import (
    ChaosPoly,
    Entries,
    JsonResult,
    RationalLike,
    _decode_json,
    _parse_coeff,
    _weight,
    as_fraction,
)
from .errors import BasisSizeError, ParseError, PreconditionError, as_integer


@dataclass(frozen=True)
class InputLaw:
    """Centered, unit-variance input law with exact rational moments.

    Kinds: ``gaussian``, ``rademacher`` (fair signs on +-1), ``uniform``
    (on [-sqrt(3), sqrt(3)]), and ``discrete`` (finite support with rational
    points and probabilities, the one kind that takes them).  Every law is
    checked when it is built.
    ``level_bound`` is the top level of its ensemble, where ``build_ensemble``
    stops: the number of distinct points of positive probability minus one
    (1 for rademacher), or None for gaussian and uniform.
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
class OrthonormalEnsemble:
    """The law's orthonormal ensemble ``T_k = p_k / sqrt(h_k)``, ``k <= effective_degree``.

    The monic orthogonal polynomials are kept as the exact coefficients of
    their three-term recurrence ``p_{k+1} = (x - a[k])·p_k - b[k]·p_{k-1}``
    (``p_0 = 1``, ``p_{-1} = 0``): ``a[k]`` for ``k < effective_degree`` and
    ``b[k]`` for ``k <= effective_degree``, with ``b[0] = 1``.  A centered law
    has ``a[0] = 0``, so ``p_1 = x``.  Each squared norm ``h_k = E[p_k(X)**2]``
    is the product ``b[1]·...·b[k]``, so orthonormality stays a rational
    statement.
    """

    law: InputLaw
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    @property
    def effective_degree(self) -> int:
        return len(self.a)

    @property
    def norms_sq(self) -> tuple[Fraction, ...]:
        """The exact ``h_k = b[1]·...·b[k]`` for ``k = 0 ... effective_degree``."""
        return tuple(itertools.accumulate(self.b, operator.mul))


# the top level an ensemble is built to, checked before any moment is computed:
# sampling divides by sqrt(float(h_k)), and the Gaussian law's h_k = k! leaves
# the float range past k = 170
MAX_ENSEMBLE_LEVEL = 170


def build_ensemble(law: InputLaw, d: int) -> OrthonormalEnsemble:
    """The recurrence coefficients up to level ``d``, by Chebyshev's algorithm.

    Exact in ``Fraction``s from the moments ``E[X**l]``, ``l <= 2d``: with
    ``s_k(l) = E[p_k(X) X**l]``, ``h_k = s_k(k)``,
    ``a_k = s_k(k+1)/h_k - s_{k-1}(k)/h_{k-1}`` and ``b_{k+1} = h_{k+1}/h_k``,
    where ``s_{k+1}(l) = s_k(l+1) - a_k s_k(l) - b_k s_{k-1}(l)``.  Trusts its
    law, checked when it was built.  A level above ``MAX_ENSEMBLE_LEVEL`` is
    a ``BasisSizeError`` before any moment is computed.  Truncates early
    (effective degree ``law.level_bound`` < d) where ``h_k`` is exactly 0,
    which happens precisely when the law's support is finite.
    """
    d = as_integer(d, "ensemble degree must be nonnegative", 0)
    if d > MAX_ENSEMBLE_LEVEL:
        raise BasisSizeError(d, MAX_ENSEMBLE_LEVEL, what="ensemble level")
    # s_k(l) for l <= 2d - k; s_k(l) = 0 for l < k by orthogonality
    prev = [Fraction(0)] * (2 * d + 1)
    cur = [law.moment(l) for l in range(2 * d + 1)]
    a, b = [], [Fraction(1)]
    for k in range(d):
        ak = cur[k + 1] / cur[k] - (prev[k] / prev[k - 1] if k else 0)
        nxt = [Fraction(0)] * (k + 1) + [
            cur[l + 1] - ak * cur[l] - b[k] * prev[l] for l in range(k + 1, 2 * d - k)
        ]
        if not nxt[k + 1]:
            break
        a.append(ak)
        b.append(nxt[k + 1] / cur[k])
        prev, cur = cur, nxt
    return OrthonormalEnsemble(law=law, a=tuple(a), b=tuple(b))


class MultilinearPoly(JsonResult):
    """Sparse multilinear polynomial over an orthonormal ensemble.

    Terms map the sorted ``(variable id, level)`` factors, the key
    ``algebra.Entries`` that ``ChaosPoly`` uses, to a rational coefficient;
    ``()`` is the constant term.  The constructor takes the factors of a term
    as any iterable of pairs, a frozenset included.  A variable appears at
    most once per term: the factors are checked as given, so a repeat is
    refused, not merged.  Terms with equal factor sets are summed, but
    ``from_json_dict`` refuses a file that repeats one.  Levels must not
    exceed the law's ``level_bound`` (Rademacher admits level 1 only); no
    ensemble is built to check this.
    """

    __slots__ = ("law", "_terms", "_max_level")

    def __init__(self, law: InputLaw, terms: Mapping | Iterable[tuple]):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Entries, Fraction] = {}
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
            factors = tuple(sorted(checked.items()))
            c = as_fraction(coeff)
            if c:
                data[factors] = data.get(factors, Fraction(0)) + c
        # canonical order, factor count then factors: to_json_dict and sample read it
        order = sorted(data, key=lambda t: (len(t), t))
        self._terms = {t: data[t] for t in order if data[t]}
        self._max_level = max_level
        self.law = law
        bound = law.level_bound
        if bound is not None and bound < max_level:
            raise PreconditionError(
                f"law {law.kind!r} supports ensemble levels up to {bound}, "
                f"but level {max_level} was used"
            )

    @property
    def terms(self) -> Mapping[Entries, Fraction]:
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
        terms = [{"coeff": str(c), "vars": list(map(list, t))} for t, c in self._terms.items()]
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
            key = tuple(sorted(factors.items()))
            if key in seen:
                raise ParseError(f"{where}: duplicate term {dict(key)}")
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
        weight = _weight(term)
        out[term] = coeff if weight == 1 else coeff * as_fraction(1.0 / math.sqrt(weight))
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
