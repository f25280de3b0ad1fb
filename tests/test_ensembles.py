"""Input laws, orthonormal ensembles (the exact three-term recurrence, with
truncation), multilinear polynomials, and Gaussian substitution."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import ensembles
from chaoscalc import (
    BasisSizeError,
    ChaosPoly,
    InputLaw,
    MultilinearPoly,
    ParseError,
    PreconditionError,
    build_ensemble,
    hermite_monomial,
    inner_product,
    substitute_gaussian,
)
from chaoscalc.algebra import canonical_json, json_value

from _oracles import gaussian_raw_moment, gram_schmidt_monic

THREE_POINT = InputLaw.discrete(
    points=[Fraction(-1), Fraction(0), Fraction(2)],
    probabilities=[Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)],
)
# every discrete law of these tests: a repeated point and a point of
# probability 0 count once and not at all in the level bound
DISCRETE_LAWS = [
    THREE_POINT,
    InputLaw.discrete([-1, 1, 1], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
    InputLaw.discrete([-1, 0, 1], [Fraction(1, 2), 0, Fraction(1, 2)]),
    InputLaw.discrete([-1, 0, 1, 2], [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]),
]


def monic_coeffs(ensemble) -> list[list[Fraction]]:
    """The coefficients of ``x**0, x**1, ...`` of each ``p_k``, expanded from the recurrence."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)]][: ensemble.effective_degree + 1]
    for k in range(1, ensemble.effective_degree):
        a, b = ensemble.a[k], ensemble.b[k]
        cur, prev = polys[k], polys[k - 1]
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(cur):
            nxt[i] -= a * c
        for i, c in enumerate(prev):
            nxt[i] -= b * c
        polys.append(nxt)
    return polys


def test_law_moments_are_exact():
    gauss = InputLaw.gaussian()
    for k in range(9):
        assert gauss.moment(k) == gaussian_raw_moment(k)
    rad = InputLaw.rademacher()
    assert [rad.moment(k) for k in range(5)] == [1, 0, 1, 0, 1]
    uni = InputLaw.uniform()
    assert uni.moment(2) == 1
    assert uni.moment(4) == Fraction(9, 5)  # 3**2 / 5
    assert uni.moment(6) == Fraction(27, 7)
    assert THREE_POINT.moment(1) == 0 and THREE_POINT.moment(2) == 1


def test_discrete_law_validation():
    with pytest.raises(PreconditionError, match="centered"):
        InputLaw.discrete([0, 1], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(PreconditionError, match="unit variance"):
        InputLaw.discrete([-2, 2], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(PreconditionError, match="sum to 1"):
        InputLaw.discrete([-1, 1], [Fraction(1, 2), Fraction(1, 3)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_discrete_law_rejects_non_finite_points_and_probabilities(bad):
    with pytest.raises(PreconditionError, match="finite"):
        InputLaw.discrete([-1, bad], [0.5, 0.5])
    with pytest.raises(PreconditionError, match="finite"):
        InputLaw.discrete([-1, 1], [0.5, bad])


def test_rademacher_ensemble_truncates_at_degree_one():
    ensemble = build_ensemble(InputLaw.rademacher(), 3)
    assert ensemble.effective_degree == 1
    assert (ensemble.a, ensemble.b) == ((0,), (1, 1))
    assert monic_coeffs(ensemble)[1] == [Fraction(0), Fraction(1)]
    assert ensemble.norms_sq == (1, 1)


def test_gaussian_ensemble_degree_two():
    ensemble = build_ensemble(InputLaw.gaussian(), 2)
    assert ensemble.effective_degree == 2
    assert monic_coeffs(ensemble)[2] == [Fraction(-1), Fraction(0), Fraction(1)]
    assert ensemble.norms_sq[2] == 2  # T2 = (x**2 - 1)/sqrt(2)


def test_level_one_is_the_coordinate_for_every_law():
    for law in (InputLaw.gaussian(), InputLaw.rademacher(), InputLaw.uniform(), *DISCRETE_LAWS):
        ensemble = build_ensemble(law, 1)
        assert monic_coeffs(ensemble)[1] == [Fraction(0), Fraction(1)]
        assert ensemble.norms_sq[1] == 1


def _orthonormality_defects(law, ensemble) -> list[tuple[int, int]]:
    """The ``(j, k)`` where ``E[T_j T_k] != delta_jk``, paired exactly from the law's
    moments: ``E[p_j p_k] = h_k delta_jk`` with ``T_k = p_k / sqrt(h_k)``."""
    polys, norms_sq = monic_coeffs(ensemble), ensemble.norms_sq
    moments = [law.moment(i) for i in range(2 * len(polys) - 1)]
    defects = []
    for j, pj in enumerate(polys):
        # E[p_j X**i] for every power i another member reads
        against = [sum(c * moments[i + n] for n, c in enumerate(pj)) for i in range(len(polys))]
        for k, pk in enumerate(polys):
            if sum(c * against[i] for i, c in enumerate(pk)) != (norms_sq[k] if j == k else 0):
                defects.append((j, k))
    return defects


def test_ensemble_orthonormality_is_exact():
    cases = [(InputLaw.gaussian(), 12), (InputLaw.uniform(), 40)]
    for law, degree in cases + [(law, law.level_bound) for law in DISCRETE_LAWS]:
        ensemble = build_ensemble(law, degree)
        assert ensemble.effective_degree == degree
        assert _orthonormality_defects(law, ensemble) == []


@pytest.mark.parametrize(
    "law, degree",
    [(InputLaw.gaussian(), 10), (InputLaw.uniform(), 10), (InputLaw.rademacher(), 4),
     *((law, 6) for law in DISCRETE_LAWS)],
)
def test_monic_polynomials_match_gram_schmidt(law, degree):
    ensemble = build_ensemble(law, degree)
    oracle = gram_schmidt_monic(law, degree)
    assert [list(coeffs) for coeffs, _ in oracle] == monic_coeffs(ensemble)
    assert tuple(norm_sq for _, norm_sq in oracle) == ensemble.norms_sq


def test_recurrence_coefficients_of_uniform_and_gaussian_laws_are_exact():
    """Legendre's ``b_k = 3k²/(4k² - 1)`` on ``[-sqrt(3), sqrt(3)]`` and Hermite's
    ``b_k = k``, both with ``a_k = 0``, up to the level cap, where ``h_170`` is
    the product of the closed forms (``170!`` for the Gaussian law)."""
    top = ensembles.MAX_ENSEMBLE_LEVEL
    uniform = build_ensemble(InputLaw.uniform(), top)
    gauss = build_ensemble(InputLaw.gaussian(), top)
    legendre = [Fraction(3 * k * k, 4 * k * k - 1) for k in range(1, top + 1)]
    assert uniform.a == gauss.a == (0,) * top
    assert uniform.b == (1, *legendre)
    assert gauss.b == (1, *range(1, top + 1))
    assert uniform.norms_sq[top] == math.prod(legendre)
    assert gauss.norms_sq[top] == math.factorial(top)


def test_ensemble_levels_above_the_cap_fail_before_any_moment(monkeypatch):
    def refuse(self, k):
        raise AssertionError("a moment was computed")

    monkeypatch.setattr(InputLaw, "moment", refuse)
    for d in (ensembles.MAX_ENSEMBLE_LEVEL + 1, 10**6):
        with pytest.raises(BasisSizeError, match=f"ensemble level {d} exceeds cap 170"):
            build_ensemble(InputLaw.uniform(), d)


def test_ensemble_rejects_uncentered_laws():
    # the law is refused as it is built, before any ensemble
    with pytest.raises(PreconditionError):
        build_ensemble(InputLaw("discrete", points=(Fraction(1),), probabilities=(Fraction(1),)), 2)


@pytest.mark.parametrize(
    "kind, points, probabilities, message",
    [
        ("discrete", None, None, "matching nonempty"),
        ("cauchy", None, None, "unknown law kind 'cauchy'"),
        ("discrete", (), (), "matching nonempty"),
        ("discrete", (-1, 1), (1,), "matching nonempty"),
        ("discrete", (-1, 0, 1), (Fraction(3, 4), Fraction(-1, 2), Fraction(3, 4)), "nonnegative"),
        ("discrete", (1,), (1,), "not centered: mean 1"),
        ("discrete", (-2, 2), (Fraction(1, 2), Fraction(1, 2)), "unit variance: 4"),
        ("rademacher", (5,), (1,), "'rademacher' takes no points or probabilities"),
        ("gaussian", None, (1,), "'gaussian' takes no points or probabilities"),
    ],
)
def test_laws_built_directly_are_checked(kind, points, probabilities, message):
    with pytest.raises(PreconditionError, match=message):
        InputLaw(kind, points=points, probabilities=probabilities)


def test_law_built_directly_holds_fractions():
    law = InputLaw("discrete", points=[-1, 1], probabilities=[0.5, 0.5])
    assert law == InputLaw.discrete((-1, 1), (Fraction(1, 2), Fraction(1, 2)))
    assert all(type(x) is Fraction for x in law.points + law.probabilities)


@pytest.mark.parametrize(
    "law, bound",
    [
        (InputLaw.rademacher(), 1),
        *zip(DISCRETE_LAWS[:3], (2, 1, 1)),
        (InputLaw.gaussian(), None),
        (InputLaw.uniform(), None),
        (DISCRETE_LAWS[3], 3),
    ],
)
def test_level_bound_is_where_gram_schmidt_stops(law, bound):
    assert law.level_bound == bound
    top = 8 if bound is None else bound
    assert build_ensemble(law, 8).effective_degree == top
    assert len(gram_schmidt_monic(law, 8)) == top + 1


def test_multilinear_levels_are_checked_without_an_ensemble(monkeypatch):
    def refuse(law, d):
        raise AssertionError("build_ensemble called")

    monkeypatch.setattr(ensembles, "build_ensemble", refuse)
    assert MultilinearPoly(InputLaw.uniform(), {frozenset({(1, 200)}): 1}).max_level == 200
    with pytest.raises(PreconditionError, match="supports ensemble levels up to 1"):
        MultilinearPoly(InputLaw.rademacher(), {frozenset({(1, 2)}): 1})


def test_multilinear_validation():
    law = InputLaw.rademacher()
    with pytest.raises(PreconditionError, match="repeats"):
        MultilinearPoly(InputLaw.gaussian(), {frozenset({(1, 1), (1, 2)}): 1})
    with pytest.raises(PreconditionError, match="levels"):
        MultilinearPoly(law, {frozenset({(1, 0)}): 1})
    with pytest.raises(PreconditionError, match="level 2"):
        MultilinearPoly(law, {frozenset({(1, 2)}): 1})
    # a gaussian law admits level 2
    MultilinearPoly(InputLaw.gaussian(), {frozenset({(1, 2)}): 1})


def test_multilinear_refuses_a_variable_repeated_in_a_listed_term():
    # X_1 X_1 is not T_1(X_1): the factors are checked before they become a set
    with pytest.raises(PreconditionError, match="term 1: variable 1 repeats"):
        MultilinearPoly(InputLaw.gaussian(), [((), 1), ([(1, 1), (1, 1)], 1)])


@pytest.mark.parametrize(
    "factor", [(1.7, 1), (True, 1), (1, True), (1, 2.0), ("1", 1), (None, 1), (0, 1), (-2, 1), (1, 0)]
)
def test_multilinear_rejects_factors_that_are_not_integers(factor):
    with pytest.raises(PreconditionError, match=r"term 1: bad factor .*must be integers"):
        MultilinearPoly(InputLaw.gaussian(), [(frozenset({(2, 1)}), 1), (frozenset({factor}), 1)])


def test_multilinear_accepts_numpy_integer_factors():
    p = MultilinearPoly(InputLaw.gaussian(), {frozenset({(np.int64(2), np.int32(1))}): 1})
    assert p == MultilinearPoly(InputLaw.gaussian(), {frozenset({(2, 1)}): 1})
    assert all(type(x) is int for term in p.terms for pair in term for x in pair)


def test_multilinear_variance_and_repeated_var_merge():
    law = InputLaw.rademacher()
    p = MultilinearPoly(
        law,
        {
            frozenset(): Fraction(3),
            frozenset({(1, 1)}): Fraction(1, 2),
            frozenset({(1, 1), (2, 1)}): Fraction(1, 3),
        },
    )
    assert p.variance() == Fraction(1, 4) + Fraction(1, 9)
    assert p.second_moment() == 9 + Fraction(1, 4) + Fraction(1, 9)


def test_substitute_gaussian_examples():
    law = InputLaw.rademacher()
    p = MultilinearPoly(law, {frozenset({(1, 1)}): 1})
    assert substitute_gaussian(p) == hermite_monomial({1: 1})
    p = MultilinearPoly(law, {frozenset({(1, 1), (2, 1)}): 1})
    assert substitute_gaussian(p) == hermite_monomial({1: 1, 2: 1})


def test_substitute_gaussian_is_an_exact_isometry_on_level_one():
    rng = random.Random(3)
    law = InputLaw.rademacher()
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(0, 3)
            factors = frozenset((v, 1) for v in rng.sample(range(1, 7), size))
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if coeff:
                terms[factors] = terms.get(factors, Fraction(0)) + coeff
        p = MultilinearPoly(law, terms)
        image = substitute_gaussian(p)
        assert inner_product(image, image) == p.second_moment()


def test_substitute_gaussian_higher_levels_are_near_isometric():
    # 1/sqrt(k!) normalizations are irrational for k >= 2, so the image is
    # exact only up to the dyadic representation of those constants
    rng = random.Random(5)
    law = InputLaw.gaussian()
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, 3)
            factors = frozenset((v, rng.randint(1, 3)) for v in rng.sample(range(1, 6), size))
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if coeff:
                terms[factors] = terms.get(factors, Fraction(0)) + coeff
        if not terms:
            continue
        p = MultilinearPoly(law, terms)
        image = substitute_gaussian(p)
        lhs = float(inner_product(image, image))
        rhs = float(p.second_moment())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_multilinear_json_round_trip():
    p = MultilinearPoly(
        InputLaw.gaussian(),
        {frozenset({(1, 2), (3, 1)}): Fraction(1, 3), frozenset(): 2},
    )
    assert MultilinearPoly.from_json(canonical_json(json_value(p))) == p
    # bare variable ids default to level 1
    text = '{"law":{"kind":"rademacher"},"terms":[{"coeff":"1","vars":[1,2]}]}'
    parsed = MultilinearPoly.from_json(text)
    assert parsed == MultilinearPoly(
        InputLaw.rademacher(), {frozenset({(1, 1), (2, 1)}): 1}
    )
    with pytest.raises(ParseError, match="zero coefficient"):
        MultilinearPoly.from_json(
            '{"law":{"kind":"rademacher"},"terms":[{"coeff":"0","vars":[1]}]}'
        )


def test_discrete_law_json_round_trip():
    law = THREE_POINT
    assert InputLaw.from_json_dict(law.to_json_dict()) == law
