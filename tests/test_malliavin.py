"""Generator and carre du champ: dual-route agreement, integration by parts,
the trilinear identity, and the second-moment inequality, all in exact rationals."""

import random
from fractions import Fraction

import pytest

from chaoscalc import (
    ChaosPoly,
    PreconditionError,
    expectation,
    gamma_gradient,
    hermite_monomial,
    inner_product,
    ou_generator,
    project_chaos,
)
from chaoscalc.algebra import canonical_json, json_value

from _oracles import (
    check_algebraic_identity,
    check_ipp,
    check_spectral_inequality,
    generator_carre_du_champ,
    random_homogeneous,
    random_poly,
    raw_expectation,
    raw_from_chaos,
    raw_mul,
)

G1, G2 = hermite_monomial({1: 1}), hermite_monomial({2: 1})
HE2_1 = hermite_monomial({1: 2})


def test_generator_examples():
    he3 = hermite_monomial({1: 3})
    assert ou_generator(he3) == -3 * he3
    assert ou_generator(ChaosPoly.constant(7)).is_zero()
    assert ou_generator(HE2_1 + G2) == -2 * HE2_1 - G2


def test_carre_du_champ_examples():
    expected = HE2_1 + hermite_monomial({2: 2}) + ChaosPoly.constant(2)
    for gamma in (gamma_gradient, generator_carre_du_champ):
        assert gamma(G1, G1) == ChaosPoly.constant(1)
        assert gamma(HE2_1, G1) == 2 * G1
        assert gamma(G1 * G2, G1 * G2) == expected


def test_gamma_gradient_examples():
    assert gamma_gradient(G1, G2).is_zero()
    assert gamma_gradient(HE2_1, HE2_1) == 4 * HE2_1 + ChaosPoly.constant(4)
    rng = random.Random(3)
    f = random_poly(rng)
    assert gamma_gradient(ChaosPoly.constant(9), f).is_zero()
    # the zero polynomial has no denominators; its numerators are over lcm() == 1
    assert gamma_gradient(ChaosPoly.zero(), f).is_zero()
    assert gamma_gradient(f, ChaosPoly.zero()).is_zero()
    assert gamma_gradient(ChaosPoly.zero(), ChaosPoly.zero()).is_zero()


def test_carre_du_champ_equals_gradient_exactly():
    rng = random.Random(5)
    for _ in range(120):
        f = random_poly(rng, max_vars=5, max_degree=4)
        g = random_poly(rng, max_vars=5, max_degree=4)
        assert gamma_gradient(f, g) == generator_carre_du_champ(f, g)


def test_ipp_examples_and_random():
    for f, g, value in [(G1, G1, 1), (HE2_1, HE2_1, 4), (G1, G2, 0)]:
        report = check_ipp(f, g)
        assert report.holds and report.lhs == value and report.residual == 0
    rng = random.Random(7)
    for _ in range(100):
        f, g = random_poly(rng), random_poly(rng)
        report = check_ipp(f, g)
        assert report.holds
        assert report.rhs == expectation(generator_carre_du_champ(f, g))


def test_algebraic_identity_examples():
    report = check_algebraic_identity(G1 * G2, G1, G2)
    assert report.holds and report.lhs == 1  # (2+1-1)/2 * E[(G1 G2)^2] = 1
    report = check_algebraic_identity(G1, G2, G1 * G2)
    assert report.holds and report.lhs == 0 and report.rhs == 0
    report = check_algebraic_identity(HE2_1, HE2_1, ChaosPoly.constant(1))
    assert report.holds and report.lhs == 4


def test_algebraic_identity_random_homogeneous_triples():
    rng = random.Random(11)
    for _ in range(120):
        f = random_homogeneous(rng, rng.randint(1, 3))
        g = random_homogeneous(rng, rng.randint(1, 3))
        h = random_homogeneous(rng, rng.randint(0, 3) or 1) if rng.random() < 0.9 else ChaosPoly.constant(2)
        report = check_algebraic_identity(f, g, h)
        assert report.holds
        assert report.lhs == expectation(generator_carre_du_champ(f, g) * h)


def test_algebraic_identity_names_offending_argument():
    mixed = HE2_1 + G1
    with pytest.raises(PreconditionError, match="second argument"):
        check_algebraic_identity(G1, mixed, G2)


def test_spectral_inequality_examples():
    # equality at the bottom stratum: E[1] = (2/2) * E[G1*G1*1]
    report = check_spectral_inequality(G1, G1)
    assert report.holds and report.lhs == report.rhs == 1
    report = check_spectral_inequality(G1, G2)
    assert report.holds and report.lhs == 0 and report.rhs == 0
    # Wick oracle: E[(4 G1**2)**2] = 48 and E[He2**2 * 4 G1**2] = 40
    raw = raw_from_chaos(HE2_1)
    gamma_raw = raw_from_chaos(gamma_gradient(HE2_1, HE2_1))
    assert raw_expectation(raw_mul(gamma_raw, gamma_raw)) == 48
    assert raw_expectation(raw_mul(raw_mul(raw, raw), gamma_raw)) == 40
    report = check_spectral_inequality(HE2_1, HE2_1)
    assert report.holds and report.lhs == 48 and report.rhs == 80


def test_spectral_inequality_random_homogeneous_pairs():
    rng = random.Random(13)
    for _ in range(120):
        x = random_homogeneous(rng, rng.randint(1, 3))
        y = random_homogeneous(rng, rng.randint(1, 3))
        report = check_spectral_inequality(x, y)
        assert report.holds
        oracle = generator_carre_du_champ(x, y)
        assert report.lhs == expectation(oracle * oracle)


def test_gamma_bilinearity_and_symmetry():
    rng = random.Random(17)
    for _ in range(40):
        f = random_poly(rng, max_vars=3, max_degree=3)
        g = random_poly(rng, max_vars=3, max_degree=3)
        h = random_poly(rng, max_vars=3, max_degree=3)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        assert gamma_gradient(a * f + b * g, h) == a * gamma_gradient(f, h) + b * gamma_gradient(g, h)
        assert gamma_gradient(f, g) == gamma_gradient(g, f)


def test_chain_rule_on_squares():
    rng = random.Random(19)
    for _ in range(30):
        f = random_poly(rng, max_vars=3, max_degree=2, max_terms=3)
        g = random_poly(rng, max_vars=3, max_degree=2, max_terms=3)
        assert gamma_gradient(f * f, g) == 2 * f * gamma_gradient(f, g)


def test_energy_identity_on_strata():
    # E[Gamma(f, f)] == p E[f**2] for single-stratum f
    rng = random.Random(23)
    for _ in range(60):
        f = random_poly(rng)
        for p in range(1, 5):
            part = project_chaos(f, p)
            if part.is_zero():
                continue
            assert expectation(gamma_gradient(part, part)) == p * expectation(part * part)


def test_gamma_degree_closure():
    rng = random.Random(29)
    for _ in range(40):
        f = random_poly(rng)
        g = random_poly(rng)
        gamma = gamma_gradient(f, g)
        if gamma.is_zero() or f.degree in (None, 0) or g.degree in (None, 0):
            continue
        assert gamma.degree <= f.degree + g.degree - 2


def test_gamma_norm_examples():
    # ||Gamma(f, x)||^2: He_2(G_1) and G_2 share no variable; Gamma(G_1, G_1) = 1
    # and Gamma(G_1 G_2, G_1) = G_2, each of squared norm 1
    for f, x, expected in ((HE2_1, G2, 0), (G1, G1, 1), (G1 * G2, G1, 1)):
        gamma = gamma_gradient(f, x)
        assert inner_product(gamma, gamma) == expected


def test_identity_report_json():
    report = check_ipp(HE2_1, HE2_1)
    assert canonical_json(json_value(report)) == '{"holds":true,"lhs":"4","residual":"0","rhs":"4"}'
