"""Direction splits (exact degree-1 path and exact higher-degree projection),
iterated decomposition bookkeeping, and the degree-2 canonical form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import (
    ChaosPoly,
    PreconditionError,
    canonical_quadratic,
    decompose_along,
    gamma_gradient,
    hermite_monomial,
    inner_product,
    iterate_decomposition,
    poly_from_json,
    rho_q,
)

from _oracles import (
    compose_hermite,
    iterate_by_reconstruction,
    random_homogeneous,
    random_poly,
    random_rational_rotation,
    random_rational_unit,
    raw_from_chaos,
    raw_inner,
    split_by_bucket_rotation,
    substitute_forms,
    substitute_rotation,
)
from chaoscalc import decompose
from chaoscalc.algebra import _degree, _numerators, canonical_json, hermite_values, json_value
from chaoscalc.decompose import _WIDTH
from chaoscalc.influence import _unit_rational, degree_monomials
from test_acceptance import counterexample_family
from test_cli import PINNED_F, _pinned_json

G1, G2 = hermite_monomial({1: 1}), hermite_monomial({2: 1})
HE2_1 = hermite_monomial({1: 2})
HE2_2 = hermite_monomial({2: 2})


def _linear(a) -> ChaosPoly:
    """The linear direction ``sum_v a[v] G_v``."""
    return ChaosPoly({((v, 1),): c for v, c in a.items()})


def _float_unit(rng: random.Random, size: int) -> list[Fraction]:
    vec = [rng.uniform(-1.0, 1.0) for _ in range(size)]
    norm = math.sqrt(sum(v * v for v in vec))
    return [Fraction(v / norm) for v in vec]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_direction_coefficients_are_rejected(bad):
    with pytest.raises(PreconditionError, match="finite"):
        decompose_along(G1 * G2, _linear({1: bad, 2: 0.8}))
    with pytest.raises(PreconditionError, match="finite"):
        decompose_along(G1 * G2, _linear({1: 1, 2: bad}))


def test_split_worked_example_digit_for_digit():
    """f = G1 G2 along (3/5, 4/5).

    Hand substitution with hatG1 = (3 G1 + 4 G2)/5, hatG2 = (-4 G1 + 3 G2)/5
    gives f = (12 He2(hatG1) - 7 hatG1 hatG2 - 12 He2(hatG2)) / 25, so
    A2 = 12/25, A1 = -(7/25) hatG2, A0 = -(12/25) He2(hatG2), re-expanded
    below in the original coordinates.
    """
    step = decompose_along(G1 * G2, _linear({1: Fraction(3, 5), 2: Fraction(4, 5)}))
    assert step.exact and step.q == 1
    assert step.direction == (3 * G1 + 4 * G2) / 5

    hat_g2 = (-4 * G1 + 3 * G2) / 5
    assert step.coefficients[2] == ChaosPoly.constant(Fraction(12, 25))
    assert step.coefficients[1] == Fraction(-7, 25) * hat_g2
    assert step.coefficients[1] == hermite_monomial({1: 1}, Fraction(28, 125)) + hermite_monomial(
        {2: 1}, Fraction(-21, 125)
    )
    assert step.coefficients[0] == Fraction(-12, 25) * compose_hermite(2, hat_g2)
    assert step.coefficients[0] == (
        hermite_monomial({1: 2}, Fraction(-192, 625))
        + hermite_monomial({2: 2}, Fraction(-108, 625))
        + hermite_monomial({1: 1, 2: 1}, Fraction(288, 625))
    )
    assert step.reassemble() == G1 * G2


def test_split_trivial_examples():
    step = decompose_along(HE2_1, _linear({1: 1}))
    assert step.coefficients[2] == ChaosPoly.constant(1)
    assert step.coefficients[1].is_zero() and step.coefficients[0].is_zero()

    step = decompose_along(G2, _linear({1: 1}))
    assert step.coefficients[0] == G2
    assert all(c.is_zero() for c in step.coefficients[1:])


def test_split_rejects_non_unit_direction():
    with pytest.raises(PreconditionError, match="unit"):
        decompose_along(G1 * G2, _linear({1: 1, 2: 1}))


def test_linear_split_refuses_a_direction_off_unit_by_1e_minus_10():
    # the q = 1 split checks the norm to 1e-12, not to the q >= 2 path's 1e-8
    scale = 1 + Fraction(1, 10**10)
    with pytest.raises(PreconditionError, match="unit"):
        decompose_along(G1 * G2, scale * G1)


@pytest.mark.parametrize(
    "direction",
    [
        {1: 0.6, 2.7: 0.8},
        {1.0: Fraction(3, 5), 2: Fraction(4, 5)},
        {1.2: 0.6, 1.7: 0.8},
        {"1": 1},
        {0: 1},
        {-2: Fraction(3, 5), 1: Fraction(4, 5)},
        {True: 1},
    ],
)
def test_split_rejects_direction_keys_that_are_not_positive_integers(direction):
    # truncating would split along other coordinates, or merge two keys into one
    with pytest.raises(PreconditionError, match="positive integers"):
        decompose_along(G1 * G2, _linear(direction))


def test_split_takes_integer_like_direction_keys_as_ids():
    step = decompose_along(
        G1 * G2, _linear({np.int64(1): Fraction(3, 5), np.int32(2): Fraction(4, 5)})
    )
    assert step.direction == (3 * G1 + 4 * G2) / 5
    assert all(type(v) is int for v in step.direction.variables())
    assert step.reassemble() == G1 * G2


def _rank_one_substitute(f: ChaosPoly, variables, m, d):
    """The kernel's split of ``f`` along ``u = m / d``."""
    return decompose._rank_one_substitute(*_numerators(f._terms), variables, m, d)


def _projection_substitute(f: ChaosPoly, variables, m, d):
    """The split's substitution by the general route: ``substitute_forms`` with the n
    projected forms ``lin_j = u_j X + sum_k (delta_jk - u_j u_k) G_k`` over ``d**2``."""
    n = len(m)
    proj = [[d * d * (j == k) - m[j] * m[k] for k in range(n)] for j in range(n)]
    lin = [
        {1 << _WIDTH * n: m[j] * d} | {1 << _WIDTH * k: p for k, p in enumerate(row) if p}
        for j, row in enumerate(proj)
    ]
    return substitute_forms(f, variables, lin, d * d)


def test_rank_one_substitution_matches_the_projected_forms():
    # G + u (X - u.G) expanded by the binomial theorem and Horner in S gives the
    # products of the n projected forms: same denominator, same nonzero totals
    rng = random.Random(61)
    seen = {"constant": 0, "outside": 0, "absent": 0, "snapped": 0}
    degrees, sizes = set(), set()
    for case in range(200):
        degree = case % 7
        f = random_poly(rng, max_vars=6, max_degree=degree, max_terms=6)
        if rng.random() < 0.5:
            f = f * Fraction(rng.uniform(0.5, 2.0))
        if degree and rng.random() < 0.5:
            f = f + ChaosPoly.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        size = rng.randint(1, 4)
        if rng.random() < 0.5:
            unit = random_rational_unit(rng, size)
        else:
            floats = np.array([float(c) for c in _float_unit(rng, size)])
            unit = _unit_rational(floats / np.linalg.norm(floats))
            seen["snapped"] += 1
        pairs = sorted((v, c) for v, c in zip(rng.sample(range(1, 8), size), unit) if c)
        variables = [v for v, _ in pairs]
        d = math.lcm(*(c.denominator for _, c in pairs))
        m = [c.numerator * (d // c.denominator) for _, c in pairs]
        assert sum(x * x for x in m) == d * d
        seen["constant"] += bool(f.constant_term()) and f.degree > 0
        seen["outside"] += bool(set(f.variables()) - set(variables))
        seen["absent"] += bool(set(variables) - set(f.variables()))
        degrees.add(f.degree or 0)
        sizes.add(len(variables))
        denom, totals = _rank_one_substitute(f, variables, m, d)
        ref_denom, ref = _projection_substitute(f, variables, m, d)
        assert denom == ref_denom
        assert {k: t for k, t in totals.items() if t} == {k: t for k, t in ref.items() if t}
    assert degrees == set(range(7)) and sizes == {1, 2, 3, 4}
    assert min(seen.values()) >= 40, seen


def test_split_exactness_on_random_inputs():
    rng = random.Random(11)
    for _ in range(60):
        f = random_poly(rng, max_vars=4, max_degree=3)
        size = rng.randint(1, 4)
        unit = random_rational_unit(rng, size)
        direction = {v + 1: c for v, c in enumerate(unit)}
        step = decompose_along(f, _linear(direction))
        assert step.reassemble() == f
        for coeff in step.coefficients:
            assert gamma_gradient(coeff, step.direction).is_zero()


def test_split_coefficients_match_per_bucket_rotation():
    # one substitution gives what a rotation and a back-rotation per level
    # bucket give; up to degree 6, on scattered ids, with f's variables outside
    # the direction
    rng = random.Random(47)
    outside = 0
    for max_vars, max_degree, scatter in [(4, 4, False)] * 12 + [(6, 5, True)] * 8 + [(6, 6, True)] * 6:
        f = random_poly(rng, max_vars=max_vars, max_degree=max_degree, max_terms=5)
        if rng.random() < 0.5:
            f = f * Fraction(rng.uniform(0.5, 2.0))
        size = rng.randint(1, 4)
        unit = random_rational_unit(rng, size) if rng.random() < 0.5 else _float_unit(rng, size)
        ids = rng.sample(range(1, max_vars + 1), size) if scatter else range(1, size + 1)
        direction = {v: c for v, c in zip(ids, unit) if c}
        outside += bool(set(f.variables()) - set(direction))
        step = decompose_along(f, _linear(direction))
        # a float-derived direction is snapped; the oracle rotates along the snapped one
        unit = {idx[0][0]: c for idx, c in step.direction.terms.items()}
        assert list(step.coefficients) == split_by_bucket_rotation(f, unit)
    assert outside >= 10


def test_near_unit_directions_are_snapped_once_at_the_boundary():
    # an exactly unit vector is the direction as given; a
    # float-derived near-unit one comes back exactly unit, on one denominator
    # below 2**107, within 1e-15 of a / |a| in every coordinate
    rng = random.Random(59)
    vectors = [[Fraction(0), Fraction(3, 5), Fraction(4, 5)], [Fraction(-3, 5), Fraction(4, 5)]]
    for size in (1, 2, 3, 4, 5, 6):
        vectors.append(random_rational_unit(rng, size))
        for _ in range(4):
            vectors.append(_float_unit(rng, size))
            vectors.append([-x for x in _float_unit(rng, size)])
    snapped = 0
    for a in vectors:
        f = random_homogeneous(rng, 3, max_vars=len(a) + 1, max_terms=3)
        given = {v + 1: c for v, c in enumerate(a) if c}
        x = ChaosPoly({((v, 1),): c for v, c in given.items()})
        norm_sq = sum(c * c for c in given.values())
        step = decompose_along(f, x)
        if norm_sq == 1:
            assert step.direction == x
            continue
        snapped += 1
        coeffs = step.direction.terms.values()
        assert sum(c * c for c in coeffs) == 1
        assert math.lcm(*(c.denominator for c in coeffs)) < 2**107
        norm = math.sqrt(float(norm_sq))
        for v, c in given.items():
            target = Fraction(float(c) / norm)
            assert abs(step.direction.coefficient({v: 1}) - target) <= Fraction(1e-15)
        assert step.reassemble() == f
        assert all(gamma_gradient(c, step.direction).is_zero() for c in step.coefficients)
    assert snapped >= 40


def test_split_parseval_bookkeeping():
    # single-step energy identity: <f,f> = sum_l ||A_l He_l(X)||^2 + ||A_0||^2
    rng = random.Random(13)
    for _ in range(30):
        f = random_poly(rng, max_vars=4, max_degree=3)
        unit = random_rational_unit(rng, rng.randint(1, 4))
        step = decompose_along(f, _linear({v + 1: c for v, c in enumerate(unit)}))
        total = Fraction(0)
        for level, coeff in enumerate(step.coefficients):
            part = coeff * compose_hermite(level, step.direction)
            total += inner_product(part, part)
        assert total == inner_product(f, f)


def test_direction_split_delegates_for_linear_directions():
    step = decompose_along(G1 * G2, G1)
    assert step.exact and step.coefficients[1] == G2 and step.coefficients[0].is_zero()


def test_linear_split_takes_a_mixed_degree_input():
    # only a q >= 2 direction needs a homogeneous input; G1 + G2 G3 splits exactly along G1
    f = G1 + hermite_monomial({2: 1, 3: 1})
    step = decompose_along(f, G1)
    assert step.exact and step.reassemble() == f
    assert step.coefficients == (hermite_monomial({2: 1, 3: 1}), ChaosPoly.constant(1), ChaosPoly.zero())
    assert all(gamma_gradient(c, G1).is_zero() for c in step.coefficients)
    # a constant and a degree-1 input split too
    assert decompose_along(ChaosPoly.constant(3), G1).coefficients == (ChaosPoly.constant(3),)
    assert decompose_along(G1, G1).coefficients == (ChaosPoly.zero(), ChaosPoly.constant(1))


def test_direction_split_preconditions():
    with pytest.raises(PreconditionError, match="1 <= q < p"):
        decompose_along(G1 * G2, G1 * G2)
    # a unit q = 2 direction still needs a homogeneous input
    with pytest.raises(PreconditionError, match="not homogeneous"):
        decompose_along(G1 + hermite_monomial({2: 1, 3: 1}), hermite_monomial({2: 1, 3: 1}))
    with pytest.raises(PreconditionError, match="unit"):
        decompose_along(hermite_monomial({1: 2, 2: 2}), 3 * G1 * G2)


def test_direction_split_quadratic_direction_example():
    """f = He2(G1) He2(G2) along x = G1 G2 (degree 2 within degree 4).

    Gram oracle over the span {1, x, He2(x)} (coefficients must decouple from
    x, and f shares all variables with x, so only constants survive):
    <f, He2(x)> = 4, <He2(x), He2(x)> = 8, every other pairing with f is 0,
    hence A2 = 1/2 and the fit residual has squared norm <f,f> - 4 + 2 = 2.
    """
    f = HE2_1 * HE2_2
    x = G1 * G2
    raw_f, raw_x = raw_from_chaos(f), raw_from_chaos(x)
    raw_he2x = raw_from_chaos(compose_hermite(2, x))
    assert raw_inner(raw_f, raw_he2x) == 4
    assert raw_inner(raw_he2x, raw_he2x) == 8
    assert raw_inner(raw_f, raw_x) == 0

    step = decompose_along(f, x)
    assert not step.exact
    assert step.coefficients[2] == ChaosPoly.constant(Fraction(1, 2))
    assert step.coefficients[1].is_zero() and step.coefficients[0].is_zero()
    residual = f - step.reassemble()
    assert inner_product(residual, residual) == 2  # strictly positive reassembly gap
    assert step.remainder_gamma_norm == pytest.approx(4.0, abs=1e-9)
    assert step.fit_rank == 3


def test_direction_split_quadratic_with_free_variables():
    # a free variable lets the level-1 coefficient pick up a genuine polynomial
    f = hermite_monomial({1: 1, 2: 1, 3: 1}, 1)  # G1 G2 G3, degree 3
    x = G1 * G2
    step = decompose_along(f, x)
    assert step.coefficients[1] == hermite_monomial({3: 1})
    assert (f - step.reassemble()).is_zero()


def _quadratic_splits(seed: int, count: int):
    """``count`` random degree-4 and -5 inputs whose ``rho_q(f, 2)`` direction
    leaves some of their variables free, each with its split along it."""
    rng = random.Random(seed)
    splits = []
    while len(splits) < count:
        p = rng.randint(4, 5)
        f = random_homogeneous(rng, p, max_vars=rng.randint(2, 4), max_terms=3)
        x = rho_q(f, 2).direction
        free = sorted(set(f.variables()) - set(x.variables()))
        if free:
            splits.append((f, x, free, decompose_along(f, x)))
    return splits


def test_quadratic_split_is_an_exact_projection():
    # the residual is orthogonal to every fitted m He_l(x), m a monomial off x
    # of degree below p and l <= (p - deg m) // 2, and every A_l decouples from x
    pairs = 0
    for f, x, free, step in _quadratic_splits(23, 12):
        p = f.degree
        residual = f - step.reassemble()
        hx = [compose_hermite(level, x) for level in range(p // 2 + 1)]
        monomials = [{}] + [m for d in range(1, p) for m in degree_monomials(free, d)]
        for m in map(hermite_monomial, monomials):
            for level in range(1 + (p - m.degree) // 2):
                assert inner_product(residual, m * hx[level]) == 0
                pairs += 1
        assert all(gamma_gradient(c, x).is_zero() for c in step.coefficients)
    assert pairs >= 150


def test_quadratic_split_fit_rank_is_the_dimension_of_the_fitted_space():
    # oracle: one count of the fitted levels per enumerated monomial off x
    rng = random.Random(31)
    splits = _quadratic_splits(29, 8)
    for _ in range(8):
        f = random_homogeneous(rng, rng.randint(4, 5), max_vars=3, max_terms=6)
        x = rho_q(f, 2).direction
        splits.append((f, x, sorted(set(f.variables()) - set(x.variables())), decompose_along(f, x)))
    for f, x, free, step in splits:
        p = f.degree
        monomials = [()] + [m for d in range(1, p) for m in degree_monomials(free, d)]
        assert step.fit_rank == sum(1 + (p - _degree(m)) // 2 for m in monomials)


def test_iterate_two_symmetric_steps():
    f = (HE2_1 + HE2_2) / 2
    trace = iterate_decomposition(f, threshold=0.1, max_steps=10)
    assert len(trace.steps) == 2
    assert trace.residual.is_zero() and trace.residual_norm == 0.0
    assert {trace.steps[0].direction, trace.steps[1].direction} == {G1, G2}
    assert trace.per_step_norms == (pytest.approx(math.sqrt(0.5)),) * 2
    total = ChaosPoly.zero()
    for c in trace.contributions:
        total = total + c
    assert total + trace.residual == f


def test_iterate_single_direction():
    f = HE2_1 * Fraction(1 / math.sqrt(2))  # dyadic unit norm
    trace = iterate_decomposition(f, threshold=0.1, max_steps=5)
    assert len(trace.steps) == 1
    assert trace.residual.is_zero()


def test_iterate_reads_exact_step_energies_off_the_norm_ledger(monkeypatch):
    # |f|^2, the direction's norm check and the new remainder's |r'|^2; the
    # exact step's energy is |r|^2 - |r'|^2, with no product of its own
    calls = []
    product = decompose.inner_product

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(decompose, "inner_product", counted)
    f = hermite_monomial({1: 1, 2: 1}, Fraction(3, 5)) + hermite_monomial({2: 1, 3: 1}, Fraction(4, 5))
    trace = iterate_decomposition(f, threshold=0.1, max_steps=5)
    assert len(trace.steps) == 1 and trace.steps[0].exact
    assert trace.residual_norm < 1e-12 and trace.per_step_norms == (pytest.approx(1.0),)
    assert len(calls) == 3


def test_iterate_zero_steps():
    f = (HE2_1 + HE2_2) / 2
    trace = iterate_decomposition(f, threshold=0.1, max_steps=0)
    assert trace.steps == () and trace.residual == f


@pytest.mark.parametrize("bad", [1.5, True, -1, "3"])
def test_iterate_rejects_max_steps_that_is_not_a_nonnegative_integer(bad):
    f = (HE2_1 + HE2_2) / 2
    with pytest.raises(PreconditionError, match="max_steps"):
        iterate_decomposition(f, 0.1, bad)
    # an integer-like count is taken as it is
    assert len(iterate_decomposition(f, 0.1, np.int64(1)).steps) == 1


def test_iterate_requires_unit_norm():
    with pytest.raises(PreconditionError, match="unit norm"):
        iterate_decomposition(HE2_1, threshold=0.1, max_steps=3)


def test_iterate_parseval_on_orthogonal_family():
    # diagonal families peel one coordinate per step with exactly orthogonal
    # directions, so the energy identity across steps is exact
    rng = random.Random(17)
    for _ in range(20):
        nvars = rng.randint(2, 4)
        weights = [Fraction(rng.randint(1, 5)) for _ in range(nvars)]
        total = sum(w * w * 2 for w in weights)
        f = ChaosPoly.zero()
        for v, w in enumerate(weights, start=1):
            f = f + hermite_monomial({v: 2}, w)
        f = f * Fraction(1.0 / math.sqrt(float(total)))
        trace = iterate_decomposition(f, threshold=1e-6, max_steps=10)
        assert trace.residual.is_zero()
        energy = sum((inner_product(c, c) for c in trace.contributions), Fraction(0))
        assert energy == inner_product(f, f)
        for i, a in enumerate(trace.contributions):
            for b in trace.contributions[i + 1 :]:
                assert inner_product(a, b) == 0


def _exact_unit_input(rng: random.Random, degree: int) -> ChaosPoly:
    # (3/5) G1..Gp + (4/5) G2..G(p+1) has squared norm exactly 1, and so does
    # its image under an exactly orthogonal rational rotation
    first = hermite_monomial({v: 1 for v in range(1, degree + 1)}, Fraction(3, 5))
    second = hermite_monomial({v: 1 for v in range(2, degree + 2)}, Fraction(4, 5))
    variables = list(range(1, degree + 2))
    rotation = random_rational_rotation(rng, len(variables), moves=3)
    f = substitute_rotation(first + second, rotation, variables)
    assert inner_product(f, f) == 1
    return f


def _float_unit_input(rng: random.Random, degree: int) -> ChaosPoly:
    f = random_homogeneous(rng, degree, max_vars=4, max_terms=6)
    return f * Fraction(1.0 / math.sqrt(float(inner_product(f, f))))


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("build", [_exact_unit_input, _float_unit_input])
def test_iterate_matches_reconstruction_oracle(degree, build):
    # reading A_0 off the exact split gives the trace that subtracting the
    # rebuilt levels from the remainder gives
    rng = random.Random(100 * degree + len(build.__name__))
    step_counts = []
    for _ in range(4):
        f = build(rng, degree)
        max_steps = rng.randint(3, 4)
        trace = iterate_decomposition(f, threshold=1e-3, max_steps=max_steps)
        assert all(step.exact for step in trace.steps)
        expected = iterate_by_reconstruction(f, 1e-3, max_steps)
        assert canonical_json(json_value(trace)) == canonical_json(json_value(expected))
        step_counts.append(len(trace.steps))
    # every input takes a step, and at least one takes a second
    assert min(step_counts) >= 1 and max(step_counts) >= 2


def test_iterate_matches_reconstruction_oracle_on_a_quadratic_direction():
    # rho_1 = 4/5 < 0.9 <= rho_2, so the first step fits along a degree-2 direction;
    # each unit-norm counterexample_family(n) / 2 takes one q = 2 step too
    two_products = hermite_monomial({1: 1, 2: 1, 3: 1, 4: 1}, Fraction(3, 5)) + hermite_monomial(
        {5: 1, 6: 1, 7: 1, 8: 1}, Fraction(4, 5)
    )
    for f in (two_products, *(counterexample_family(n) / 2 for n in (3, 4, 6))):
        trace = iterate_decomposition(f, threshold=0.9, max_steps=3)
        assert trace.steps[0].q == 2 and not trace.steps[0].exact
        expected = iterate_by_reconstruction(f, 0.9, 3)
        assert canonical_json(json_value(trace)) == canonical_json(json_value(expected))


def test_a_quadratic_step_builds_one_hermite_ladder(monkeypatch):
    """A q = 2 step of ``iterate_decomposition`` builds ``He_l(x)``, l <= p // q,
    once: the fit, its residual and the next remainder all read that ladder."""
    calls = []

    def counting(x, upto):
        calls.append(upto)
        return hermite_values(x, upto)

    monkeypatch.setattr(decompose, "hermite_values", counting)
    trace = iterate_decomposition(counterexample_family(4) / 2, threshold=0.9, max_steps=1)
    assert [(step.q, step.exact) for step in trace.steps] == [(2, False)]
    assert calls == [2]


def test_every_linear_step_is_split_by_decompose_along(monkeypatch):
    # a span traced on decompose_along covers every exact step of the iteration
    splits = []

    def counting(f, x):
        splits.append(x)
        return decompose_along(f, x)

    monkeypatch.setattr(decompose, "decompose_along", counting)
    trace = iterate_decomposition(_exact_unit_input(random.Random(3), 3), threshold=1e-3, max_steps=3)
    assert len(trace.steps) >= 2 and all(step.q == 1 for step in trace.steps)
    assert len(splits) == len(trace.steps)


def test_cli_decomposition_is_exact_and_bounded_in_bits():
    """Three steps of ``decompose --threshold 0.05 --max-steps 3`` on the
    float-scaled degree-4 input of the pinned ``decompose`` digests, and on
    two more like it, are exact, and their denominators grow by at most
    ``2 p 107`` bits per step.

    The derivation: each step's direction ``u`` is exactly unit with one
    denominator ``d < 2**107`` (the stereographic snap in ``rho_q``), so the
    split substitutes ``G_j -> u_j X + (P G)_j`` over ``d**2``.  A term of
    degree at most ``p`` picks up at most ``p`` such factors, so every
    coefficient of ``A_l`` is an integer over ``L d**(2 p)``, ``L`` the lcm of
    the step's input denominators; the contribution and the new remainder
    are differences and parts of these.  A denominator dividing ``L d**(2 p)``
    has at most ``bits(L) + 2 p 107`` bits.
    """
    rng = random.Random(41)
    pinned = poly_from_json(_pinned_json(PINNED_F, unit_norm=True))
    others = [random_homogeneous(rng, 4, max_vars=4, max_terms=8) for _ in range(2)]
    for f in (pinned, *(g * Fraction(1.0 / math.sqrt(float(inner_product(g, g)))) for g in others)):
        p = f.degree
        trace = iterate_decomposition(f, threshold=0.05, max_steps=3)
        assert len(trace.steps) >= (2 if f is pinned else 1)
        remainder = f
        for step, contribution in zip(trace.steps, trace.contributions):
            x = step.direction
            assert step.exact and inner_product(x, x) == 1
            assert all(gamma_gradient(coeff, x).is_zero() for coeff in step.coefficients)
            assert step.reassemble() == remainder
            bound = math.lcm(*(c.denominator for c in remainder.terms.values())).bit_length()
            bound += 2 * p * 107
            new_remainder = remainder - contribution
            for part in (*step.coefficients, contribution, new_remainder):
                assert all(c.denominator.bit_length() <= bound for c in part.terms.values())
            remainder = new_remainder
        assert remainder == trace.residual
        assert sum(trace.contributions, trace.residual) == f


def test_rotate_leaves_unlisted_variables_alone():
    f = G1 * hermite_monomial({7: 2})
    rotation = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    g = substitute_rotation(f, rotation, [1, 2])
    assert all(dict(idx).get(7) == 2 for idx in g.terms)
    assert inner_product(g, g) == inner_product(f, f)


def test_iterate_contributions_nearly_orthogonal_on_random_inputs():
    # directions found on later remainders are orthogonal to earlier ones up
    # to eigensolver precision, so cross inner products sit at the float floor
    rng = random.Random(23)
    for _ in range(10):
        f = random_homogeneous(rng, rng.randint(2, 3), max_vars=3)
        norm = inner_product(f, f)
        if norm == 0:
            continue
        f = f * Fraction(1.0 / math.sqrt(float(norm)))
        trace = iterate_decomposition(f, threshold=1e-4, max_steps=6)
        reassembled = trace.residual
        for c in trace.contributions:
            reassembled = reassembled + c
        assert reassembled == f
        for i, a in enumerate(trace.contributions):
            for b in trace.contributions[i + 1 :]:
                assert abs(float(inner_product(a, b))) <= 1e-8


def test_canonical_quadratic_law_equivalence_on_random_inputs():
    from chaoscalc import sample, w2_1d

    rng = random.Random(29)
    for trial in range(3):
        f = random_poly(rng, max_vars=3, max_degree=2, max_terms=4)
        form = canonical_quadratic(f)
        observed = sample(f, 40_000, seed=600 + trial)
        rebuilt = sample(form.to_poly(), 40_000, seed=600 + trial, stream=1)
        spread = max(1.0, float(np.std(observed.values)))
        assert w2_1d(observed, rebuilt) <= 0.05 * spread


def test_canonical_quadratic_product_example():
    form = canonical_quadratic(G1 * G2)
    assert form.eigenvalues == pytest.approx((0.5, -0.5), abs=1e-10)
    assert form.linear == pytest.approx((0.0, 0.0), abs=1e-12)
    assert form.constant == 0.0
    oracle = np.linalg.eigvalsh(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert sorted(form.eigenvalues) == pytest.approx(sorted(oracle), abs=1e-10)


def test_canonical_quadratic_diagonal_example():
    form = canonical_quadratic(HE2_1 + 2 * G1 + ChaosPoly.constant(3))
    assert form.eigenvalues == pytest.approx((1.0,), abs=1e-12)
    assert form.linear == pytest.approx((2.0,), abs=1e-12)
    assert form.constant == 3.0


def test_canonical_quadratic_constant_and_errors():
    form = canonical_quadratic(ChaosPoly.constant(5))
    assert form.eigenvalues == () and form.constant == 5.0
    with pytest.raises(PreconditionError, match="degree"):
        canonical_quadratic(hermite_monomial({1: 3}))


def test_canonical_quadratic_reconstructs_under_rotation():
    rng = random.Random(19)
    for _ in range(10):
        f = random_poly(rng, max_vars=3, max_degree=2, max_terms=4)
        form = canonical_quadratic(f)
        if not form.variables:
            continue
        rotated = substitute_rotation(f, form.rotation, form.variables)
        diff = rotated - form.to_poly()
        worst = max((abs(float(c)) for c in diff.terms.values()), default=0.0)
        assert worst < 1e-10
