"""Rotations, direction splits (exact degree-1 path and least-squares surrogate),
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
    compose_hermite,
    decompose_along,
    decompose_along_w1,
    gamma_gradient,
    gaussian,
    hermite_monomial,
    inner_product,
    iterate_decomposition,
    moment,
    rotate_basis,
)
from chaoscalc.decompose import householder_rows

from _oracles import (
    iterate_by_reconstruction,
    random_homogeneous,
    random_poly,
    random_rational_rotation,
    random_rational_unit,
    raw_from_chaos,
    raw_inner,
    split_by_bucket_rotation,
    substitute_rotation,
)

G1, G2 = gaussian(1), gaussian(2)
HE2_1 = hermite_monomial({1: 2})
HE2_2 = hermite_monomial({2: 2})


def test_rotate_identity():
    rng = random.Random(3)
    f = random_poly(rng, max_vars=3)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rotate_basis(f, eye, [1, 2, 3]) == f


def test_rotate_alignment_example():
    f = (3 * G1 + 4 * G2) / 5
    rotation = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    assert rotate_basis(f, rotation, [1, 2]) == G1


def test_rotate_preserves_second_moment():
    rng = random.Random(5)
    for _ in range(15):
        f = random_poly(rng, max_vars=3, max_degree=3)
        rotation = random_rational_rotation(rng, 3)
        g = rotate_basis(f, rotation, [1, 2, 3])
        assert inner_product(g, g) == inner_product(f, f)


def test_rotate_preserves_moments_up_to_four():
    rng = random.Random(7)
    for _ in range(8):
        f = random_poly(rng, max_vars=3, max_degree=2, max_terms=3)
        rotation = random_rational_rotation(rng, 3)
        g = rotate_basis(f, rotation, [1, 2, 3])
        for k in range(1, 5):
            assert moment(f, k) == moment(g, k)


def _float_unit(rng: random.Random, size: int) -> list[Fraction]:
    vec = [rng.uniform(-1.0, 1.0) for _ in range(size)]
    norm = math.sqrt(sum(v * v for v in vec))
    return [Fraction(v / norm) for v in vec]


def test_rotate_matches_substitution_oracle_on_exact_rows():
    # Householder rows of exact and of float-derived unit vectors, and products
    # of Pythagorean rotations; listed ids in any order, some of f's unlisted
    rng = random.Random(41)
    for _ in range(12):
        f = random_poly(rng, max_vars=5, max_degree=4, max_terms=4) * Fraction(rng.uniform(0.5, 2.0))
        size = rng.randint(1, 4)
        variables = rng.sample(range(1, 6), size)
        for rows in (
            householder_rows(random_rational_unit(rng, size)),
            householder_rows(_float_unit(rng, size)),
            random_rational_rotation(rng, size),
        ):
            assert rotate_basis(f, rows, variables) == substitute_rotation(f, rows, variables)


def test_rotate_matches_substitution_oracle_on_float_rows():
    # canonical_quadratic's rows are orthogonal only to float precision; the
    # substitution must still be expanded exactly
    rng = random.Random(43)
    checked = 0
    for _ in range(20):
        form = canonical_quadratic(random_poly(rng, max_vars=3, max_degree=2, max_terms=4))
        if len(form.variables) < 2:
            continue
        f = random_poly(rng, max_vars=4, max_degree=3, max_terms=4)
        expected = substitute_rotation(f, form.rotation, form.variables)
        assert rotate_basis(f, form.rotation, form.variables) == expected
        checked += 1
    assert checked >= 8


def test_rotate_rejects_non_orthogonal():
    with pytest.raises(PreconditionError, match="deviation"):
        rotate_basis(G1, [[1, 0], [0, Fraction(99, 100)]], [1, 2])


def test_split_worked_example_digit_for_digit():
    """f = G1 G2 along (3/5, 4/5).

    Hand substitution with hatG1 = (3 G1 + 4 G2)/5, hatG2 = (-4 G1 + 3 G2)/5
    gives f = (12 He2(hatG1) - 7 hatG1 hatG2 - 12 He2(hatG2)) / 25, so
    A2 = 12/25, A1 = -(7/25) hatG2, A0 = -(12/25) He2(hatG2), re-expanded
    below in the original coordinates.
    """
    step = decompose_along_w1(G1 * G2, {1: Fraction(3, 5), 2: Fraction(4, 5)})
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
    step = decompose_along_w1(HE2_1, {1: 1})
    assert step.coefficients[2] == ChaosPoly.constant(1)
    assert step.coefficients[1].is_zero() and step.coefficients[0].is_zero()

    step = decompose_along_w1(G2, {1: 1})
    assert step.coefficients[0] == G2
    assert all(c.is_zero() for c in step.coefficients[1:])


def test_split_rejects_non_unit_direction():
    with pytest.raises(PreconditionError, match="unit"):
        decompose_along_w1(G1 * G2, {1: 1, 2: 1})


def test_split_exactness_on_random_inputs():
    rng = random.Random(11)
    for _ in range(60):
        f = random_poly(rng, max_vars=4, max_degree=3)
        size = rng.randint(1, 4)
        unit = random_rational_unit(rng, size)
        direction = {v + 1: c for v, c in enumerate(unit)}
        step = decompose_along_w1(f, direction)
        assert step.reassemble() == f
        for coeff in step.coefficients:
            assert gamma_gradient(coeff, step.direction).is_zero()


def test_split_coefficients_match_per_bucket_rotation():
    # one shared back-rotation gives what a rotate_basis call per bucket gives
    rng = random.Random(47)
    for _ in range(12):
        f = random_poly(rng, max_vars=4, max_degree=4, max_terms=5)
        if rng.random() < 0.5:
            f = f * Fraction(rng.uniform(0.5, 2.0))
        size = rng.randint(1, 4)
        unit = random_rational_unit(rng, size) if rng.random() < 0.5 else _float_unit(rng, size)
        direction = {v + 1: c for v, c in enumerate(unit) if c}
        step = decompose_along_w1(f, direction)
        assert list(step.coefficients) == split_by_bucket_rotation(f, direction)


def test_split_parseval_bookkeeping():
    # single-step energy identity: <f,f> = sum_l ||A_l He_l(X)||^2 + ||A_0||^2
    rng = random.Random(13)
    for _ in range(30):
        f = random_poly(rng, max_vars=4, max_degree=3)
        unit = random_rational_unit(rng, rng.randint(1, 4))
        step = decompose_along_w1(f, {v + 1: c for v, c in enumerate(unit)})
        total = Fraction(0)
        for level, coeff in enumerate(step.coefficients):
            part = coeff * compose_hermite(level, step.direction)
            total += inner_product(part, part)
        assert total == inner_product(f, f)


def test_direction_split_delegates_for_linear_directions():
    step = decompose_along(G1 * G2, G1)
    assert step.exact and step.coefficients[1] == G2 and step.coefficients[0].is_zero()


def test_direction_split_preconditions():
    with pytest.raises(PreconditionError, match="1 <= q < p"):
        decompose_along(G1 * G2, G1 * G2)
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
    assert step.coefficients[1] == gaussian(3)
    assert (f - step.reassemble()).is_zero()


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


def test_iterate_zero_steps():
    f = (HE2_1 + HE2_2) / 2
    trace = iterate_decomposition(f, threshold=0.1, max_steps=0)
    assert trace.steps == () and trace.residual == f


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
    f = rotate_basis(first + second, rotation, variables)
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
        assert trace.to_json() == iterate_by_reconstruction(f, 1e-3, max_steps).to_json()
        step_counts.append(len(trace.steps))
    # every input takes a step, and at least one takes a second
    assert min(step_counts) >= 1 and max(step_counts) >= 2


def test_iterate_matches_reconstruction_oracle_on_a_quadratic_direction():
    # rho_1 = 4/5 < 0.9 <= rho_2, so the first step fits along a degree-2 direction
    f = hermite_monomial({1: 1, 2: 1, 3: 1, 4: 1}, Fraction(3, 5)) + hermite_monomial(
        {5: 1, 6: 1, 7: 1, 8: 1}, Fraction(4, 5)
    )
    trace = iterate_decomposition(f, threshold=0.9, max_steps=3)
    assert trace.steps[0].q == 2 and not trace.steps[0].exact
    assert trace.to_json() == iterate_by_reconstruction(f, 0.9, 3).to_json()


def test_rotate_leaves_unlisted_variables_alone():
    f = G1 * hermite_monomial({7: 2})
    rotation = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    g = rotate_basis(f, rotation, [1, 2])
    assert all(idx.degree_of(7) == 2 for idx in g.terms)
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
        rotated = rotate_basis(f, form.rotation, form.variables)
        diff = rotated - form.to_poly()
        worst = max((abs(float(c)) for c in diff.terms.values()), default=0.0)
        assert worst < 1e-10
