"""Directional influences: rho_1 as rho_q at q = 1, the assembled form against
an independent oracle, random-search/power-iteration oracle, monotonicity,
the fresh-variable identity, and scale covariance."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import (
    BasisSizeError,
    ChaosPoly,
    InputLaw,
    MultilinearPoly,
    PreconditionError,
    gaussian,
    hermite_monomial,
    inner_product,
    multilinear_influences,
    rho_1,
    rho_q,
    strongest_influence,
)
from chaoscalc.algebra import fresh_variables
from chaoscalc.influence import _influence_form, degree_monomials

from _oracles import oracle_quadratic_form, random_homogeneous, random_search_max

G1, G2 = gaussian(1), gaussian(2)
HE2_1 = hermite_monomial({1: 2})


def test_rho_1_examples():
    result = rho_1(G1)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.direction == G1

    result = rho_1(HE2_1)
    assert result.value == pytest.approx(2.0, abs=1e-12)
    assert result.direction == G1
    # brute-force confirmation over the unit circle in a two-variable embedding
    f = HE2_1 + 0 * G2
    _, qmat = oracle_quadratic_form(HE2_1, 1, [1, 2])
    angles = np.linspace(0.0, 2 * math.pi, 20001)
    vecs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    grid_best = np.sqrt(np.einsum("ij,jk,ik->i", vecs, qmat, vecs).max())
    assert grid_best <= 2.0 + 1e-9
    assert 2.0 - grid_best < 1e-6

    result = rho_1(G1 * G2)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.direction == G1  # gradient Gram matrix is the identity; tie -> sign rule


def test_rho_q_constant_is_zero():
    for q in (1, 2, 3):
        assert rho_q(ChaosPoly.constant(5), q, 2).value == 0.0


def test_rho_q_product_direction_example():
    # 6-dimensional degree-2 basis over {1, 2, fresh}; top eigenvalue 8
    result = rho_q(G1 * G2, 2, 1)
    assert result.basis_dimension == 6
    assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert set(result.direction.terms) == set((G1 * G2).terms)
    _, qmat = oracle_quadratic_form(G1 * G2, 2, [1, 2, 3])
    assert np.max(np.linalg.eigvalsh(qmat)) == pytest.approx(8.0, abs=1e-10)


def test_rho_q_degree_one_matches_matrix_path():
    rng = random.Random(3)
    for _ in range(20):
        f = random_homogeneous(rng, rng.randint(2, 4))
        assert rho_1(f).to_json() == rho_q(f, 1, 0).to_json()
    assert rho_q(HE2_1, 1, 0).value == pytest.approx(2.0, abs=1e-12)


def test_direction_is_unit_norm():
    rng = random.Random(5)
    for _ in range(15):
        f = random_homogeneous(rng, rng.randint(2, 4))
        for q in (1, 2):
            result = rho_q(f, q)
            if result.value > 0:
                assert abs(float(inner_product(result.direction, result.direction)) - 1.0) <= 1e-10


def test_value_squared_is_top_eigenvalue_of_oracle_form():
    rng = random.Random(7)
    for _ in range(12):
        f = random_homogeneous(rng, rng.randint(2, 4), max_vars=3)
        for q in (1, 2):
            result = rho_q(f, q)
            variables = sorted(set(f.variables()) | set(result.direction.variables()))
            if not variables:
                continue
            _, qmat = oracle_quadratic_form(f, q, variables)
            top = float(np.max(np.linalg.eigvalsh(qmat)))
            assert result.value**2 == pytest.approx(top, abs=1e-8 * max(1.0, top))


def test_random_search_oracle_agreement():
    # the eigen value dominates every random candidate and the power-iteration
    # refinement closes the gap to 1e-6
    rng = random.Random(11)
    for _ in range(8):
        f = random_homogeneous(rng, rng.randint(2, 4), max_vars=3)
        for q in (1, 2):
            result = rho_q(f, q)
            variables = sorted(set(f.variables()) | set(result.direction.variables()))
            if not variables:
                continue
            _, qmat = oracle_quadratic_form(f, q, variables)
            best_random, refined = random_search_max(qmat, draws=10_000, seed=rng.randint(0, 10**6))
            assert result.value >= best_random - 1e-9
            assert result.value >= refined - 1e-9
            assert abs(result.value - refined) < 1e-6 * max(1.0, result.value)


def test_monotonicity_in_the_degree():
    rng = random.Random(13)
    for _ in range(12):
        f = random_homogeneous(rng, rng.randint(3, 4), max_vars=3)
        values = {q: rho_q(f, q, extra_vars=q - 1).value for q in (1, 2)}
        assert values[1] <= values[2] + 1e-8


def test_scale_covariance():
    rng = random.Random(17)
    for _ in range(10):
        f = random_homogeneous(rng, rng.randint(2, 4), max_vars=3)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
        for q in (1, 2):
            assert rho_q(c * f, q).value == pytest.approx(
                abs(float(c)) * rho_q(f, q).value, abs=1e-10
            )


def test_extra_variables_never_shrink_the_value():
    rng = random.Random(19)
    for _ in range(6):
        f = random_homogeneous(rng, 4, max_vars=3)
        values = [rho_q(f, 2, extra).value for extra in (0, 1, 2)]
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_fresh_variables_give_the_max_over_lower_degrees():
    # Gamma(f, m n) = n Gamma(f, m) when n uses only fresh variables, so the
    # form splits into one block per fresh monomial, each a lower-degree form
    rng = random.Random(29)
    for _ in range(8):
        f = random_homogeneous(rng, rng.randint(2, 4), max_vars=3)
        for q in (2, 3):
            value = rho_q(f, q, extra_vars=1).value
            lower = max(rho_q(f, k, extra_vars=0).value for k in range(1, q + 1))
            assert abs(value - lower) <= 1e-12 * max(1.0, value)


def test_basis_cap_error_reports_dimension(monkeypatch):
    with pytest.raises(BasisSizeError) as err:
        rho_q(G1 * G2, 8, extra_vars=40)
    assert err.value.dimension > err.value.cap == 512
    # a cap set through the environment is honored too
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "5")
    with pytest.raises(BasisSizeError):
        rho_q(G1 * G2, 2, 1)


@pytest.mark.parametrize("raw", ["0", "-5", "many"])
def test_basis_cap_below_one_or_not_an_integer_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", raw)
    for call in (lambda: rho_q(G1 * G2, 2, 1), lambda: strongest_influence(G1 * G2, 0.5)):
        with pytest.raises(PreconditionError, match="CHAOSCALC_MAX_BASIS_DIM must be a positive integer"):
            call()


def test_strongest_influence_honours_the_basis_cap_at_q_one(monkeypatch):
    f = ChaosPoly.zero()
    for k in range(1, 5):
        f = f + gaussian(k) * gaussian(k + 1)
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "4")
    with pytest.raises(BasisSizeError) as err:
        strongest_influence(f, 0.5)
    assert (err.value.dimension, err.value.cap) == (5, 4)
    with pytest.raises(BasisSizeError):
        rho_1(f)


def test_basis_cap_env_override(monkeypatch):
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "4")
    with pytest.raises(BasisSizeError) as err:
        rho_q(G1 * G2, 2, 1)
    assert err.value.cap == 4 and err.value.dimension == 6


def test_strongest_influence_examples():
    result = strongest_influence(G1 * G2, 0.5, extra_vars=1)
    assert result.q_star == 1 and result.rho_values[1] == pytest.approx(1.0, abs=1e-12)

    result = strongest_influence(HE2_1, 3.0, extra_vars=0)
    assert result.q_star is None and result.direction is None
    assert result.rho_values[1] == pytest.approx(2.0, abs=1e-12)

    he4 = hermite_monomial({1: 4})
    result = strongest_influence(he4, 0.5, extra_vars=0)
    assert result.q_star == 1
    assert result.rho_values[1] == pytest.approx(math.sqrt(96), abs=1e-9)


def test_strongest_influence_preconditions():
    with pytest.raises(PreconditionError):
        strongest_influence(G1 + HE2_1, 0.5)
    with pytest.raises(PreconditionError):
        strongest_influence(G1, 0.5)
    with pytest.raises(PreconditionError):
        strongest_influence(HE2_1, 0.0)


def test_multilinear_influences_examples():
    law = InputLaw.rademacher()
    p = MultilinearPoly(law, {frozenset({(1, 1)}): 1})
    assert multilinear_influences(p) == {1: Fraction(1)}

    p = MultilinearPoly(law, {frozenset({(1, 1), (2, 1)}): 1, frozenset({(2, 1), (3, 1)}): 1})
    assert multilinear_influences(p) == {1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(1, 2)}

    n = 16
    p = MultilinearPoly(law, {frozenset({(k, 1)}): 1 for k in range(1, n + 1)})
    assert multilinear_influences(p) == {k: Fraction(1, n) for k in range(1, n + 1)}


def test_influence_result_json_round_trip_fields():
    result = rho_q(HE2_1, 1, 0)
    data = result.to_json_dict()
    assert set(data) == {
        "q", "value", "direction", "basis_dimension", "extra_variables_used", "eigengap"
    }
    assert data["q"] == 1 and data["extra_variables_used"] == 0
    assert data["eigengap"] is None  # one-dimensional basis: nothing outside the top cluster


def test_assembled_form_is_bit_identical_to_the_oracle():
    # both routes round the exact inner product once and divide by sqrt(w_a w_b)
    rng = random.Random(23)
    for _ in range(8):
        f = random_homogeneous(rng, rng.choice([3, 4]), max_vars=3)
        for q in (1, 2, 3):
            for extra in (0, 1):
                variables = list(f.variables()) + list(fresh_variables([f], extra))
                basis = degree_monomials(variables, q)
                oracle_basis, oracle = oracle_quadratic_form(f, q, variables)
                assert basis == oracle_basis
                assert np.array_equal(_influence_form(f, basis), oracle)


def clt_family(n: int) -> ChaosPoly:
    f = ChaosPoly.zero()
    for k in range(1, n + 1):
        f = f + hermite_monomial({k: 2})
    return f * Fraction(1.0 / math.sqrt(2 * n))


def test_eigengap_on_a_generic_input():
    f = hermite_monomial({1: 3}) + 2 * G1 * hermite_monomial({2: 2}) + G2 * gaussian(3) * G1
    for q in (1, 2):
        result = rho_q(f, q)
        variables = list(f.variables()) + list(fresh_variables([f], result.extra_variables_used))
        _, qmat = oracle_quadratic_form(f, q, variables)
        vals = np.linalg.eigvalsh(qmat)
        assert result.eigengap > 0
        assert result.eigengap == pytest.approx(vals[-1] - vals[-2], abs=1e-9 * vals[-1])


def test_eigengap_on_the_clt_family():
    for n in (1, 2, 4, 6):
        f = clt_family(n)
        # the gradient Gram matrix is (2/n) I: one cluster, no gap, first coordinate
        result = rho_1(f)
        assert result.eigengap is None and result.to_json_dict()["eigengap"] is None
        assert result.direction == G1
        # q = 2: the symmetric sum of He_2's is the unique top direction for n >= 2
        result = rho_q(f, 2, 0)
        if n == 1:
            assert result.eigengap is None
        else:
            assert result.eigengap == pytest.approx(4.0, abs=1e-9)
            coeffs = [float(c) for c in result.direction.terms.values() if abs(c) > 1e-12]
            assert len(coeffs) == n and max(coeffs) - min(coeffs) <= 1e-12
