"""Directional influences: the degree-1 influence, the assembled form against
an independent oracle, random-search/power-iteration oracle, monotonicity,
the running max over degrees against the fresh-variable oracle, and scale
covariance."""

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
    hermite_monomial,
    inner_product,
    iterate_decomposition,
    multilinear_influences,
    rho_q,
    strongest_influence,
)
from chaoscalc import influence
from chaoscalc.algebra import _gradients, _numerators
from chaoscalc.influence import (
    InfluenceResult,
    _budgeted_degrees,
    _influence_form,
    _top_eigenpair,
    degree_monomials,
)

from _oracles import (
    fresh_ids,
    generator_carre_du_champ,
    oracle_quadratic_form,
    padded_count_refuses,
    random_homogeneous,
    random_search_max,
    rho_1,
)

G1, G2 = hermite_monomial({1: 1}), hermite_monomial({2: 1})
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
        assert rho_q(ChaosPoly.constant(5), q).value == 0.0


def test_rho_q_product_direction_example():
    # top eigenvalue 8 of the degree-2 form over {1, 2}, dimension 3; the
    # padded space over {1, 2, fresh}, dimension 6, adds the degree-1 form's 1
    result = rho_q(G1 * G2, 2)
    assert result.basis_dimension == 3
    assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert set(result.direction.terms) == set((G1 * G2).terms)
    _, qmat = oracle_quadratic_form(G1 * G2, 2, [1, 2, 3])
    assert np.max(np.linalg.eigvalsh(qmat)) == pytest.approx(8.0, abs=1e-10)


@pytest.mark.parametrize("q", [1, 2, 10, 100, 250])
def test_rho_q_of_he2_has_the_closed_form_at_high_degree(q):
    # derived value: Gamma(He_2, He_q) = 2q He_1 He_{q-1} = 2q (He_q + (q-1) He_{q-2}),
    # so rho_q**2 = 4q**2 (q! + (q-1)**2 (q-2)!) / q! = 4q (2q - 1).  From q = 100 on
    # the form's exact entry and (q!)**2 exceed the float range; at q = 250 so does q!.
    result = influence._degree_influence(HE2_1, q)
    assert result.value == pytest.approx(2 * math.sqrt(q * (2 * q - 1)), rel=1e-12, abs=0)
    assert float(inner_product(result.direction, result.direction)) == pytest.approx(1.0, rel=1e-12)


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
            variables = [*f.variables(), *fresh_ids(f, min(q - 1, 1))]
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
            variables = [*f.variables(), *fresh_ids(f, min(q - 1, 1))]
            _, qmat = oracle_quadratic_form(f, q, variables)
            best_random, refined = random_search_max(qmat, draws=10_000, seed=rng.randint(0, 10**6))
            assert result.value >= best_random - 1e-9
            assert result.value >= refined - 1e-9
            assert abs(result.value - refined) < 1e-6 * max(1.0, result.value)


def test_monotonicity_in_the_degree():
    rng = random.Random(13)
    for _ in range(12):
        f = random_homogeneous(rng, rng.randint(3, 4), max_vars=3)
        values = {q: rho_q(f, q).value for q in (1, 2)}
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
    # the padded test space holds the degree's own basis
    rng = random.Random(19)
    for _ in range(6):
        f = random_homogeneous(rng, 4, max_vars=3)
        assert influence._degree_influence(f, 2).value <= rho_q(f, 2).value


def _gamma_ratio(f: ChaosPoly, x: ChaosPoly) -> float:
    """``||Gamma(f, x)|| / ||x||`` through the generator route, independent of the form."""
    gamma = generator_carre_du_champ(f, x)
    return math.sqrt(float(inner_product(gamma, gamma)) / float(inner_product(x, x)))


def test_fresh_variables_give_the_max_over_lower_degrees():
    # rho_q solves each degree on the variables of f and keeps the best; the
    # oracle assembles the form padded with one or two fresh variables and takes its top
    rng = random.Random(29)
    for _ in range(24):
        f = random_homogeneous(rng, rng.randint(2, 5), max_vars=3, max_terms=4)
        for q in (1, 2, 3):
            result = rho_q(f, q)
            for extra in (1, 2):
                _, qmat = oracle_quadratic_form(f, q, [*f.variables(), *fresh_ids(f, extra)])
                top = math.sqrt(max(float(np.max(np.linalg.eigvalsh(qmat))), 0.0))
                assert result.value == pytest.approx(top, rel=1e-12, abs=1e-300)
            assert result.value >= influence._degree_influence(f, q).value
            if result.value:
                ratio = _gamma_ratio(f, result.direction)
                assert ratio == pytest.approx(result.value, rel=1e-12)


def test_rho_is_the_running_max_over_the_degrees_own_solves():
    """f = 29 G_1 - 3 He_3(G_1) + He_5(G_1)/5 has a larger degree-1 influence,
    sqrt(1027) = 32.05, than degree-2 one, sqrt(782) = 27.96 (see
    ``test_cli.py::test_rho_running_max_picks_a_lower_degree``), so the paper's
    degree-2 influence exceeds the degree-2 solve alone."""
    f = 29 * G1 - 3 * hermite_monomial({1: 3}) + hermite_monomial({1: 5}, Fraction(1, 5))
    own = [influence._degree_influence(f, q) for q in (1, 2)]
    assert own[0].value == pytest.approx(math.sqrt(1027), rel=1e-15)
    assert own[1].value == pytest.approx(math.sqrt(782), rel=1e-15)
    assert list(own[1].direction.terms) == [((1, 2),)]
    assert rho_q(f, 2).value == max(own[0].value, own[1].value)


def test_basis_cap_error_reports_dimension(monkeypatch):
    # five variables: C(4 + 9, 9) = 715 monomials of degree 9
    f = hermite_monomial({1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    with pytest.raises(BasisSizeError) as err:
        rho_q(f, 9)
    assert err.value.dimension > err.value.cap == 512
    # a cap set through the environment is honored too: C(2 - 1 + 2, 2) = 3
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "2")
    with pytest.raises(BasisSizeError):
        rho_q(G1 * G2, 2)


def test_basis_count_is_the_binomial_up_to_the_cap():
    # the basis order: exponent vectors over the sorted variables, descending
    assert [dict(idx) for idx in degree_monomials([9, 2, 5], 2)] == [
        {2: 2}, {2: 1, 5: 1}, {2: 1, 9: 1}, {5: 2}, {5: 1, 9: 1}, {9: 2},
    ]
    assert degree_monomials([], 3) == [] and degree_monomials([4, 1], 0) == [()]
    for nvars in range(9):
        for q in range(1, 7):
            dim = math.comb(q + nvars - 1, q)
            assert dim == len(degree_monomials(list(range(1, nvars + 1)), q))
    for cap in (1, 4, 36, 100, 512):
        for nvars in range(9):
            for top in range(1, 13):
                # the first degree whose basis or cumulative work is over the cap
                refusal, work = None, 0
                for q in range(1, top + 1):
                    dim = math.comb(nvars - 1 + q, q)
                    work += q * q * dim
                    if dim > cap:
                        refusal = (q, dim, cap, "basis dimension")
                    elif work > cap * cap:
                        refusal = (q, work, cap * cap, "influence scan work sum_q q**2 dim_q")
                    if refusal:
                        break
                degrees = _budgeted_degrees(nvars, top, cap)
                if refusal is None:
                    assert list(degrees) == list(range(1, top + 1))
                    continue
                q, count, limit, what = refusal
                assert [next(degrees) for _ in range(q - 1)] == list(range(1, q))
                with pytest.raises(BasisSizeError) as err:
                    next(degrees)
                assert (err.value.dimension, err.value.cap) == (count, limit)
                # a refusal below the top degree is a lower bound for the whole scan
                bound = "at least " if q < top else ""
                assert str(err.value) == f"{what} {bound}{count} exceeds cap {limit}"


def test_budget_refuses_no_scan_the_padded_count_ran():
    """Own counts are at most the padded ones, and the work is summed over no
    more degrees than a padded refusal covered, so every scan the budget
    refuses the padded count refused too."""
    rng = random.Random(37)
    refused = 0
    for _ in range(3000):
        nvars, top, cap = rng.randint(0, 40), rng.randint(1, 120), rng.randint(1, 2000)
        try:
            list(_budgeted_degrees(nvars, top, cap))
        except BasisSizeError:
            refused += 1
            assert padded_count_refuses(nvars, top, cap), (nvars, top, cap)
    assert refused > 1000
    # the 31-variable cycle at q = 2: 496 own monomials, 528 padded ones
    assert list(_budgeted_degrees(31, 2, 512)) == [1, 2] and padded_count_refuses(31, 2, 512)


def test_scan_carries_the_best_degree_forward(monkeypatch):
    # canned single-degree results: degree 1 beats degree 2, degree 3 ties it within
    # TOP_CLUSTER_RTOL and wins as the higher degree, degree 4 falls below
    values = {1: 3.0, 2: 2.0, 3: 3.0 * (1 - 1e-12), 4: 1.0}

    def solve(f, q):
        return InfluenceResult(q, values[q], hermite_monomial({q: 1}), 10 * q, eigengap=float(q))

    monkeypatch.setattr(influence, "_degree_influence", solve)

    def scan(top):
        return [
            (r.q, r.value, r.direction, r.basis_dimension, r.eigengap)
            for r in influence._influence_scan(G1 * G2, top)
        ]

    best = lambda q, k: (q, values[k], hermite_monomial({k: 1}), 10 * k, float(k))
    assert scan(4) == [best(1, 1), best(2, 1), best(3, 3), best(4, 3)]
    # rho_q is the scan's last item
    assert rho_q(G1 * G2, 4) == [*influence._influence_scan(G1 * G2, 4)][-1]


def test_scans_take_the_first_degree_whose_own_solve_clears_the_threshold():
    """The first degree whose running max clears a threshold is the first whose
    own solve clears it, and the scan's item there is that degree's own result:
    ``q*``, its direction and a decomposition step do not depend on the padding."""
    rng = random.Random(41)
    split_degrees = set()
    for _ in range(14):
        # He_p on each of n > p variables, so rho_1 can fall below the unit norm and q* >= 2 split
        p = rng.randint(2, 6)
        n = rng.randint(p + 1, 12)
        f = random_homogeneous(rng, p, max_vars=n, max_terms=2)
        for k in range(1, n + 1):
            f = f + hermite_monomial({k: p}, Fraction(rng.randint(2, 4), 4))
        f = f * Fraction(1 / math.sqrt(float(inner_product(f, f))))
        own = [influence._degree_influence(f, q) for q in range(1, p // 2 + 1)]
        # the norm 1 is a cut too: a remainder below the threshold is not split
        cuts = sorted({r.value for r in own} | {1.0})
        thresholds = [cuts[0] / 2, *((a + b) / 2 for a, b in zip(cuts, cuts[1:])), 2 * cuts[-1]]
        for t in thresholds:
            first = next((r for r in own if r.value >= t), None)
            result = strongest_influence(f, t)
            trace = iterate_decomposition(f, t, 1)
            if first is None:
                assert result.q_star is None and result.direction is None and trace.steps == ()
                continue
            assert (result.q_star, result.direction) == (first.q, first.direction)
            if t <= 1.0:
                (step,) = trace.steps
                assert (step.q, step.direction) == (first.q, first.direction)
                split_degrees.add(step.q)
    assert split_degrees == {1, 2}


def test_hermite_multiples_yield_no_zero_totals():
    # G_1 He_60 = He_61 + 60 He_59: the raising step's subtraction cancels every lower total
    assert list(influence._hermite_multiples({((1, 1),): 2}, [1], 60)) == [
        (((1, 60),), {((1, 61),): 2, ((1, 59),): 120})
    ]
    rng = random.Random(43)
    for _ in range(30):
        f = random_homogeneous(rng, rng.randint(1, 5), max_vars=3)
        grads = _gradients(_numerators(f._terms)[1])
        for grad in grads.values():
            for _, prod in influence._hermite_multiples(grad, sorted(grads), rng.randint(0, 6)):
                assert prod and all(prod.values())


def test_each_degree_is_solved_once(monkeypatch):
    calls = []
    form = influence._influence_form
    monkeypatch.setattr(influence, "_influence_form", lambda f, basis: calls.append(1) or form(f, basis))
    f = hermite_monomial({1: 4, 2: 2}) + G1 * G2 * hermite_monomial({3: 4})
    for call, count in [
        (lambda: strongest_influence(f, 100.0), 3),  # q = 1, 2, 3 for degree 6
        (lambda: rho_q(f, 3), 3),
        (lambda: rho_q(f, 1), 1),
    ]:
        calls.clear()
        call()
        assert len(calls) == count


@pytest.mark.parametrize("raw", ["0", "-5", "many"])
def test_basis_cap_below_one_or_not_an_integer_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", raw)
    for call in (lambda: rho_q(G1 * G2, 2), lambda: strongest_influence(G1 * G2, 0.5)):
        with pytest.raises(PreconditionError, match="CHAOSCALC_MAX_BASIS_DIM must be a positive integer"):
            call()


def test_strongest_influence_honours_the_basis_cap_at_q_one(monkeypatch):
    f = ChaosPoly.zero()
    for k in range(1, 5):
        f = f + hermite_monomial({k: 1, k + 1: 1})
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "4")
    with pytest.raises(BasisSizeError) as err:
        strongest_influence(f, 0.5)
    assert (err.value.dimension, err.value.cap) == (5, 4)
    with pytest.raises(BasisSizeError):
        rho_1(f)


def test_basis_cap_env_override(monkeypatch):
    # the count is over f's own variables at every degree: C(2 - 1 + 2, 2) = 3 at q = 2
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "2")
    with pytest.raises(BasisSizeError) as err:
        rho_q(G1 * G2, 2)
    assert err.value.cap == 2 and err.value.dimension == 3
    assert rho_q(G1 * G2, 1).basis_dimension == 2


def test_strongest_influence_examples():
    result = strongest_influence(G1 * G2, 0.5)
    assert result.q_star == 1 and result.rho_values[1] == pytest.approx(1.0, abs=1e-12)

    result = strongest_influence(HE2_1, 3.0)
    assert result.q_star is None and result.direction is None
    assert result.rho_values[1] == pytest.approx(2.0, abs=1e-12)

    he4 = hermite_monomial({1: 4})
    result = strongest_influence(he4, 0.5)
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
    result = rho_q(HE2_1, 1)
    data = result.to_json_dict()
    assert set(data) == {"q", "value", "direction", "basis_dimension", "eigengap", "eigen_residual"}
    assert data["q"] == 1
    assert data["eigengap"] is None  # one-dimensional basis: nothing outside the top cluster
    assert data["eigen_residual"] == 0.0  # Q = [[4]], v = [1]
    empty = rho_q(ChaosPoly.constant(5), 1).to_json_dict()
    assert empty["eigengap"] is None and empty["eigen_residual"] is None


def test_assembled_form_is_bit_identical_to_the_oracle():
    # both routes round the exact inner product once and divide by sqrt(w_a w_b);
    # at q = 4 the raising runs to He_3 of one coordinate, past its first two levels
    rng = random.Random(23)
    cases = [(random_homogeneous(rng, rng.choice([3, 4]), max_vars=3), (1, 2, 3)) for _ in range(8)]
    cases += [(random_homogeneous(rng, rng.choice([5, 6]), max_vars=2), (4,)) for _ in range(4)]
    for f, orders in cases:
        for q in orders:
            basis = degree_monomials(f.variables(), q)
            oracle_basis, oracle = oracle_quadratic_form(f, q, f.variables())
            assert basis == oracle_basis
            assert np.array_equal(_influence_form(f, basis), oracle)


def clt_family(n: int) -> ChaosPoly:
    f = ChaosPoly.zero()
    for k in range(1, n + 1):
        f = f + hermite_monomial({k: 2})
    return f * Fraction(1.0 / math.sqrt(2 * n))


def test_eigengap_on_a_generic_input():
    f = hermite_monomial({1: 3}) + 2 * G1 * hermite_monomial({2: 2}) + hermite_monomial({1: 1, 2: 1, 3: 1})
    for q in (1, 2):
        # the gap is within the form of the degree that attains the max
        result = rho_q(f, q)
        _, qmat = oracle_quadratic_form(f, result.direction.degree, f.variables())
        vals = np.linalg.eigvalsh(qmat)
        assert result.eigengap > 0
        assert result.eigengap == pytest.approx(vals[-1] - vals[-2], abs=1e-9 * vals[-1])


def test_eigen_residual_on_a_generic_input():
    f = hermite_monomial({1: 3}) + 2 * G1 * hermite_monomial({2: 2}) + hermite_monomial({1: 1, 2: 1, 3: 1})
    for q in (1, 2):
        result = rho_q(f, q)
        top = result.value**2
        assert 0 <= result.eigen_residual <= 1e-12 * max(1.0, top)


def _snap_inputs():
    """Degree 2-4 over 1-8 variables, small-rational and float-scaled to unit norm."""
    rng = random.Random(31)
    for _ in range(40):
        f = random_homogeneous(rng, rng.randint(2, 4), max_vars=rng.randint(1, 8), max_terms=8)
        yield f
        yield f * Fraction(1.0 / math.sqrt(float(inner_product(f, f))))


def _assert_snapped(direction: ChaosPoly, f: ChaosPoly) -> None:
    """``direction`` is exactly unit, one denominator below 2**108, and within
    4 * 2**-53 of the float eigenvector ``v`` of the degree-1 form in every
    coordinate, beyond ``v``'s own norm error.

    No unit vector is closer to ``v`` than ``|1 - ||v||| * max |v_i|``, and
    LAPACK returns ``v`` with ``|sum v**2 - 1|`` up to about 11 * 2**-53, so
    that error is added to the bound.
    """
    basis = degree_monomials(f.variables(), 1)
    _, vec, _ = _top_eigenpair(_influence_form(f, basis))
    floats = [Fraction(float(v)) for v in vec]
    coeffs = [direction.terms.get(idx, Fraction(0)) for idx in basis]
    assert set(direction.terms) <= set(basis)
    assert sum(c * c for c in coeffs) == 1
    bound = Fraction(4, 2**53) + abs(sum(v * v for v in floats) - 1)
    assert max(abs(c - v) for c, v in zip(coeffs, floats)) <= bound
    assert math.lcm(*(c.denominator for c in coeffs)) < 2**108
    if len(direction.terms) == 1:
        assert list(direction.terms.values()) in ([1], [-1])


def test_degree_one_directions_are_snapped_to_exact_unit_rationals():
    for f in _snap_inputs():
        result = rho_q(f, 1)
        _assert_snapped(result.direction, f)
        scan = strongest_influence(f, 1e-9)
        assert scan.q_star == 1 and scan.direction == result.direction
        _assert_snapped(scan.direction, f)
    # a one-variable basis gives the coordinate itself
    f = hermite_monomial({5: 3}, Fraction(-2, 7))
    assert rho_q(f, 1).direction == hermite_monomial({5: 1})


def test_eigengap_on_the_clt_family():
    for n in (1, 2, 4, 6):
        f = clt_family(n)
        # the gradient Gram matrix is (2/n) I: one cluster, no gap, first coordinate
        result = rho_1(f)
        assert result.eigengap is None and result.to_json_dict()["eigengap"] is None
        assert result.direction == G1
        # q = 2: the symmetric sum of He_2's is the unique top direction for n >= 2
        result = influence._degree_influence(f, 2)
        if n == 1:
            assert result.eigengap is None
        else:
            assert result.eigengap == pytest.approx(4.0, abs=1e-9)
            coeffs = [float(c) for c in result.direction.terms.values() if abs(c) > 1e-12]
            assert len(coeffs) == n and max(coeffs) - min(coeffs) <= 1e-12
