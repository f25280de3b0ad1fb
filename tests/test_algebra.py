"""Hermite-basis algebra: worked examples against the raw-monomial oracle, ring
axioms, orthogonality, and the canonical JSON format."""

import json
import math
import random
import re
from fractions import Fraction

import pytest

from chaoscalc import (
    ChaosPoly,
    ParseError,
    PreconditionError,
    expectation,
    hermite_monomial,
    inner_product,
    moment,
    poly_from_json,
    project_chaos,
)
from chaoscalc.algebra import (
    _expand_product,
    _times_coordinate,
    _weight,
    canonical_json,
    hermite_product_1d,
    homogeneous_degree,
    json_value,
)

from _oracles import (
    compose_hermite,
    fraction_inner,
    partial_derivative,
    raw_expectation,
    raw_from_chaos,
    raw_mul,
    random_poly,
)

G1, G2 = hermite_monomial({1: 1}), hermite_monomial({2: 1})
HE2_1 = hermite_monomial({1: 2})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda c: hermite_monomial({1: 1}, c),
        lambda c: ChaosPoly.constant(c),
        lambda c: hermite_monomial({1: 1}) * c,
    ],
    ids=["hermite_monomial", "constant", "scalar_product"],
)
def test_non_finite_coefficients_are_precondition_errors(build, bad):
    with pytest.raises(PreconditionError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "build, var",
    [
        (lambda: hermite_monomial([(1, 2), (1, 3)]), 1),
        (lambda: ChaosPoly([([(2, 1), (2, 2)], 1)]), 2),
        (lambda: G1.coefficient([(1, 1), (1, 1)]), 1),
    ],
    ids=["hermite_monomial", "ChaosPoly", "coefficient"],
)
def test_a_variable_repeated_in_a_pairs_index_is_refused(build, var):
    # read through dict(), the pairs kept only the last degree of the variable
    with pytest.raises(PreconditionError, match=f"^variable {var} repeats$"):
        build()


def test_add_identity_and_cancellation():
    assert HE2_1 + ChaosPoly.zero() == HE2_1
    assert (HE2_1 + (-1) * HE2_1).is_zero()
    assert (G1 + G2).terms == {**G1.terms, **G2.terms}


def test_terms_are_keyed_by_sorted_variable_degree_tuples():
    rng = random.Random(29)
    for _ in range(40):
        f = random_poly(rng, max_vars=5, max_degree=4) * random_poly(rng, max_vars=5, max_degree=2)
        for idx in f.terms:
            assert type(idx) is tuple and list(idx) == sorted(idx)
            assert all(type(v) is int and type(d) is int and v >= 1 and d >= 1 for v, d in idx)
            assert len({v for v, _ in idx}) == len(idx)
        assert ChaosPoly(f.terms) == f
    assert hermite_monomial({2: 1, 1: 3}).terms == {((1, 3), (2, 1)): 1}
    spellings = [{2: 1, 1: 3}, [(2, 1), (1, 3)], ((1, 3), (2, 1))]
    polys = [hermite_monomial(index, Fraction(2, 3)) for index in spellings]
    # the constructor merges the three spellings into one term
    merged = ChaosPoly([(index, Fraction(2, 9)) for index in spellings])
    assert polys[0] == polys[1] == polys[2] == merged
    assert {f.coefficient(index) for f in polys for index in spellings} == {Fraction(2, 3)}


def test_mul_basic_linearization():
    assert G1 * G1 == HE2_1 + ChaosPoly.constant(1)
    assert G1 * G2 == hermite_monomial({1: 1, 2: 1})
    expected = hermite_monomial({1: 4}) + 4 * HE2_1 + ChaosPoly.constant(2)
    assert HE2_1 * HE2_1 == expected


def test_mul_matches_raw_expansion_oracle():
    # derived value: expand (x**2 - 1)**2 in the raw basis and compare
    rng = random.Random(7)
    for _ in range(40):
        f = random_poly(rng, max_vars=4, max_degree=3)
        g = random_poly(rng, max_vars=4, max_degree=3)
        assert raw_from_chaos(f * g) == raw_mul(raw_from_chaos(f), raw_from_chaos(g))


def _mixed_poly(rng: random.Random) -> ChaosPoly:
    """Degrees 0-4, denominators 1-4, 3, 7 or 9, and a float-derived (dyadic) scale."""
    f = random_poly(rng, max_vars=4, max_degree=4, max_terms=4) * Fraction(rng.uniform(0.1, 2.0))
    g = random_poly(rng, max_vars=4, max_degree=2, max_terms=3) * Fraction(1, rng.choice([3, 7, 9]))
    return f + g


def test_mul_matches_raw_oracle_on_mixed_denominators_and_degrees():
    rng = random.Random(43)
    for _ in range(20):
        f, g = _mixed_poly(rng), _mixed_poly(rng)
        product = f * g
        assert raw_from_chaos(product) == raw_mul(raw_from_chaos(f), raw_from_chaos(g))
        assert all(c != 0 for c in product.terms.values())


def test_mul_cancellation_stores_no_zero_coefficient():
    product = (G1 + G2) * (G1 - G2)
    assert product == HE2_1 - hermite_monomial({2: 2})
    assert len(product.terms) == 2  # the constants +1 and -1 and the G1 G2 terms cancel
    a = Fraction(0.1)  # dyadic, 55-bit denominator
    product = (a * G1 + a * G2) * (a * G1 - a * G2)
    assert product == a * a * (HE2_1 - hermite_monomial({2: 2}))
    assert all(c != 0 for c in product.terms.values()) and len(product.terms) == 2


def test_mul_by_zero_and_by_constants():
    rng = random.Random(47)
    zero = ChaosPoly.zero()
    for _ in range(10):
        f = _mixed_poly(rng)
        assert (f * zero).is_zero() and (zero * f).is_zero()
        assert f * ChaosPoly.constant(1) == f
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) * Fraction(rng.uniform(0.5, 2.0))
        assert f * ChaosPoly.constant(c) == f * c == ChaosPoly.constant(c) * f
        assert (f * ChaosPoly.constant(c)).terms == {idx: v * c for idx, v in f.terms.items()}
    assert (zero * zero).is_zero()
    assert ChaosPoly.constant(2) * ChaosPoly.constant(Fraction(1, 3)) == ChaosPoly.constant(
        Fraction(2, 3)
    )


def test_algebra_caches_are_bounded():
    assert _weight.cache_info().maxsize is not None
    assert hermite_product_1d.cache_info().maxsize is not None


def test_partial_derivative_examples():
    he3 = hermite_monomial({1: 3})
    assert partial_derivative(he3, 1) == 3 * HE2_1
    assert partial_derivative(he3, 2).is_zero()
    mixed = hermite_monomial({1: 2, 2: 1})
    assert partial_derivative(mixed, 1) == 2 * hermite_monomial({1: 1, 2: 1})
    assert partial_derivative(ChaosPoly.zero(), 1).is_zero()


def test_partial_derivative_matches_raw_oracle():
    rng = random.Random(11)
    for _ in range(30):
        f = random_poly(rng)
        for var in (1, 2, 3):
            lhs = raw_from_chaos(partial_derivative(f, var))
            rhs = {}
            for key, c in raw_from_chaos(f).items():
                d = dict(key)
                power = d.get(var, 0)
                if not power:
                    continue
                if power == 1:
                    del d[var]
                else:
                    d[var] = power - 1
                k = tuple(sorted(d.items()))
                rhs[k] = rhs.get(k, Fraction(0)) + c * power
            assert lhs == {k: v for k, v in rhs.items() if v}


def test_expectation_examples():
    assert expectation(HE2_1) == 0
    assert expectation(ChaosPoly.constant(5)) == 5
    assert expectation(HE2_1 * HE2_1) == 2  # Wick: E[(G**2-1)**2] = 2


def test_inner_product_examples():
    assert inner_product(HE2_1, HE2_1) == 2
    assert inner_product(HE2_1, G1) == 0
    assert inner_product(G1 * G2, G1 * G2) == 1


def test_inner_product_equals_expectation_of_product():
    rng = random.Random(13)
    for _ in range(60):
        f = random_poly(rng)
        g = random_poly(rng)
        assert inner_product(f, g) == expectation(f * g)


def _assert_inner_matches_oracle(f, g):
    value = inner_product(f, g)
    assert isinstance(value, Fraction)
    assert value == fraction_inner(f, g)
    assert inner_product(g, f) == value


def test_inner_product_matches_fraction_sum_on_mixed_denominators():
    rng = random.Random(53)
    for _ in range(40):
        f = random_poly(rng, max_vars=3, max_degree=3, max_terms=8)
        f = f * Fraction(rng.randint(1, 9), rng.randint(1, 12))
        g = random_poly(rng, max_vars=3, max_degree=3, max_terms=3)
        g = g * Fraction(rng.randint(-9, 9), rng.randint(1, 35))
        _assert_inner_matches_oracle(f, g)
        _assert_inner_matches_oracle(f, f)


def test_inner_product_matches_fraction_sum_on_dyadic_coefficients():
    # float-derived scalings give coefficients with denominators up to 2**60
    rng = random.Random(59)
    for _ in range(40):
        f = random_poly(rng, max_vars=3, max_degree=4) * Fraction(rng.uniform(-2.0, 2.0))
        g = random_poly(rng, max_vars=3, max_degree=4) * Fraction(rng.uniform(-2.0, 2.0))
        _assert_inner_matches_oracle(f, g)
        _assert_inner_matches_oracle(f, g * Fraction(1, 3))


def test_inner_product_of_disjoint_supports_and_zero():
    f = G1 * G2 + HE2_1 * Fraction(2, 3) + ChaosPoly.constant(Fraction(1, 7))
    g = hermite_monomial({3: 1}) + hermite_monomial({1: 1, 4: 3}, Fraction(5, 2))
    zero = ChaosPoly.zero()
    for a, b in ((f, g), (g, f), (f, zero), (zero, g), (zero, zero)):
        value = inner_product(a, b)
        assert value == 0 and isinstance(value, Fraction)
        assert value == fraction_inner(a, b)


def test_chaos_projection_examples():
    f = HE2_1 + 3 * G1 + ChaosPoly.constant(1)
    assert project_chaos(f, 2) == HE2_1
    assert project_chaos(f, 0) == ChaosPoly.constant(1)
    assert project_chaos(HE2_1, 5).is_zero()


def test_projections_are_orthogonal_across_degrees():
    rng = random.Random(17)
    for _ in range(40):
        f = random_poly(rng)
        g = random_poly(rng)
        for p in range(5):
            for q in range(5):
                if p != q:
                    assert inner_product(project_chaos(f, p), project_chaos(g, q)) == 0


def test_compose_hermite_examples():
    assert compose_hermite(0, G1 * G2) == ChaosPoly.constant(1)
    assert compose_hermite(2, G1) == HE2_1
    x = (3 * G1 + 4 * G2) / 5
    expected = (
        hermite_monomial({1: 2}, Fraction(9, 25))
        + hermite_monomial({2: 2}, Fraction(16, 25))
        + hermite_monomial({1: 1, 2: 1}, Fraction(24, 25))
    )
    assert compose_hermite(2, x) == expected


def test_compose_hermite_on_coordinates_is_the_monomial():
    for level in range(9):
        assert compose_hermite(level, hermite_monomial({3: 1})) == hermite_monomial({3: level} if level else {})


def test_moment_examples():
    assert moment(G1, 2) == 1
    assert moment(G1, 4) == 3  # (2k-1)!!
    assert moment(HE2_1, 4) == 60


def test_moment_matches_raw_wick_oracle():
    rng = random.Random(23)
    for _ in range(15):
        f = random_poly(rng, max_vars=3, max_degree=3, max_terms=3)
        raw = raw_from_chaos(f)
        power = dict(raw)
        for k in range(1, 5):
            assert moment(f, k) == raw_expectation(power)
            power = raw_mul(power, raw)


def test_second_moment_equals_norm_for_homogeneous():
    rng = random.Random(29)
    for _ in range(25):
        f = random_poly(rng)
        for p in range(1, 5):
            part = project_chaos(f, p)
            if not part.is_zero():
                assert moment(part, 2) == inner_product(part, part)


def test_ring_axioms_exact():
    rng = random.Random(31)
    for _ in range(25):
        f = random_poly(rng, max_vars=3, max_degree=3, max_terms=3)
        g = random_poly(rng, max_vars=3, max_degree=3, max_terms=3)
        h = random_poly(rng, max_vars=3, max_degree=2, max_terms=3)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_degree_bookkeeping():
    assert ChaosPoly.zero().degree is None
    assert ChaosPoly.constant(4).degree == 0
    assert (HE2_1 * HE2_1).degree == 4
    rng = random.Random(37)
    for _ in range(20):
        f = random_poly(rng)
        g = random_poly(rng)
        if not (f * g).is_zero():
            assert (f * g).degree <= f.degree + g.degree


def _random_numerators(rng: random.Random, variables, terms: int) -> dict:
    nums = {}
    for _ in range(terms):
        chosen = sorted(rng.sample(variables, rng.randint(0, len(variables))))
        entries = tuple((v, rng.randint(1, 3)) for v in chosen)
        nums[entries] = rng.choice([-1, 1]) * rng.randint(1, 10**6)
    return nums


@pytest.mark.parametrize(
    "w, where",
    [(1, "below every variable"), (3, "absent, between two"), (4, "present or absent"), (9, "above every variable")],
)
def test_times_coordinate_matches_the_general_product(w, where):
    # derived value: G_w is the Hermite monomial ((w, 1),), so the general product is the oracle
    rng = random.Random(w)
    for _ in range(60):
        nums = _random_numerators(rng, [2, 4, 5, 7], rng.randint(1, 6))
        assert _times_coordinate(nums, w) == _expand_product(nums, {((w, 1),): 1}), where


def test_times_coordinate_drops_degree_one_entries_and_cancelled_totals():
    # G He_1(G_2) He_1(G_3) = He_2(G_2) He_1(G_3) + He_1(G_3): the degree-1 entry drops
    assert _times_coordinate({((2, 1), (3, 1)): 5}, 2) == {((2, 2), (3, 1)): 5, ((3, 1),): 5}
    # G (He_2 - 2) = He_3 + 2 He_1 - 2 He_1: the He_1 total cancels and is dropped
    nums = {((2, 2),): 1, (): -2}
    assert _times_coordinate(nums, 2) == {((2, 3),): 1}
    assert _times_coordinate(nums, 2) == _expand_product(nums, {((2, 1),): 1})
    assert _times_coordinate({}, 2) == {}


def test_homogeneous_degree_checks():
    assert homogeneous_degree(HE2_1) == 2
    assert homogeneous_degree(ChaosPoly.zero()) == 0
    with pytest.raises(Exception, match="not homogeneous"):
        homogeneous_degree(HE2_1 + G1)


def test_json_round_trip_and_canonical_order():
    rng = random.Random(41)
    for _ in range(25):
        f = random_poly(rng)
        text = canonical_json(json_value(f))
        assert poly_from_json(text) == f
        assert canonical_json(json_value(poly_from_json(text))) == text
    data = json.loads(canonical_json(json_value(HE2_1 + G2 + ChaosPoly.constant(3))))
    degrees = [sum(term["index"].values()) for term in data["terms"]]
    assert degrees == sorted(degrees)


def test_json_reader_accepts_any_order():
    shuffled = json.dumps(
        {
            "terms": [
                {"coeff": "1", "index": {"1": 2}},
                {"coeff": "3", "index": {}},
            ][::-1]
        }
    )
    assert poly_from_json(shuffled) == HE2_1 + ChaosPoly.constant(3)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"terms": [{"coeff": "0", "index": {"1": 1}}]}, "zero coefficient"),
        ({"terms": [{"coeff": "1", "index": {"1": 0}}]}, "positive integer"),
        ({"terms": [{"coeff": "1", "index": {"0": 1}}]}, "positive"),
        ({"terms": [{"coeff": "x", "index": {}}]}, "bad coefficient"),
        ({"terms": [{"coeff": "1", "index": {"1": 1}}, {"coeff": "2", "index": {"1": 1}}]}, "duplicate"),
        # a variable id only as the writer spells it: ASCII digits, no sign, padding or underscore
        *(
            pytest.param(
                {"terms": [{"coeff": "1", "index": {"2": 1}}, {"coeff": "1", "index": {key: 1}}]},
                re.escape(f"term 1: bad variable id {key!r}"),
                id=f"id {key!r}",
            )
            for key in ["1_0", "\u0663", " 7", "7 ", "+3", "07", "-0", "", "1.0", "1e1"]
        ),
        ({"terms": [{"coeff": "1", "index": {"-1": 1}}]}, "term 0: variable ids must be positive"),
        # a key repeated within one object: text, as a dict cannot hold it
        pytest.param(
            '{"terms": [{"coeff": "1", "index": {"1": 2, "1": 3}}]}', "^duplicate key '1'$",
            id="repeated variable id",
        ),
        pytest.param(
            '{"terms": [{"coeff": "1", "index": {"1": 2}}], "terms": []}', "^duplicate key 'terms'$",
            id="second terms array",
        ),
        pytest.param(
            '{"terms": [{"coeff": "1", "coeff": "2", "index": {}}]}', "^duplicate key 'coeff'$",
            id="repeated coeff",
        ),
    ],
)
def test_json_reader_rejects_malformed_terms(payload, message):
    with pytest.raises(ParseError, match=message):
        poly_from_json(payload if isinstance(payload, str) else json.dumps(payload))
