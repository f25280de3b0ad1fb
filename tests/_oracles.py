"""Independent reference machinery for the test suite.

Everything here works in the *raw monomial* basis (powers of the coordinates,
not Hermite polynomials) with exact rational coefficients, so it shares no
code path with the package's Hermite-basis algebra:

* products are exponent additions,
* Gaussian expectations are products of one-dimensional raw moments
  ``E[G**k] = (k-1)!!`` for even ``k`` (independent coordinates),
* derivatives follow the power rule.

Also provides the carre du champ through the generator, the independent
route for ``gamma_gradient``, and the exact rational checkers of integration
by parts, the trilinear identity and the second-moment inequality built on
``gamma_gradient`` (``check_ipp``, ``check_algebraic_identity``,
``check_spectral_inequality``); ``rho_1``, the degree-1 influence over the
variables of ``f``; exact rational orthogonal matrices (compositions of
Pythagorean plane rotations, and the Householder completion of a unit
vector), random polynomial generators, a random-search plus power-iteration
maximizer used as the influence oracle, fresh variable ids that pad the
oracle influence form's test space, the padded count of the influence cap
that the library's one budget replaced (``padded_count_refuses``), and ``substitute_rotation``, an
orthogonal change of coordinates built from ``compose_hermite`` and
``ChaosPoly`` products, which rotates test inputs.  The general Wick
substitution of ``n`` linear forms as memoised products of their powers
(``substitute_forms``) checks the library's rank-one substitution kernel;
``inner_product``, the linear split of ``decompose_along`` and
``iterate_decomposition`` are checked against the routes they took before
they were specialised: a ``Fraction`` sum, a rotation into the Householder basis with one
back-rotation per level bucket, and the level-0 part rebuilt by subtracting
the fitted levels.  ``read_sample_file_whole_text`` reads a sample
file as ``read_sample_file`` did before it streamed: the whole text, split
into lines, then one ``float`` of every body line; it is the oracle for the
reader that numpy's C text parser backs.  ``format_sample_file`` is the sample
file's text built whole, the oracle for the streamed writer's bytes, and
``w2_1d_unfused`` is the transport cost with a fresh array per step.
``write_sample_file`` writes a sample file from the library's
``_sample_file_pieces``, as the ``sample`` command does, and
``partial_derivative`` reads one variable's derivative off the library's
``_gradients``: the tests' handles on library code that no command calls by
those names.
``compose_hermite`` is ``He_level`` of a polynomial by the Hermite
recurrence, a second route to the library's raising rule, and
``gram_schmidt_monic`` builds an input law's monic orthogonal polynomials by
exact Gram-Schmidt on ``1, x, x**2, ...``, the oracle for the three-term
recurrence that ``build_ensemble`` computes.  ``law_json_dict`` and
``multilinear_json_dict`` write the JSON that ``InputLaw.from_json_dict`` and
``MultilinearPoly.from_json_dict`` read, and ``multilinear_second_moment`` is
``E[p**2]`` of an orthonormal ensemble's polynomial, the sum of its squared
coefficients: the tests' own writers and checks, which no command needs.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from chaoscalc import (
    ChaosPoly,
    InfluenceResult,
    InputLaw,
    IterationTrace,
    MultilinearPoly,
    decompose_along,
    expectation,
    gamma_gradient,
    hermite_monomial,
    homogeneous_degree,
    ou_generator,
    project_chaos,
    rho_q,
    strongest_influence,
)
from chaoscalc import ParseError, SampleSet
from chaoscalc.algebra import (
    JsonResult,
    _gradients,
    _monomial,
    _numerators,
    _parse_int,
    _weight,
    hermite_values,
)
from chaoscalc.decompose import _WIDTH
from chaoscalc.montecarlo import _sample_file_pieces

# raw polynomial: map from ((var, power), ...) ascending -> Fraction
RawPoly = dict


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_raw_moment(k: int) -> Fraction:
    if k % 2:
        return Fraction(0)
    return Fraction(double_factorial(k - 1))


def he_raw_coeffs(k: int) -> list[Fraction]:
    """Coefficients of x**0 .. x**k of the probabilists' Hermite polynomial."""
    prev = [Fraction(1)]
    if k == 0:
        return prev
    cur = [Fraction(0), Fraction(1)]
    for n in range(1, k):
        nxt = [Fraction(0)] + cur  # times x
        for i, c in enumerate(prev):
            nxt[i] -= n * c
        prev, cur = cur, nxt
    return cur


def raw_zero() -> RawPoly:
    return {}


def raw_constant(c) -> RawPoly:
    c = Fraction(c)
    return {(): c} if c else {}


def raw_add(a: RawPoly, b: RawPoly) -> RawPoly:
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def raw_scale(a: RawPoly, c) -> RawPoly:
    c = Fraction(c)
    if not c:
        return {}
    return {key: c * v for key, v in a.items()}


def raw_mul(a: RawPoly, b: RawPoly) -> RawPoly:
    out: RawPoly = {}
    for ka, ca in a.items():
        da = dict(ka)
        for kb, cb in b.items():
            merged = dict(da)
            for var, power in kb:
                merged[var] = merged.get(var, 0) + power
            key = tuple(sorted(merged.items()))
            s = out.get(key, Fraction(0)) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def raw_expectation(a: RawPoly) -> Fraction:
    total = Fraction(0)
    for key, c in a.items():
        prod = c
        for _, power in key:
            m = gaussian_raw_moment(power)
            if not m:
                prod = Fraction(0)
                break
            prod *= m
        total += prod
    return total


def raw_inner(a: RawPoly, b: RawPoly) -> Fraction:
    return raw_expectation(raw_mul(a, b))


def raw_partial(a: RawPoly, var: int) -> RawPoly:
    out: RawPoly = {}
    for key, c in a.items():
        d = dict(key)
        power = d.get(var, 0)
        if not power:
            continue
        if power == 1:
            del d[var]
        else:
            d[var] = power - 1
        new_key = tuple(sorted(d.items()))
        s = out.get(new_key, Fraction(0)) + c * power
        if s:
            out[new_key] = s
        else:
            out.pop(new_key, None)
    return out


def raw_gamma(a: RawPoly, b: RawPoly, variables) -> RawPoly:
    out: RawPoly = {}
    for var in variables:
        out = raw_add(out, raw_mul(raw_partial(a, var), raw_partial(b, var)))
    return out


def raw_from_chaos(f: ChaosPoly) -> RawPoly:
    """Convert a Hermite-basis polynomial to the raw monomial basis."""
    total: RawPoly = {}
    for idx, coeff in f.terms.items():
        term = raw_constant(1)
        for var, deg in idx:
            factor = {}
            for power, c in enumerate(he_raw_coeffs(deg)):
                if c:
                    key = ((var, power),) if power else ()
                    factor[key] = c
            term = raw_mul(term, factor)
        total = raw_add(total, raw_scale(term, coeff))
    return total


def partial_derivative(f: ChaosPoly, var: int) -> ChaosPoly:
    """Exact partial derivative, using ``He_k' = k He_{k-1}`` (``_gradients``)."""
    denom, nums = _numerators(f._terms)
    return ChaosPoly._from_numerators(_gradients(nums).get(var, {}), denom)


def generator_carre_du_champ(f: ChaosPoly, g: ChaosPoly) -> ChaosPoly:
    """Carre du champ through the generator, ``(L(fg) - f Lg - g Lf) / 2``, exact."""
    lfg = ou_generator(f * g)
    flg = f * ou_generator(g)
    glf = g * ou_generator(f)
    return (lfg - flg - glf) * Fraction(1, 2)


@dataclass(frozen=True)
class IdentityReport(JsonResult):
    """Both sides of a checked identity (or inequality) in exact rationals."""

    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
            "holds": self.holds,
        }


def check_ipp(f: ChaosPoly, g: ChaosPoly) -> IdentityReport:
    """Integration by parts: ``-E[f Lg] == E[Gamma(f, g)]``, exact."""
    lhs = -expectation(f * ou_generator(g))
    rhs = expectation(gamma_gradient(f, g))
    residual = lhs - rhs
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual, holds=residual == 0)


def check_algebraic_identity(f: ChaosPoly, g: ChaosPoly, h: ChaosPoly) -> IdentityReport:
    """``E[Gamma(f,g) h] == (p+q-r)/2 * E[f g h]`` for single-stratum inputs."""
    p = homogeneous_degree(f, "first argument")
    q = homogeneous_degree(g, "second argument")
    r = homogeneous_degree(h, "third argument")
    lhs = expectation(gamma_gradient(f, g) * h)
    rhs = Fraction(p + q - r, 2) * expectation(f * g * h)
    residual = lhs - rhs
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual, holds=residual == 0)


def check_spectral_inequality(x: ChaosPoly, y: ChaosPoly) -> IdentityReport:
    """Second-moment bound ``E[Gamma(x,y)^2] <= (p+q)/2 * E[x y Gamma(x,y)]``.

    The factor (p+q)/2 follows from expanding ``(L + p + q)^2`` as
    ``L(L + p + q) + (p + q)(L + p + q)`` and dropping the nonpositive first
    term; equality holds e.g. for x == y in the degree-1 stratum.
    ``holds`` reports the inequality; ``residual = lhs - rhs`` is <= 0 when it holds.
    """
    p = homogeneous_degree(x, "first argument")
    q = homogeneous_degree(y, "second argument")
    gamma = gamma_gradient(x, y)
    lhs = expectation(gamma * gamma)
    rhs = Fraction(p + q, 2) * expectation(x * y * gamma)
    residual = lhs - rhs
    return IdentityReport(lhs=lhs, rhs=rhs, residual=residual, holds=residual <= 0)


def compose_hermite(level: int, x: ChaosPoly) -> ChaosPoly:
    """``He_level`` evaluated at the polynomial ``x``, re-expanded on the basis."""
    if level == 0:
        return ChaosPoly.constant(1)
    return hermite_values(x, level)[level]


def law_json_dict(law: InputLaw) -> dict:
    """An input law as the JSON object ``InputLaw.from_json_dict`` reads."""
    data: dict = {"kind": law.kind}
    if law.kind == "discrete":
        data["points"] = [str(p) for p in law.points]
        data["probabilities"] = [str(p) for p in law.probabilities]
    return data


def multilinear_json_dict(p: MultilinearPoly) -> dict:
    """A multilinear polynomial as the JSON object ``MultilinearPoly.from_json_dict`` reads."""
    terms = [{"coeff": str(c), "vars": list(map(list, t))} for t, c in p.terms.items()]
    return {"law": law_json_dict(p.law), "terms": terms}


def multilinear_second_moment(p: MultilinearPoly) -> Fraction:
    """``E[p**2]``: the sum of the squared coefficients, the constant's included."""
    return sum((c * c for c in p.terms.values()), Fraction(0))


def gram_schmidt_monic(law: InputLaw, d: int) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """``(coefficients of x**0, x**1, ..., norm_sq)`` of each monic orthogonal
    polynomial ``p_0 ... p_D`` of ``law``, ``D <= d``, by exact Gram-Schmidt on
    the monomials under the law's moments.  Stops where the next residual has
    zero norm, as it does on a finite support."""
    moments = [law.moment(j) for j in range(2 * d + 1)]
    polys = [((Fraction(1),), Fraction(1))]
    for k in range(1, d + 1):
        # x**k minus its projections on the earlier members
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        for prev, prev_norm_sq in polys:
            overlap = sum(c * moments[k + i] for i, c in enumerate(prev))
            for i, c in enumerate(prev):
                coeffs[i] -= overlap / prev_norm_sq * c
        norm_sq = sum(
            ca * cb * moments[i + j] for i, ca in enumerate(coeffs) for j, cb in enumerate(coeffs)
        )
        if norm_sq == 0:
            break
        polys.append((tuple(coeffs), norm_sq))
    return polys


def rho_1(f: ChaosPoly) -> InfluenceResult:
    """The degree-1 influence over the variables of ``f``."""
    return rho_q(f, 1)


def substitute_rotation(f: ChaosPoly, rotation, variables) -> ChaosPoly:
    """``G_{variables[j]} -> sum_i rotation[i][j] G_{variables[i]}`` substituted into ``f``.

    Each substituted linear form is built as a ``ChaosPoly``, raised to
    ``He_k`` by ``compose_hermite`` and multiplied out term by term with
    ``ChaosPoly`` products; variables outside ``variables`` pass through.
    No orthogonality is checked or assumed.
    """
    variables = list(variables)
    rows = [[Fraction(entry) for entry in row] for row in rotation]
    lin = {}
    for j, var in enumerate(variables):
        poly = ChaosPoly.zero()
        for i, row in enumerate(rows):
            if row[j]:
                poly = poly + hermite_monomial({variables[i]: 1}, row[j])
        lin[var] = poly
    out = ChaosPoly.zero()
    for idx, coeff in f.terms.items():
        acc = ChaosPoly.constant(coeff)
        for var, deg in idx:
            if var in lin:
                acc = acc * compose_hermite(deg, lin[var])
            else:
                acc = acc * hermite_monomial({var: deg})
        out = out + acc
    return out


def substitute_forms(f: ChaosPoly, variables, lin, d: int) -> tuple[int, dict]:
    """Wick substitution ``G_{variables[j]} -> lin[j] / d`` into ``f``, on integer numerators.

    The general route, the independent reference for the rank-one kernel
    ``decompose._rank_one_substitute``.  ``lin[j]`` maps packed ordinary
    monomials (``_WIDTH`` bits per column; column ``j`` is ``variables[j]``,
    and column ``len(variables)`` a new coordinate ``X``) to integer
    coefficients, and the forms must be orthonormal.  Each listed part
    ``He_a`` of a term becomes the Wick power of the substituted forms: the
    ordinary product of powers ``prod_j lin_j^a_j`` over ``d**|a|``, every
    ordinary monomial of which is read back as a Hermite monomial.  Returns
    ``(D, out)`` with ``D = L d**top`` (``L`` the lcm of the coefficients'
    denominators, ``top`` the largest listed degree of a term) and
    ``out[(l, e)]`` the numerator over ``D`` of ``He_l(X)`` times the Hermite
    monomial of sorted entries ``e``.  Products of powers are memoised, each
    built from a smaller one times one linear form, so terms share them.
    """
    denom, numerators = _numerators(f._terms)
    col_of = {var: j for j, var in enumerate(variables)}
    split = []
    for entries, num in numerators.items():
        packed, deg = 0, 0
        rest = []
        for var, k in entries:
            j = col_of.get(var)
            if j is None:
                rest.append((var, k))
            else:
                packed += k << _WIDTH * j
                deg += k
        split.append((num, packed, deg, tuple(rest)))
    top = max((deg for _, _, deg, _ in split), default=0)

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for e1, n1 in a.items():
            for e2, n2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + n1 * n2
        return out

    # powers[c] = prod_j lin_j^c_j for packed exponents c, over d**|c|
    powers: dict[int, dict[int, int]] = {0: {0: 1}}

    def power(packed: int) -> dict[int, int]:
        acc = powers.get(packed)
        if acc is None:
            # peel one factor of the highest column down to a known power, then multiply back
            chain = []
            while acc is None:
                j = (packed.bit_length() - 1) // _WIDTH
                chain.append(j)
                packed -= 1 << _WIDTH * j
                acc = powers.get(packed)
            for j in reversed(chain):
                packed += 1 << _WIDTH * j
                acc = powers[packed] = times(acc, lin[j])
        return acc

    # unlisted entries -> packed output monomial -> numerator over denom * d**top
    out: dict = {}
    for num, alpha, deg, rest in split:
        acc = out.setdefault(rest, {})
        scale = num * d ** (top - deg)
        for mono, t in power(alpha).items():
            acc[mono] = acc.get(mono, 0) + scale * t
    by_id = sorted((var, _WIDTH * j) for j, var in enumerate(variables))
    level_shift = _WIDTH * len(variables)
    mask = (1 << _WIDTH) - 1
    totals: dict = {}
    for rest, acc in out.items():
        for mono, t in acc.items():
            degrees = ((var, mono >> shift & mask) for var, shift in by_id)
            entries = tuple((var, k) for var, k in degrees if k)
            totals[mono >> level_shift, tuple(sorted(entries + rest)) if rest else entries] = t
    return denom * d**top, totals


def fraction_inner(f: ChaosPoly, g: ChaosPoly) -> Fraction:
    """``E[f g]`` as a plain ``Fraction`` sum of ``c_f c_g prod_i k_i!`` over ``f``'s terms."""
    total = Fraction(0)
    for idx, coeff in f.terms.items():
        total += coeff * g.coefficient(idx) * _weight(idx)
    return total


def householder_rows(a: list[Fraction]) -> list[list[Fraction]]:
    """Exactly orthogonal rational matrix whose first row is the unit vector ``a``.

    Reflector through ``a + e1`` (or ``a - e1`` when ``a_1 < 0``, avoiding
    cancellation), with the first row negated as needed.  Orthogonality is
    exact for any rational input; the first row equals ``a`` exactly when
    ``a`` has exact unit norm.
    """
    n = len(a)
    flip = a[0] >= 0
    v = list(a)
    if flip:
        v[0] = v[0] + 1
    else:
        v[0] = v[0] - 1
    vtv = sum(x * x for x in v)  # |v_1| >= 1, so never zero
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = (Fraction(1) if i == j else Fraction(0)) - 2 * v[i] * v[j] / vtv
            row.append(entry)
        rows.append(row)
    if flip:
        rows[0] = [-entry for entry in rows[0]]
    return rows


def split_by_bucket_rotation(f: ChaosPoly, a: dict) -> list[ChaosPoly]:
    """The coefficients of ``decompose_along`` along ``x = sum_v a[v] G_v``, by
    rotation: ``f`` rotated into the Householder rows of ``a``, grouped by the
    pivot's Hermite degree, and each level bucket rotated back by its own
    ``substitute_rotation`` call on the transposed rows."""
    variables = sorted(a)
    rows = householder_rows([Fraction(a[v]) for v in variables])
    pivot = variables[0]
    rotated = substitute_rotation(f, rows, variables)
    buckets: dict[int, ChaosPoly] = {}
    for idx, coeff in rotated.terms.items():
        level = dict(idx).get(pivot, 0)
        rest = {v: d for v, d in idx if v != pivot}
        buckets[level] = buckets.get(level, ChaosPoly.zero()) + hermite_monomial(rest, coeff)
    back = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows))]
    return [
        substitute_rotation(buckets[level], back, variables) if level in buckets else ChaosPoly.zero()
        for level in range((f.degree or 0) + 1)
    ]


def iterate_by_reconstruction(f: ChaosPoly, threshold: float, max_steps: int) -> IterationTrace:
    """``iterate_decomposition`` with every step's level-0 part rebuilt as
    ``remainder - sum_{l>=1} A_l He_l(x)``, on the exact path as on the fitted one."""
    p = homogeneous_degree(f, "input")
    steps, contributions = [], []
    remainder = f
    while len(steps) < max_steps and not remainder.is_zero():
        if math.sqrt(float(fraction_inner(remainder, remainder))) < threshold:
            break
        scan = strongest_influence(remainder, threshold)
        if scan.q_star is None:
            break
        step = decompose_along(remainder, scan.direction)
        fitted = ChaosPoly.zero()
        for level in range(1, len(step.coefficients)):
            fitted = fitted + step.coefficients[level] * compose_hermite(level, step.direction)
        new_remainder = project_chaos(remainder - fitted, p)
        steps.append(step)
        contributions.append(remainder - new_remainder)
        remainder = new_remainder
    return IterationTrace(
        steps=tuple(steps),
        contributions=tuple(contributions),
        residual=remainder,
        residual_norm=math.sqrt(float(fraction_inner(remainder, remainder))),
        per_step_norms=tuple(math.sqrt(float(fraction_inner(c, c))) for c in contributions),
    )


# -- random generators ---------------------------------------------------------

PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]


def random_fraction(rng: random.Random, span: int = 6, denominator: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, denominator)
    return Fraction(num, den)


def random_poly(
    rng: random.Random,
    max_vars: int = 5,
    max_degree: int = 4,
    max_terms: int = 6,
    nonzero: bool = True,
) -> ChaosPoly:
    out = ChaosPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        nvars = rng.randint(0, min(max_vars, max_degree))
        chosen = rng.sample(range(1, max_vars + 1), nvars)
        degrees = {}
        budget = max_degree
        for var in chosen:
            d = rng.randint(1, budget - (len(chosen) - len(degrees) - 1)) if budget > 1 else 1
            degrees[var] = d
            budget -= d
            if budget <= 0:
                break
        coeff = random_fraction(rng)
        if coeff:
            out = out + hermite_monomial(degrees, coeff)
    if nonzero and out.is_zero():
        out = hermite_monomial({1: 1}, Fraction(rng.randint(1, 3)))
    return out


def random_homogeneous(
    rng: random.Random, degree: int, max_vars: int = 4, max_terms: int = 5
) -> ChaosPoly:
    out = ChaosPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        remaining = degree
        index: dict[int, int] = {}
        variables = list(range(1, max_vars + 1))
        rng.shuffle(variables)
        for var in variables:
            if remaining == 0:
                break
            d = rng.randint(0, remaining)
            if var == variables[-1]:
                d = remaining
            if d:
                index[var] = index.get(var, 0) + d
                remaining -= d
        if remaining:
            index[variables[0]] = index.get(variables[0], 0) + remaining
        coeff = random_fraction(rng)
        if coeff:
            out = out + hermite_monomial(index, coeff)
    if out.is_zero():
        out = hermite_monomial({1: degree}, Fraction(1))
    return out


def random_rational_rotation(rng: random.Random, n: int, moves: int | None = None):
    """Exactly orthogonal rational matrix: a product of Pythagorean plane rotations."""
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    if n < 2:
        return rows
    for _ in range(moves if moves is not None else 2 * n):
        i, j = rng.sample(range(n), 2)
        a, b, c = rng.choice(PYTHAGOREAN)
        cos, sin = Fraction(a, c), Fraction(b, c)
        if rng.random() < 0.5:
            sin = -sin
        for col in range(n):
            ri, rj = rows[i][col], rows[j][col]
            rows[i][col] = cos * ri - sin * rj
            rows[j][col] = sin * ri + cos * rj
    return rows


def random_rational_unit(rng: random.Random, size: int) -> list[Fraction]:
    """Unit-norm rational vector (first row of a random rational rotation)."""
    return random_rational_rotation(rng, size)[0] if size > 1 else [Fraction(1)]


# -- influence oracle -----------------------------------------------------------


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


def fresh_ids(f: ChaosPoly, count: int) -> list[int]:
    """``count`` variable ids above every variable of ``f``, to pad an oracle's test space."""
    top = max(f.variables(), default=0)
    return list(range(top + 1, top + 1 + count))


def oracle_quadratic_form(f: ChaosPoly, q: int, variables) -> tuple[list[tuple], np.ndarray]:
    """Assemble <Gamma(f, e_a), Gamma(f, e_b)> over the normalized degree-q
    monomials of ``variables``, entirely in the raw basis."""
    variables = sorted(variables)
    basis = []
    for expo in _compositions(q, len(variables)):
        basis.append(_monomial({v: e for v, e in zip(variables, expo) if e}))
    raw_f = raw_from_chaos(f)
    raw_basis = [raw_from_chaos(hermite_monomial(idx)) for idx in basis]
    weights = [_weight(idx) for idx in basis]
    all_vars = sorted(set(f.variables()) | set(variables))
    gammas = [raw_gamma(raw_f, rb, all_vars) for rb in raw_basis]
    dim = len(basis)
    qmat = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            val = float(raw_inner(gammas[a], gammas[b])) / math.sqrt(weights[a] * weights[b])
            qmat[a, b] = qmat[b, a] = val
    return basis, qmat


def padded_count_refuses(nvars: int, top: int, cap: int) -> bool:
    """Whether the padded count refused a scan of degrees 1 .. ``top`` over ``nvars`` variables.

    The influence cap as it was counted before one budget replaced it: from
    q = 2 on, each degree's basis over one fresh variable more, ``C(nvars +
    q, q)``, against ``cap``; and the work ``sum_q q**2 C(nvars - 1 + q, q)``
    over the degrees before the first whose padded basis exceeded the cap,
    against ``cap**2``.  A constant was never refused.
    """
    if not nvars:
        return False
    work = 0
    for q in range(1, top + 1):
        dim = math.comb(nvars - 1 + q, q)
        if (math.comb(nvars + q, q) if q > 1 else dim) > cap:
            return True
        work += q * q * dim
        if work > cap * cap:
            return True
    return False


def random_search_max(qmat: np.ndarray, draws: int, seed: int) -> tuple[float, float]:
    """(best random Rayleigh quotient, refined value), both <= top eigenvalue.

    Pure random directions rarely align with the top eigenvector to 1e-6, so
    the refined value applies the squared-power method from the best random
    start (each squaring of the form squares the eigenvalue ratio, so the
    dominant direction is reached at machine precision in ~60 steps).  Both
    numbers are sqrt of Rayleigh quotients of the oracle form, never sqrt of
    anything produced by an eigensolver.
    """
    rng = np.random.default_rng(seed)
    dim = qmat.shape[0]
    samples = rng.standard_normal((draws, dim))
    norms = np.linalg.norm(samples, axis=1)
    samples = samples[norms > 0] / norms[norms > 0, None]
    rayleigh = np.einsum("ij,jk,ik->i", samples, qmat, samples)
    top = int(np.argmax(rayleigh))
    best = float(rayleigh[top])
    vec = samples[top].copy()
    power = qmat.copy()
    scale = np.linalg.norm(power)
    if scale > 0:
        power /= scale
        for _ in range(60):
            power = power @ power
            norm = np.linalg.norm(power)
            if norm == 0:
                break
            power /= norm
        candidate = power @ vec
        norm = np.linalg.norm(candidate)
        if norm > 1e-200:
            vec = candidate / norm
    refined = float(vec @ qmat @ vec)
    return math.sqrt(max(best, 0.0)), math.sqrt(max(refined, best, 0.0))


def read_sample_file_whole_text(path) -> SampleSet:
    """Sample-file reader over the whole decoded text: the header of line 1,
    where a repeated ``seed``, ``stream`` or ``generator`` is an error, one
    ``float`` per body line, and on failure a line-by-line parse that skips
    blank lines after line 1 and names the first bad line."""

    def field(convert, text, lineno, what):
        try:
            return convert(text)
        except ValueError:
            raise ParseError(f"sample file line {lineno}: bad {what} {text!r}") from None

    seed = stream = 0
    generator = "unknown"
    with open(path) as handle:
        text = handle.read()
    lines = text.split("\n")
    if text.endswith("\n") or not text:
        lines.pop()
    start = 1
    if lines and lines[0].startswith("#"):
        seen = set()
        for token in lines[0][1:].split():
            key, _, value = token.partition("=")
            if key in seen:
                raise ParseError(f"sample file line 1: repeated {key}")
            if key in ("seed", "stream", "generator"):
                seen.add(key)
            if key == "seed":
                seed = field(_parse_int, value, 1, key)
            elif key == "stream":
                stream = field(_parse_int, value, 1, key)
            elif key == "generator":
                generator = value
        start = 2
    body = lines[start - 1 :]
    try:
        values = list(map(float, body))
    except ValueError:
        values = [
            field(float, line.strip(), lineno, "value")
            for lineno, line in enumerate(body, start=start)
            if lineno == 1 or line.strip()
        ]
    values = np.array(values, dtype=np.float64)
    if not np.isfinite(values).all():
        lineno, line = next(
            (lineno, line)
            for lineno, line in enumerate(body, start=start)
            if line.strip() and not math.isfinite(float(line.strip()))
        )
        raise ParseError(f"sample file line {lineno}: value {line.strip()!r} is not finite")
    return SampleSet(values=values, seed=seed, stream=stream, generator_id=generator)


def write_sample_file(sample_set: SampleSet, path) -> None:
    """Write a sample file one ``_sample_file_pieces`` piece at a time, as ``sample`` does."""
    with open(path, "w") as handle:
        handle.writelines(_sample_file_pieces(sample_set))


def format_sample_file(sample_set: SampleSet) -> str:
    """Sample-file text built whole: a ``# seed=.. stream=.. generator=..``
    header line, then one ``repr`` per value, each line ending in a newline."""
    header = (
        f"# seed={sample_set.seed} stream={sample_set.stream} "
        f"generator={sample_set.generator_id}\n"
    )
    return header + "".join(f"{value!r}\n" for value in sample_set.values.tolist())


def w2_1d_unfused(a: np.ndarray, b: np.ndarray) -> float:
    """The transport cost as ``w2_1d`` computed it with fresh temporaries:
    sort both, interpolate the smaller sample's quantiles at the larger's
    plotting positions, then ``sqrt(mean((xs - ys) ** 2))``."""
    xs, ys = np.sort(a), np.sort(b)
    if xs.size != ys.size:
        if xs.size < ys.size:
            xs, ys = ys, xs
        pos_large = (np.arange(xs.size) + 0.5) / xs.size
        pos_small = (np.arange(ys.size) + 0.5) / ys.size
        ys = np.interp(pos_large, pos_small, ys)
    return float(np.sqrt(np.mean((xs - ys) ** 2)))
