"""Independent reference machinery for the test suite.

Everything here works in the *raw monomial* basis (powers of the coordinates,
not Hermite polynomials) with exact rational coefficients, so it shares no
code path with the package's Hermite-basis algebra:

* products are exponent additions,
* Gaussian expectations are products of one-dimensional raw moments
  ``E[G**k] = (k-1)!!`` for even ``k`` (independent coordinates),
* derivatives follow the power rule.

Also provides the carre du champ through the generator, the independent
route for ``gamma_gradient``; exact rational orthogonal matrices
(compositions of Pythagorean plane rotations), random polynomial generators,
a random-search plus power-iteration maximizer used as the influence oracle,
the change of coordinates rebuilt from ``compose_hermite`` and ``ChaosPoly``
products, the independent route for ``rotate_basis``, and the routes that
``inner_product``, ``decompose_along_w1`` and ``iterate_decomposition`` took
before they were specialised: a ``Fraction`` sum, one back-rotation call per
level bucket, and the level-0 part rebuilt by subtracting the fitted levels.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from chaoscalc import (
    ChaosPoly,
    IterationTrace,
    compose_hermite,
    decompose_along,
    hermite_monomial,
    homogeneous_degree,
    ou_generator,
    project_chaos,
    rotate_basis,
    strongest_influence,
)
from chaoscalc.algebra import MultiIndex
from chaoscalc.decompose import householder_rows

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


def raw_eval(a: RawPoly, point) -> Fraction | float:
    total = 0
    for key, c in a.items():
        prod = c
        for var, power in key:
            prod = prod * point[var] ** power
        total = total + prod
    return total


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
        for var, deg in idx.entries:
            factor = {}
            for power, c in enumerate(he_raw_coeffs(deg)):
                if c:
                    key = ((var, power),) if power else ()
                    factor[key] = c
            term = raw_mul(term, factor)
        total = raw_add(total, raw_scale(term, coeff))
    return total


def generator_carre_du_champ(f: ChaosPoly, g: ChaosPoly) -> ChaosPoly:
    """Carre du champ through the generator, ``(L(fg) - f Lg - g Lf) / 2``, exact."""
    lfg = ou_generator(f * g)
    flg = f * ou_generator(g)
    glf = g * ou_generator(f)
    return (lfg - flg - glf) * Fraction(1, 2)


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
        for var, deg in idx.entries:
            if var in lin:
                acc = acc * compose_hermite(deg, lin[var])
            else:
                acc = acc * hermite_monomial({var: deg})
        out = out + acc
    return out


def fraction_inner(f: ChaosPoly, g: ChaosPoly) -> Fraction:
    """``E[f g]`` as a plain ``Fraction`` sum of ``c_f c_g prod_i k_i!`` over ``f``'s terms."""
    total = Fraction(0)
    for idx, coeff in f.terms.items():
        total += coeff * g.coefficient(idx) * idx.weight
    return total


def split_by_bucket_rotation(f: ChaosPoly, a: dict) -> list[ChaosPoly]:
    """``decompose_along_w1``'s coefficients, each level bucket rotated back by
    its own ``rotate_basis`` call on the transposed Householder rows."""
    variables = sorted(a)
    rows = householder_rows([Fraction(a[v]) for v in variables])
    pivot = variables[0]
    rotated = rotate_basis(f, rows, variables)
    buckets: dict[int, ChaosPoly] = {}
    for idx, coeff in rotated.terms.items():
        level = idx.degree_of(pivot)
        rest = {v: d for v, d in idx.entries if v != pivot}
        buckets[level] = buckets.get(level, ChaosPoly.zero()) + hermite_monomial(rest, coeff)
    back = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows))]
    return [
        rotate_basis(buckets[level], back, variables) if level in buckets else ChaosPoly.zero()
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


def oracle_quadratic_form(f: ChaosPoly, q: int, variables) -> tuple[list[MultiIndex], np.ndarray]:
    """Assemble <Gamma(f, e_a), Gamma(f, e_b)> over the normalized degree-q
    monomials of ``variables``, entirely in the raw basis."""
    variables = sorted(variables)
    basis = []
    for expo in _compositions(q, len(variables)):
        basis.append(MultiIndex({v: e for v, e in zip(variables, expo) if e}))
    raw_f = raw_from_chaos(f)
    raw_basis = [raw_from_chaos(hermite_monomial(idx)) for idx in basis]
    weights = [idx.weight for idx in basis]
    all_vars = sorted(set(f.variables()) | set(variables))
    gammas = [raw_gamma(raw_f, rb, all_vars) for rb in raw_basis]
    dim = len(basis)
    qmat = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            val = float(raw_inner(gammas[a], gammas[b])) / math.sqrt(weights[a] * weights[b])
            qmat[a, b] = qmat[b, a] = val
    return basis, qmat


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
