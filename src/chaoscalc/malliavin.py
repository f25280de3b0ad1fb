"""Ornstein-Uhlenbeck generator and carre du champ.

The carre du champ ``Gamma(f, g)`` is the gradient pairing ``sum_i d_i f d_i g``,
computed by ``gamma_gradient`` on integer numerators with the general Hermite
product.  ``influence._influence_form`` needs ``Gamma(f, e_a)`` only against
single Hermite monomials and builds it by the raising rule instead.  The
generator route ``(L(fg) - f Lg - g Lf) / 2`` is kept only in the test suite,
as the oracle ``gamma_gradient`` must match exactly, next to the exact
checkers of integration by parts and the identities built on it.
"""

from __future__ import annotations

from .algebra import (
    ChaosPoly,
    Entries,
    _degree,
    _expand_product,
    _gradients,
    _numerators,
)


def ou_generator(f: ChaosPoly) -> ChaosPoly:
    """Diagonal action of the generator: multiply the degree-m stratum by -m."""
    return ChaosPoly._from_clean({idx: -_degree(idx) * c for idx, c in f._terms.items() if idx})


def gamma_gradient(f: ChaosPoly, g: ChaosPoly) -> ChaosPoly:
    """Carre du champ as the gradient pairing ``sum_i d_i f * d_i g``, exact.

    Both sides are scaled to integer numerators and differentiated once
    (``algebra._gradients``); each shared variable's pair of partials is
    multiplied in ints and the sum is divided once by both denominators.
    """
    df, nf = _numerators(f._terms)
    dg, ng = _numerators(g._terms)
    grads_f, grads_g = _gradients(nf), _gradients(ng)
    totals: dict[Entries, int] = {}
    for v in sorted(grads_f.keys() & grads_g.keys()):
        for entries, num in _expand_product(grads_f[v], grads_g[v]).items():
            totals[entries] = totals.get(entries, 0) + num
    return ChaosPoly._from_numerators(totals, df * dg)

