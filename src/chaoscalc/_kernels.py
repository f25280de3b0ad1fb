"""Numeric float kernels: batched term accumulation and the symmetric eigensolve.

``accumulate_terms`` evaluates a sampler's term table over one sub-chunk of a
block of draws (as many rows as fit ``montecarlo.CHUNK_CELLS`` table cells),
in a fixed operation order that the sample-file bytes depend on.  The
sampler passes the factor rows as a 2-D view of its chunk table, never a
copy; the kernel writes into the caller's output slice, reads the term table
as Python lists and reuses one product buffer, so its per-call overhead and
working set stay small next to the chunk's arithmetic.  ``jacobi_eigh`` is LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``).
The exact-rational algebra never routes through this module; only float paths
(sampling, eigensolves) do.  Callers that need a solver-independent
eigenvector (see ``influence._top_eigenpair``) canonicalize it themselves.
"""

from __future__ import annotations

import numpy as np


def accumulate_terms(rows, coeffs, term_ptr, term_slots, out):
    """out[i] = sum_t coeffs[t] * prod_{s in term t} rows[s][i].

    ``rows`` holds one float64 row per distinct (variable, level) factor, as a
    list of 1-D arrays or a 2-D array; ``term_slots`` flattens the factor
    lists of all terms and ``term_ptr`` delimits them.  ``out``, one value
    per row position, is filled in place and returned.  It is zeroed first,
    each product is ``rows[first] * coeffs[t]``, times the later factors in
    order, and the terms are added in order, so the bits are fixed by the
    term table alone (and a ``-0.0`` product sums to ``+0.0``).
    """
    # the tables as Python lists, read once: the per-term loop then makes no numpy scalar
    coeffs = np.asarray(coeffs, dtype=np.float64).tolist()
    term_ptr = np.asarray(term_ptr, dtype=np.int64).tolist()
    term_slots = np.asarray(term_slots, dtype=np.int64).tolist()
    out[...] = 0.0
    prod = np.empty_like(out)
    for t, c in enumerate(coeffs):
        first, stop = term_ptr[t], term_ptr[t + 1]
        if first == stop:
            out += c
            continue
        np.multiply(rows[term_slots[first]], c, out=prod)
        for s in term_slots[first + 1 : stop]:
            prod *= rows[s]
        out += prod
    return out


def jacobi_eigh(matrix):
    """Eigenvalues (ascending) and column eigenvectors of a symmetric matrix (LAPACK)."""
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigh(a)
