"""Numeric float kernels: batched term accumulation and the symmetric eigensolve.

``accumulate_terms`` evaluates a sampler's term table over a block of draws;
``jacobi_eigh`` is LAPACK's symmetric eigensolver (``numpy.linalg.eigh``).
The exact-rational algebra never routes through this module; only float paths
(sampling, eigensolves) do.  Callers that need a solver-independent
eigenvector (see ``influence._top_eigenpair``) canonicalize it themselves.
"""

from __future__ import annotations

import numpy as np


def accumulate_terms(values, coeffs, term_ptr, term_slots):
    """out[i] = sum_t coeffs[t] * prod_{s in term t} values[s, i].

    ``values`` has one row per distinct (variable, level) factor; ``term_slots``
    flattens the factor lists of all terms and ``term_ptr`` delimits them.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    term_ptr = np.ascontiguousarray(term_ptr, dtype=np.int64)
    term_slots = np.ascontiguousarray(term_slots, dtype=np.int64)
    n = values.shape[1] if values.ndim == 2 else 0
    out = np.zeros(n, dtype=np.float64)
    for t in range(coeffs.shape[0]):
        prod = np.full(n, coeffs[t])
        for j in range(term_ptr[t], term_ptr[t + 1]):
            prod *= values[term_slots[j]]
        out += prod
    return out


def jacobi_eigh(matrix):
    """Eigenvalues (ascending) and column eigenvectors of a symmetric matrix (LAPACK)."""
    a = np.ascontiguousarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigh(a)
