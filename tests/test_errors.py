"""Every entry point checks its integer, threshold and count arguments the same way.

Ids, degrees, levels, counts, seeds and streams are integers by
``operator.index``: numpy integers pass and come back as ``int``, while a bool,
a float, a string, ``None`` or a value below the bound is a
``PreconditionError``.  Thresholds are finite positive reals, never a bool or
a string.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import (
    InputLaw,
    PreconditionError,
    build_ensemble,
    hermite_monomial,
    iterate_decomposition,
    moment,
    normality_report,
    project_chaos,
    rho_q,
    sample,
    strongest_influence,
)
from chaoscalc.algebra import poly_pow

G1, G2 = hermite_monomial({1: 1}), hermite_monomial({2: 1})
F = G1 * G2
LAW = InputLaw.gaussian()

ENTRY_POINTS = {
    "hermite_monomial id": lambda bad: hermite_monomial({bad: 1}),
    "hermite_monomial degree": lambda bad: hermite_monomial({1: bad}),
    "project_chaos": lambda bad: project_chaos(F, bad),
    "poly_pow": lambda bad: poly_pow(F, bad),
    "moment": lambda bad: moment(F, bad),
    "rho_q q": lambda bad: rho_q(F, bad),
    "iterate threshold": lambda bad: iterate_decomposition(F, bad, 1),
    "strongest threshold": lambda bad: strongest_influence(F, bad),
    "build_ensemble": lambda bad: build_ensemble(LAW, bad),
    "InputLaw.moment": lambda bad: LAW.moment(bad),
    "sample n": lambda bad: sample(F, bad, 1),
    "sample seed": lambda bad: sample(F, 3, bad),
    "sample stream": lambda bad: sample(F, 3, 1, stream=bad),
    "sample workers": lambda bad: sample(F, 3, 1, workers=bad),
    "normality_report n": lambda bad: normality_report(F, bad, 1),
    "normality_report seed": lambda bad: normality_report(F, 3, bad),
    "normality_report workers": lambda bad: normality_report(F, 3, 1, workers=bad),
}

ALL = [True, False, 1.5, 2.0, "1", None]
# per entry point, the values it let through, or crashed on with another
# exception, while each module checked its own arguments
REFUSED = [
    ("hermite_monomial id", [*ALL, 0]),
    ("hermite_monomial degree", [*ALL, 0]),
    ("project_chaos", [True, False]),
    ("poly_pow", [True, False]),
    ("moment", [True]),
    ("rho_q q", [True]),
    ("iterate threshold", [True, "0.5", None]),
    ("strongest threshold", [True, "0.5", None]),
    ("build_ensemble", [*ALL, -1]),
    ("InputLaw.moment", [*ALL, -1]),
    ("sample n", [True, 1.5, 2.0, "1", None]),
    ("sample seed", ALL),
    ("sample stream", ALL),
    ("sample workers", [*ALL, 0]),
    ("normality_report n", [True, 1.5, 2.0, "1", None]),
    ("normality_report seed", ALL),
    ("normality_report workers", [*ALL, 0]),
]
REFUSED_CASES = [(entry, bad) for entry, values in REFUSED for bad in values]


@pytest.mark.parametrize("entry, bad", REFUSED_CASES, ids=[f"{e}-{b!r}" for e, b in REFUSED_CASES])
def test_bad_arguments_raise_precondition_error(entry, bad):
    with pytest.raises(PreconditionError, match=re.escape(f", got {bad!r}") + "$"):
        ENTRY_POINTS[entry](bad)


ACCEPTED = {
    "hermite_monomial": (
        lambda: list(hermite_monomial({np.int64(3): np.int32(2)}).terms), [((3, 2),)]
    ),
    "project_chaos": (lambda: project_chaos(F + G1, np.int64(2)), F),
    "poly_pow": (lambda: poly_pow(G1, np.int64(2)), G1 * G1),
    "moment": (lambda: moment(F, np.int64(2)), Fraction(1)),
    "rho_q q": (lambda: rho_q(F, np.int64(2)).q, 2),
    "sample seed": (lambda: sample(F, 3, np.int64(1)).seed, 1),
    "sample stream": (lambda: sample(F, 3, 1, stream=np.int64(1)).stream, 1),
    "normality_report seed": (lambda: normality_report(F, 3, np.int64(1)).inputs["seed"], 1),
}


@pytest.mark.parametrize("entry", ACCEPTED)
def test_numpy_integers_are_taken_as_plain_ints(entry):
    call, expected = ACCEPTED[entry]
    # repr tells np.int64(1) from 1, at any depth
    assert repr(call()) == repr(expected)
