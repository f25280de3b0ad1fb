"""Shared exception types and the library's three argument checks.

Every entry point checks its arguments with these, once per call:

* ``as_integer`` -- ids, degrees, levels, counts, seeds and streams: an int by
  ``operator.index`` (so numpy integers pass and come back as ``int``), never
  a bool, and at least an optional lower bound;
* ``as_positive_real`` -- thresholds: a finite positive real number, never a
  bool or a string;
* ``check_unit_norm`` -- directions and inputs that must have unit norm, within
  the caller's tolerance.

Each raises ``PreconditionError`` with the caller's message; the first two end
it with ``, got <value>``.
"""

from __future__ import annotations

import math
import numbers
import operator


class ChaosCalcError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(ChaosCalcError, ValueError):
    """An operation was called with inputs violating its documented preconditions."""


class ParseError(ChaosCalcError, ValueError):
    """A serialized input (polynomial, law, sample file) is malformed."""


class BasisSizeError(ChaosCalcError):
    """A requested basis, or the work of an influence scan, would exceed its cap.

    With ``lower_bound`` the count stopped early, at ``dimension``.
    """

    def __init__(
        self, dimension: int, cap: int, lower_bound: bool = False, what: str = "basis dimension"
    ):
        self.dimension = dimension
        self.cap = cap
        bound = "at least " if lower_bound else ""
        super().__init__(f"{what} {bound}{dimension} exceeds cap {cap}")


def as_integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int by ``operator.index``, not a bool, and at least ``least``."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or value is True or value is False or (least is not None and out < least):
        raise PreconditionError(f"{what}, got {value!r}")
    return out


def as_positive_real(value, what: str) -> float:
    """``value`` as a float: a real number, not a bool, finite and positive (so not NaN)."""
    if (
        not isinstance(value, numbers.Real)
        or value is True
        or value is False
        or not (math.isfinite(value) and value > 0)
    ):
        raise PreconditionError(f"{what}, got {value!r}")
    return float(value)


def check_unit_norm(norm_sq, tol: float, name: str) -> None:
    """Raise unless the exact squared norm ``norm_sq`` is 1, or within ``tol`` of 1 in floats."""
    if norm_sq != 1 and abs(float(norm_sq) - 1.0) > tol:
        raise PreconditionError(f"{name} must have unit norm; got squared norm {float(norm_sq)!r}")
