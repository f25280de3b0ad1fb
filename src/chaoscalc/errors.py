"""Shared exception types."""

from __future__ import annotations


class ChaosCalcError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(ChaosCalcError, ValueError):
    """An operation was called with inputs violating its documented preconditions."""


class ParseError(ChaosCalcError, ValueError):
    """A serialized input (polynomial, law, sample file) is malformed."""


class MissingVariableError(PreconditionError):
    """An evaluation point does not assign every variable of the polynomial."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"evaluation point is missing variables: {list(self.missing)}")


class BasisSizeError(ChaosCalcError):
    """A requested basis would exceed the configured dimension cap.

    With ``lower_bound`` the count stopped early, at ``dimension``.
    """

    def __init__(self, dimension: int, cap: int, lower_bound: bool = False):
        self.dimension = dimension
        self.cap = cap
        bound = "at least " if lower_bound else ""
        super().__init__(f"basis dimension {bound}{dimension} exceeds cap {cap}")
