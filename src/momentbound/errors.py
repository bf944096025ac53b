"""Exception hierarchy shared by all solver and verification modules."""


class MomentBoundError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MomentBoundError):
    """Raised when an argument lies outside the mathematical domain of an operation."""


class DimensionError(MomentBoundError):
    """Raised on a length mismatch between paired vectors (moments, certificates)."""


class BracketError(MomentBoundError):
    """Raised when a root bracket has the same nonzero sign at both endpoints."""


class NonFiniteError(MomentBoundError):
    """Raised when a callable returns NaN or infinity inside a search interval."""


class InfeasibleError(MomentBoundError):
    """Raised when moment parameters admit no distribution (or only degenerate ones)."""


class RootBracketError(MomentBoundError):
    """Raised when guaranteed sign conditions for a solver's root bracket fail.

    This signals an implementation bug or a numerically degenerate instance,
    never a user error.
    """


class FamilyParamError(MomentBoundError):
    """Raised when a requested support point violates the optimal-family bound."""


class BranchError(MomentBoundError):
    """Raised when a family enumeration is requested on a non-degenerate instance."""


class RangeError(MomentBoundError):
    """Raised when inputs would overflow IEEE double arithmetic."""


class SchemaError(MomentBoundError):
    """Raised when an instance file fails validation before solving."""


class UncertifiedError(MomentBoundError):
    """Raised when a solver's answer fails its certificate, or floats cannot resolve one."""
