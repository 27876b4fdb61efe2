"""Exception types shared across the package.

Numerical failures (factorization, conditioning) are kept distinct from
input-validation failures so callers can map them to different exit codes.
"""


class MdgpcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MdgpcError):
    """Invalid or inconsistent run configuration."""


class NumericalError(MdgpcError):
    """Base class for numerical failures."""


class NotPositiveDefinite(NumericalError):
    """Matrix is not positive definite even after the jitter ladder."""

    def __init__(self, message, jitter_tried=None):
        super().__init__(message)
        self.jitter_tried = jitter_tried


class IllConditionedFisher(NumericalError):
    """Finite-difference Fisher matrix could not be solved reliably."""


class DimensionMismatch(MdgpcError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(DimensionMismatch):
    """Array shape differs from the declared layer or parameter shape."""


class DegenerateInput(MdgpcError):
    """Input is degenerate for the requested operation (e.g. v <= 0)."""


class NotOneHot(MdgpcError):
    """Label vector is not a valid one-hot encoding."""


class StaleCache(MdgpcError):
    """Forward cache does not match the network or input it is used with."""


class EmptyInput(MdgpcError):
    """Operation received an empty array where data is required."""


class ParseError(MdgpcError):
    """File contents do not match the expected schema."""


class OverlappingSplits(MdgpcError):
    """Class splits are not disjoint."""


class InsufficientClasses(MdgpcError):
    """Not enough classes available to form an episode."""


class InsufficientRows(MdgpcError):
    """Not enough rows in some class to form an episode."""

