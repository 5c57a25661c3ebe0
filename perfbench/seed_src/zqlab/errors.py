"""Exception types shared across the package.

Every error raised on purpose derives from Error, so callers can catch
the package's failures with a single except clause.  Most are also
ValueError subclasses since they signal bad arguments.
"""


class Error(Exception):
    """Base class for all zqlab errors."""


class NotPrimeError(Error, ValueError):
    """A prime (usually an odd prime) was required."""


class NotDivisorError(Error, ValueError):
    """A divisibility precondition failed, e.g. d must divide p - 1."""


class TooLargeError(Error, ValueError):
    """Input exceeds the size this operation supports."""


class OutOfRangeError(Error, ValueError):
    """Integer argument outside the supported range."""


class EmptyPolynomialError(Error, ValueError):
    """A polynomial needs at least one coefficient."""


class ConstantPolynomialError(Error, ValueError):
    """A non-constant polynomial was required."""


class NotSquarefreeError(Error, ValueError):
    """The polynomial has a repeated root mod p."""


class RangeTooLongError(Error, ValueError):
    """A cyclic window length is outside 1 .. modulus - 1."""


class DegreeTooSmallError(Error, ValueError):
    """Polynomial degree below the required minimum."""


class BadWindowError(Error, ValueError):
    """An angular window [alpha, beta) must satisfy alpha < beta <= alpha + 1."""


class PatternTooLongError(Error, ValueError):
    """Pattern longer than the sequence it is counted in."""


class TooFewElementsError(Error, ValueError):
    """The set has too few elements to derive a gap sequence."""


class OrderTooLargeError(Error, ValueError):
    """Correlation order k exceeds the set size q."""


class DegenerateDensityError(Error, ValueError):
    """Main term undefined for an empty set (density zero)."""


class UnknownKindError(Error, ValueError):
    """Unrecognized construction, derivation, or analysis kind."""


class EmptyGridError(Error, ValueError):
    """A parameter sweep needs at least one axis with at least one value."""


class InvalidParameterError(Error, ValueError):
    """Catch-all for argument preconditions without a more specific type."""


class ConfigError(Error, ValueError):
    """Malformed experiment configuration; message carries the field path."""


class BudgetExceededError(Error):
    """Estimated work exceeds the operation budget; request refused."""

    def __init__(self, message, estimated_cost=None):
        super().__init__(message)
        self.estimated_cost = estimated_cost
