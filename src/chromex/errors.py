"""Exception types shared across the package."""


class ChromexError(Exception):
    """Base class for all library errors."""


class ParameterError(ChromexError, ValueError):
    """A family, family parameter or argument is outside the domain of the operation."""


class NumericError(ChromexError, ArithmeticError):
    """No route certifies the tolerance at this argument: a rounding bound, over- or underflow,
    failed decomposition or other numeric guard tripped."""
