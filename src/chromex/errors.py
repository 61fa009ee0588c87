"""Exception types shared across the package."""


class ChromexError(Exception):
    """Base class for all library errors."""


class ParameterError(ChromexError, ValueError):
    """A family, family parameter or argument is outside the domain of the operation."""


class ConvergenceError(ChromexError, ArithmeticError):
    """No route certifies the requested tolerance at the given argument."""


class NumericError(ChromexError, ArithmeticError):
    """A numeric guard tripped (overflow, failed decomposition, ...)."""
