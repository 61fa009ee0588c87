"""Exception types shared across the package."""


class ChromexError(Exception):
    """Base class for all library errors."""


class ParameterError(ChromexError, ValueError):
    """A family parameter or argument is outside its admissible domain."""


class UnsupportedFamilyError(ChromexError, ValueError):
    """The requested operation has no implementation for this family."""


class ConvergenceError(ChromexError, ArithmeticError):
    """No route certifies the requested tolerance at the given argument."""


class NumericError(ChromexError, ArithmeticError):
    """A numeric guard tripped (overflow, failed decomposition, ...)."""
