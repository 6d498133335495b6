"""Exception types shared across the package.

Everything raised by the public API derives from :class:`AlgebraError`, so
callers (notably the CLI) can map failures to stable names.
"""


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyCoefficients(AlgebraError):
    """A presentation needs at least one modulus coefficient."""


class NonFiniteCoefficient(AlgebraError):
    """Modulus coefficients must be finite reals."""


class InvalidKind(AlgebraError):
    """Unknown preset family name."""


class InvalidDegree(AlgebraError):
    """Preset degree must be a positive integer."""


class PresentationMismatch(AlgebraError):
    """Binary operations require operands from the same algebra."""


class NotAUnit(AlgebraError):
    """Element is not invertible: Pythagorean value too close to zero."""


class NonSemisimple(AlgebraError):
    """The modulus polynomial has numerically repeated roots."""


class InvalidArgument(AlgebraError, ValueError):
    """Argument outside the numeric range an operation accepts (not finite,
    or too large for the exponential's scaling and squaring), or not of the
    type it accepts."""


class NoConvergence(AlgebraError):
    """An iterative routine failed to meet its tolerance."""


class ShapeMismatch(AlgebraError):
    """Component or branch data does not match the decomposition shape."""


class IllConditioned(AlgebraError):
    """Interpolation residual too large, typically from clustered roots."""


class OutsideLogDomain(AlgebraError):
    """Element lies outside the logarithmic domain for the chosen path."""


class UnsupportedAlgebra(AlgebraError):
    """Operation is only defined for pure-power presentations k^n = a."""


class NonPositivePythagorean(AlgebraError):
    """The modulus needs a strictly positive Pythagorean value."""


class InvalidPower(AlgebraError):
    """Power argument outside the accepted range."""


class NonRationalCoefficients(AlgebraError):
    """Symbolic generation needs coefficients with exact rational values."""
