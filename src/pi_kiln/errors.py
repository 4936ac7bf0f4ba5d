"""Exception hierarchy for pi_kiln.

Every domain error derives from KilnError so callers (and the CLI, which maps
them to exit code 3) can catch one base class.
"""


class KilnError(Exception):
    """Base class for all pi_kiln domain errors."""


class ScaleMismatch(KilnError):
    """Fixed-point operands do not share the same binary scale."""


class DivisionByZero(KilnError):
    """Fixed-point division by an exact zero."""


class NegativeOperand(KilnError):
    """Square root of a negative fixed-point value."""


class NonPositiveOperand(KilnError):
    """Logarithm of a non-positive value."""


class UnsupportedAngle(KilnError):
    """Rational angle outside the exact sine/cosine table."""


class NegativeUnderSqrt(KilnError):
    """A sqrt node of a radical expression evaluated to a negative value."""


class SingularPoint(KilnError):
    """Series prefactor vanishes at the requested point; the identity degenerates."""


class PoleAtInteger(KilnError):
    """Series evaluated at an integer argument, where it has a pole."""


class CoincidentPoints(KilnError):
    """Cotangent-difference series requires two distinct points."""


class NonAlternating(KilnError):
    """Stream fed to the alternating-series accelerator does not alternate."""


class DegenerateAlpha(KilnError):
    """Closed-form Fourier coefficient requested for an integer frequency ratio."""


class OutOfRange(KilnError):
    """Argument outside the contractual domain of a product formula."""


class UnknownId(KilnError):
    """Catalog lookup with an id that is not registered."""


class AccuracyShort(KilnError):
    """A command that chooses its own N cannot bound the error by 10^-digits."""
