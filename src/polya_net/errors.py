"""Exception types shared across the package, and the integer, real and
table-size checks that raise one.

Input contract: a library entry point given a bad argument raises a
subclass of :class:`PolyaNetError`, never a raw ``TypeError`` or
``ValueError``, and never returns NaN or an infinity for it.  Integers go
through :func:`check_int` and real numbers through :func:`check_real`;
exact values (ints, ``Fraction``) are compared exactly and stay exact.
"""

import math
import numbers
from fractions import Fraction

# 2^ENUMERATION_CAP bounds the draw assignments that exact enumeration
# visits and the cells of every table sized by its input (check_cells)
ENUMERATION_CAP = 24


class PolyaNetError(Exception):
    """Base class for all library errors."""


class SelfLoop(PolyaNetError):
    pass


class IndexOutOfRange(PolyaNetError):
    pass


class Disconnected(PolyaNetError):
    pass


class NonConvergence(PolyaNetError):
    pass


class InvalidParameter(PolyaNetError):
    pass


class SizeMismatch(PolyaNetError):
    pass


class HypothesisViolation(PolyaNetError):
    """A formula was asked for outside the assumptions it was derived under."""


class CapExceeded(PolyaNetError):
    """A table, run or generated graph would exceed its fixed size budget."""


class SupportMismatch(PolyaNetError):
    pass


class DomainError(PolyaNetError):
    pass


class ParameterOutOfRange(PolyaNetError):
    pass


class DegenerateMarginal(PolyaNetError):
    pass


class ParseError(PolyaNetError):
    pass


class ValidationError(PolyaNetError):
    pass


def to_float(value, name: str) -> float:
    """``float(value)`` of a real number; ``DomainError`` where an exact
    value is past the float range, for which ``float`` raises
    ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:  # only an exact (rational) value overflows
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise DomainError(f"{name} of about 1e{exponent:+.0f} is past the float "
                          "range") from None


def check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; ``InvalidParameter`` unless it is an integer
    (a Python or numpy integer, not a bool) of at least ``minimum``, if
    one is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameter(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_real(value, name: str, lower=None, upper=None, brackets: str = "[]",
               error: type = InvalidParameter):
    """``value`` itself if it is a real number (a Python or numpy number or
    a ``Fraction``, not a bool), finite if it is not exact, and within the
    bounds given: ``brackets[0]`` is "(" for an open lower bound, "[" for a
    closed one, and ``brackets[1]`` ")" or "]" for the upper.  Else
    ``error``.  Exact values are compared exactly, never as floats."""
    kind = type(value)
    if kind is float:  # before the ABC checks, which cost several comparisons each
        real = math.isfinite(value)
    elif kind is int or kind is Fraction:
        real = True
    else:  # numpy scalars and other registered reals, never a bool
        real = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (isinstance(value, numbers.Rational) or math.isfinite(value)))
    if (real and (lower is None or (lower < value if brackets[0] == "(" else lower <= value))
            and (upper is None or (value < upper if brackets[1] == ")" else value <= upper))):
        return value
    if lower is not None and upper is not None:
        rule = f"lie in {brackets[0]}{lower}, {upper}{brackets[1]}"
    elif lower is not None:
        rule = f"be finite and {'>' if brackets[0] == '(' else '>='} {lower}"
    elif upper is not None:
        rule = f"be finite and {'<' if brackets[1] == ')' else '<='} {upper}"
    else:
        rule = "be a finite real number"
    raise error(f"{name} must {rule}, got {value}")


def check_cells(cells: int, what: str) -> None:
    """``CapExceeded``, "``what`` of ``cells`` cells, more than the cap", if
    ``cells`` is more than 2^ENUMERATION_CAP."""
    if cells > 1 << ENUMERATION_CAP:
        raise CapExceeded(f"{what} of {cells} cells, more than the cap of 2^{ENUMERATION_CAP}")
