"""Exception types shared across the package, and the integer check that
raises one."""

import numbers


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


def check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; ``InvalidParameter`` unless it is an integer
    (a Python or numpy integer, not a bool) of at least ``minimum``, if
    one is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameter(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
