"""Exception types shared across the package."""


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
