"""Exception types shared across the package."""


class HypqError(Exception):
    """Base class for every error raised by this package."""


class DegenerateInput(HypqError):
    """p or q is too small to describe a polygonal tiling."""


class NotHyperbolic(HypqError):
    """The pair {p,q} tiles the Euclidean plane or the sphere instead."""


class SchemeParityMismatch(HypqError):
    """The requested splitting scheme does not match the parity of q."""


class UnsupportedCase(HypqError):
    """The pair is valid but outside the reach of the requested scheme."""


class UnknownRegion(HypqError):
    """A region kind does not occur in the splitting system at hand."""


class CapExceeded(HypqError):
    """A generation step would overflow the configured node or tile cap."""


class TooFewLevels(HypqError):
    """Not enough level counts to test the recurrence even once."""


class NonMonotoneBasis(HypqError):
    """The numeration basis failed to increase strictly."""


class Unrepresentable(HypqError):
    """No digit string within the digit bound evaluates to the value."""


class DigitOutOfRange(HypqError):
    """A digit lies outside 0..b for the digit bound b."""


class PrecisionExhausted(HypqError, ValueError):
    """Double precision ran out before a disc construction could finish."""
