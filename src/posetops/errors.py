"""Exception types shared across the package.

Every domain error raised by the library derives from PosetOpsError, so
callers (and the command line front end) can tell domain failures apart
from programming bugs.
"""


class PosetOpsError(Exception):
    """Base class for all domain errors raised by this package."""


class CycleDetected(PosetOpsError):
    """The supplied cover relation contains a directed cycle."""


class NotBounded(PosetOpsError):
    """The poset lacks a unique minimum or a unique maximum."""


class NotGraded(PosetOpsError):
    """No rank function makes every cover step up by exactly one."""


class InvalidSize(PosetOpsError):
    """A size parameter is outside the supported range."""


class TooLarge(PosetOpsError):
    """The object exceeds a configured size cap."""


class NotAChain(PosetOpsError):
    """The supplied elements do not form a strictly increasing chain."""


class EndpointsNotExtreme(PosetOpsError):
    """A support chain must start at the bottom and end at the top."""


class FaceNotInComplex(PosetOpsError):
    """The requested face is not part of the complex."""


class NotAnEdgePermutation(PosetOpsError):
    """The edge list is not a permutation of the complex's edges."""


class UnknownVertex(PosetOpsError):
    """A referenced vertex is not part of the complex."""


class AlphabetMismatch(PosetOpsError):
    """Polynomials over different alphabets cannot be combined."""


class NotExpressible(PosetOpsError):
    """The polynomial lies outside the span of the requested basis."""


class NotHomogeneous(PosetOpsError):
    """The operation requires a homogeneous polynomial."""


class DegreeMismatch(PosetOpsError):
    """The requested coefficient does not exist at this degree."""
