"""Exception types shared across the package."""


class FqAngleError(Exception):
    """Base class for every error raised by fqangle."""


class CompositeP(FqAngleError, ValueError):
    """Requested field characteristic is not prime."""


class FieldTooLarge(FqAngleError, ValueError):
    """Requested field order exceeds the supported cap (2**16)."""


class InvalidInput(FqAngleError, ValueError):
    """A value that does not encode what the call requires: a non-integer
    or out-of-range coordinate, an empty vector, a length below 1."""


class DivisionByZero(FqAngleError, ZeroDivisionError):
    """Multiplicative inverse or division by the zero element."""


class LengthMismatch(FqAngleError, ValueError):
    """Vectors of different lengths were combined."""


class FieldMismatch(FqAngleError, ValueError):
    """Values from different fields were combined."""


class ZeroVector(FqAngleError, ValueError):
    """An operation defined only on nonzero vectors received the zero vector."""


class RankDeficient(FqAngleError, ValueError):
    """Generator rows are linearly dependent."""


class TooManyPoints(FqAngleError, ValueError):
    """More evaluation points requested than the field has elements."""


class DuplicatePoints(FqAngleError, ValueError):
    """Evaluation points are not pairwise distinct."""


class EnumerationTooLarge(FqAngleError):
    """Codeword enumeration would exceed the 2**20 guard."""


class SuiteTooLarge(FqAngleError):
    """Exhaustive verification suite would exceed its size guard."""


class UniqueDecodingViolated(FqAngleError, AssertionError):
    """Two codeword directions lie strictly inside the unique-decoding
    radius of one word, which the decoding theorem rules out."""
