"""Exception types shared across the package, and how their messages quote input."""

_ECHO_LIMIT = 60


def echo(text: str) -> str:
    """``text`` quoted, or only its first ``_ECHO_LIMIT`` characters and its
    length, so that an error quoting long input stays one short line."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r} (first {_ECHO_LIMIT} of {len(text)} characters)"


class IntegerTooLongError(ValueError):
    """A well-formed integer token with more digits than ``int()`` converts."""


class GeometryError(Exception):
    """Base class for geometric input and invariant failures."""


class DimensionMismatchError(GeometryError):
    pass


class DegenerateInputError(GeometryError):
    """Input does not describe a bounded full-dimensional symmetric ball.

    Carries a witness direction: a recession direction for an unbounded
    H-description, or a direction missing from the span of a V-description.
    """

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class AsymmetricInputError(GeometryError):
    """A functional or vertex is listed without its negation."""

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class EnumerationCapError(GeometryError):
    """Vertex enumeration request exceeds the supported desk-scale limits."""


class NotOnSphereError(GeometryError):
    pass


class NotAlmostClError(GeometryError):
    """Requested a two-sided facet decomposition that does not exist."""


class CertificationError(GeometryError):
    """An exact certificate check failed; details identify the offender."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
