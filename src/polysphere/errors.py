"""Exception types shared across the package."""


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
