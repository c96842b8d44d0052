"""Exception hierarchy shared by every lipmaps module."""


class LipError(Exception):
    """Base class for all lipmaps errors."""


class DimensionError(LipError):
    """Shape or grey-scale-bound mismatch between rasters."""


class DomainError(LipError):
    """Input values outside the domain an operation is defined on."""


class RegimeError(DomainError):
    """Values outside the regime an operation or container requires; names the first offending cell."""


class SingularityError(DomainError):
    """Operation evaluated at a pole (division by a vanishing denominator)."""


class ParseError(LipError):
    """Malformed raster/probe/map file.

    Carries ``offset``, the byte or line position where parsing failed,
    when it is known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VerificationError(LipError):
    """A numerical identity that must hold within tolerance did not."""
