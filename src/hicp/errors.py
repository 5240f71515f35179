"""Exception types shared across the package."""


class HicpError(Exception):
    """Base class for all package-specific errors."""


class RegularityViolation(HicpError):
    """The cell description breaks one of the regularity rules
    (loop edge, duplicated edge pair, faces sharing more than one
    edge or more than one vertex without a shared edge, ...)."""


class NotClosedSurface(HicpError):
    """The face cycles do not glue into a closed oriented surface."""


class E0EndpointInV0(HicpError):
    """A tangency edge has an endpoint marked as a point vertex."""


class IndexMismatch(HicpError):
    """Angle data indexed by edges/vertices that do not match the complex."""


class CapExceeded(HicpError):
    """Exhaustive domain enumeration was demanded but the complex is too big."""


class DomainError(HicpError):
    """An input lies outside the mathematical domain of an operation."""


class InvariantViolation(HicpError):
    """Edge-length/radius data violates the invariants of its space."""


class NotInTE(HicpError):
    """Tetrahedral coordinates whose image fails the edge-length invariants."""


class NonRedundantDiagonal(HicpError):
    """A fan diagonal carries an intersection angle away from pi."""


class IoError(HicpError):
    """File input/output failure."""
