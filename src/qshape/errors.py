"""Exception types shared across the package."""


class QShapeError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedRing(QShapeError):
    """The requested operation is not defined over this base ring."""


class InvalidParameter(QShapeError):
    """A constructor argument violates its precondition."""


class NotWellDefined(QShapeError):
    """A map does not respect the relations of its source or target."""


class EndpointMismatch(QShapeError):
    """Morphism endpoints do not line up for composition."""


class UnsupportedFlavor(QShapeError):
    """The operation is only available for specific quiver flavors."""


class WindowTooSmall(QShapeError):
    """The truncation window cannot hold the requested computation."""


class InvalidMorphism(QShapeError):
    """A representation morphism fails naturality."""
