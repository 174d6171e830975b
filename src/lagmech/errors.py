"""Exception types shared across the package."""


class LagmechError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LagmechError):
    """A field evaluation left the domain of definition.

    Raised for division by zero, logarithms of non-positive values,
    non-integer powers of non-positive bases, and derivative requests at
    points where the derivatives are not finite (e.g. a Finsler norm on
    the zero section).
    """


class SingularMetric(LagmechError):
    """The velocity Hessian of the Lagrangian lost rank at a point.

    Signals that the evaluation point lies outside the regular domain of
    the Lagrange structure; the inverse metric is not usable there.
    """

    def __init__(self, message, min_abs_eigen=0.0, max_abs_eigen=0.0):
        super().__init__(message)
        self.min_abs_eigen = min_abs_eigen
        self.max_abs_eigen = max_abs_eigen


class ParseError(LagmechError):
    """Expression source could not be parsed.

    Attributes
    ----------
    offset : int
        Byte offset into the source where parsing failed.
    expected : tuple of str
        Token categories that would have been accepted at that offset.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class ArityError(LagmechError):
    """A function was called with the wrong number of arguments."""


class VariableIndexError(LagmechError):
    """A coordinate variable index exceeds the declared dimension."""


class UnboundParameter(LagmechError):
    """A named parameter was referenced but not bound to a value."""

    def __init__(self, name):
        super().__init__(f"unbound parameter '{name}'")
        self.name = name


class UnknownBuiltin(LagmechError):
    """A builtin system id was requested that the catalog does not contain."""


class FinslerModeError(LagmechError):
    """An operation requiring a homogeneous Lagrangian was invoked on a
    system that fails the homogeneity gate."""


class ConfigError(LagmechError):
    """A run configuration, or an argument a caller passes the library
    (integrator settings, a sample box, a phase point, a system's or a
    force's dimension, a jet order), is invalid."""
