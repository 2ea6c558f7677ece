"""Exception types shared across the package."""


class PccontrolError(Exception):
    """Base class for all package errors."""


class ShapeError(PccontrolError, ValueError):
    """An array argument has the wrong shape or an incompatible ambient."""


class InvalidSystemError(PccontrolError, ValueError):
    """System matrices are malformed (non-finite entries, bad dimensions)."""


class ConfigError(PccontrolError, ValueError):
    """A run configuration is malformed or inconsistent."""


class ProblemTooLargeError(PccontrolError, ValueError):
    """A dense certificate was requested above the configured size cap."""


class GridAlignmentError(PccontrolError, ValueError):
    """A requested time does not fall on a node of the time grid."""

