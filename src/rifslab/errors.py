"""Exception hierarchy shared by every module.

The CLI maps these onto exit codes: usage/validation problems exit 1,
resource limits exit 2, I/O trouble exits 3.
"""

import numbers


class RifsError(Exception):
    """Base class for all library errors."""


class UsageError(RifsError):
    """A caller violated an operation precondition."""


class GeometryDomainError(RifsError):
    """A point or parameter lies outside the admissible domain."""


class ResourceError(RifsError):
    """A configured budget (cylinder count, depth) was exceeded."""

    def __init__(self, message: str, *, count: int | None = None,
                 best_error: float | None = None):
        super().__init__(message)
        self.count = count
        self.best_error = best_error


class ConfigError(RifsError):
    """Base class for config-loading failures."""


class ConfigParseError(ConfigError):
    """The file is not valid JSON."""


class ConfigSchemaError(ConfigError):
    """The JSON shape is wrong: missing/unknown fields, bad types."""


class ConfigSemanticError(ConfigError):
    """The JSON shape is fine but the values are inconsistent."""


class UnsupportedShapeError(RifsError):
    """The data falls outside what an operation can certify."""


def check_int(name: str, value) -> int:
    """`value` as an int; a bool, or any value that is not an integral
    number, raises UsageError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, not {value!r}")
    return int(value)
