"""Exception types shared across the package, and the one count check."""

import operator


class EprBellError(Exception):
    """Base class for all package-specific errors."""


class InvalidDirectionError(EprBellError, ValueError):
    """A supplied 3-vector is too far from unit norm."""


class InvalidGeometryError(EprBellError, ValueError):
    """An angle triple cannot be realized by coplanar unit vectors."""


class InvalidInputError(EprBellError, ValueError):
    """An argument violates a documented precondition."""


class InconsistentMarginalsError(EprBellError, ValueError):
    """Pair tables sharing a variable disagree on its single-variable marginal."""


def check_count(name: str, value, least: int) -> int:
    """A count, seed or thread argument as an int: TypeError unless ``operator.index``
    takes it (a bool is 0 or 1; 1.5 and "x" fail), InvalidInputError below ``least``."""
    value = operator.index(value)
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")
    return value
