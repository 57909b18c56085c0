"""Exception types shared across the package, the one formatter for a value an
error message shows, and the input checks that more than one module makes."""

import operator

# Longest text ``shown`` returns; a longer one is cut.
SHOWN_MAX_CHARS = 1000


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


def shown(value, form=str) -> str:
    """``form(value)`` (``str`` or ``repr``) as a message shows it: at most
    ``SHOWN_MAX_CHARS`` characters, a longer text cut with its length noted.
    Python refuses the text of an int past its digit limit (4,300 digits by
    default; gh-95778), so such an int is shown by its sign and size, read
    from ``bit_length()``, and any other value that holds one by its type."""
    try:
        text = form(value)
    except ValueError as exc:
        if isinstance(value, int):
            digits = int(value.bit_length() * 0.30102999566398120) + 1  # log10(2) per bit
            text = f"{'-' if value < 0 else ''}<int of about {digits} digits>"
        else:
            text = f"<{type(value).__name__} that cannot be shown: {exc}>"
    if len(text) > SHOWN_MAX_CHARS:
        note = f"... ({len(text)} characters)"
        text = text[:SHOWN_MAX_CHARS - len(note)] + note
    return text


def check_count(name: str, value, least: int) -> int:
    """A count, seed or thread argument as an int: TypeError unless ``operator.index``
    takes it (a bool is 0 or 1; 1.5 and "x" fail), InvalidInputError below ``least``."""
    value = operator.index(value)
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {shown(value)}")
    return value


def is_finite(v) -> bool:
    """``math.isfinite`` built on ``float``, so that this module imports only
    ``operator``: text is a TypeError, and an int past the float range is not
    finite instead of an OverflowError."""
    if type(v) is not float:
        if isinstance(v, (str, bytes, bytearray, memoryview)):
            raise TypeError(f"must be real number, not {type(v).__name__}")
        try:
            v = float(v)
        except OverflowError:
            return False
    return v - v == 0.0  # NaN for an infinity or a NaN


def check_unit(obj, what: str) -> None:
    """Raise InvalidInputError unless each field of the value ``obj`` is in [-1, 1]."""
    for name in obj.FIELDS:
        v = getattr(obj, name)
        if not -1.0 <= v <= 1.0:
            raise InvalidInputError(f"{what} {name} = {shown(v)} outside [-1, 1]")


def check_finite(what: str, **values) -> None:
    """Raise InvalidInputError unless each value is finite (``is_finite``)."""
    for name, v in values.items():
        if not is_finite(v):
            raise InvalidInputError(f"{what} {name} = {shown(v)} is not a finite float")
