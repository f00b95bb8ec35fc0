"""Exception hierarchy shared across the package, and its one rule for numeric inputs.

The three leaf classes map one-to-one onto the CLI exit codes:
config/validation -> 2, capability -> 3, numeric range -> 4 (I/O errors
surface as OSError -> 5).

Every numeric parameter is read by one rule. A number is a real number of any
type, numpy scalars included, but never a bool, a string or None, which float()
alone would read as numbers. An integer is a number that int() keeps: 20.0 is
one; 2.7, which int() would truncate, and nan and inf are not.
"""

import math
import numbers


class TomonoiseError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TomonoiseError):
    """Invalid input: malformed state, bad parameter domain, broken config."""


class CapabilityError(TomonoiseError):
    """A supported operation asked for an unsupported (observable, state) pairing."""


class NumericRangeError(TomonoiseError):
    """Order caps, truncation limits, or sampling-grid extent exceeded."""


def is_real(value) -> bool:
    """Whether value is a number: a numbers.Real (numpy's included) other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integral(value) -> bool:
    """Whether value is a finite number that int() keeps."""
    return is_real(value) and -math.inf < value < math.inf and int(value) == value


def integer(value, what: str, low: int | None = None) -> int:
    """value as an int, if it is an integer of at least low; else a ValidationError naming what."""
    if not is_integral(value) or (low is not None and value < low):
        raise ValidationError(f"{what} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return int(value)
