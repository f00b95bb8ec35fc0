"""Exception hierarchy shared across the package, its one rule for numeric inputs and its one JSON front door.

The three leaf classes map one-to-one onto the CLI exit codes:
config/validation -> 2, capability -> 3, numeric range -> 4 (I/O errors
surface as OSError -> 5).

Every numeric parameter is read by one rule. A number is a real number of any
type, numpy scalars included, but never a bool, a string or None, which float()
alone would read as numbers. An integer is a number that int() keeps: 20.0 is
one; 2.7, which int() would truncate, and nan and inf are not. A complex number
is a number or a complex number of any type, under the same exclusions.

Every JSON input (a state, an observable, a config file, a JSON dataset) is
read by json_object: text that does not parse, or a value that is not an
object holding the input's one required field, is a ValidationError worded
"<what> does not parse: ..." or "<what> must be an object holding '<field>'".
A complex number in JSON is an [re, im] pair of numbers, read by
complex_from_json.
"""

import json
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


def is_complex(value) -> bool:
    """Whether value is a real or complex number: a numbers.Complex (numpy's included) other than a bool."""
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def is_integral(value) -> bool:
    """Whether value is a finite number that int() keeps."""
    return is_real(value) and -math.inf < value < math.inf and int(value) == value


def integer(value, what: str, low: int | None = None) -> int:
    """value as an int, if it is an integer of at least low; else a ValidationError naming what."""
    if not is_integral(value) or (low is not None and value < low):
        raise ValidationError(f"{what} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return int(value)


def complex_from_json(pair, what: str) -> complex:
    """The complex number of a JSON [re, im] pair of numbers; else a ValidationError naming what."""
    re, im = pair
    if not (is_real(re) and is_real(im)):
        raise ValidationError(f"{what} must be a [re, im] pair of numbers, got {pair!r}")
    return complex(re, im)


def json_object(value, what: str, field: str | None = None) -> dict:
    """value as a JSON object: a dict as it is, text parsed; else a ValidationError naming what.

    An object that lacks field, if one is given, is refused as a non-object is.
    """
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} does not parse: {exc}") from exc
    if not isinstance(value, dict) or (field is not None and field not in value):
        raise ValidationError(f"{what} must be an object" + ("" if field is None else f" holding {field!r}"))
    return value
