"""Exception types shared across the package, and the malformed-payload boundary."""

import json
from contextlib import contextmanager

import numpy as np


class CollapsekitError(Exception):
    """Base class for every error raised by this package."""


class SchemeError(CollapsekitError, ValueError):
    """Invalid categorical scheme: duplicate names, too few levels, unknown variables."""


class TableError(CollapsekitError, ValueError):
    """Invalid table payload, or an operation applied to the wrong table form."""


class DistributionError(CollapsekitError, ValueError):
    """Invalid finite joint distribution or regression summary."""


class ModelError(CollapsekitError, ValueError):
    """Invalid parametric model specification or out-of-domain evaluation point."""


class RouteDisagreementError(CollapsekitError, RuntimeError):
    """Two mathematically equivalent computation routes disagreed.

    Each verdict is decided by one route against its tolerance; the other
    route's value must lie within a proven, tolerance-free rounding bound
    of the first.  Breaking it signals an implementation bug, never a
    property of the data or a tolerance at its boundary.
    """


@contextmanager
def malformed(error: type[CollapsekitError], what: str, *also: type[Exception]):
    """Read a payload: an exception for a missing key or a value of the wrong
    type or shape, or one of the types in ``also`` (``csv.Error``, say),
    leaves as ``error("malformed <what>: <exc>")``, while a
    ``CollapsekitError`` (a ``SchemeError``, say) keeps its kind, and so
    does a ``JSONDecodeError``: text that is not JSON is not a payload."""
    try:
        yield
    except (CollapsekitError, json.JSONDecodeError):
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, *also) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def loads(text: str, error: type[CollapsekitError], what: str):
    """``json.loads(text)``.  Text that is not JSON raises ``JSONDecodeError``;
    an integer literal past Python's digit limit (4,300 digits, see
    ``sys.set_int_max_str_digits``) is ``malformed <what>``."""
    with malformed(error, what):
        return json.loads(text)


def array(payload, key: str):
    """``payload[key]``, which must be a JSON array (a list or a tuple): a
    string or an object there is malformed, not a run of characters or keys."""
    value = payload[key]
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be an array, not {type(value).__name__}")
    return value


def number(payload, key: str, default: float | None = None) -> float:
    """``payload[key]`` (``default`` when given and the key is missing), which
    must be a JSON number: a string such as ``"1"`` or a bool is malformed,
    not read as the number it spells."""
    value = payload[key] if default is None else payload.get(key, default)
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a number, not {type(value).__name__}")
    return float(value)


def numbers(payload, key: str) -> np.ndarray:
    """``payload[key]``, a JSON array of numbers, flat or nested, as floats.

    The check is one pass in C over the values' types, so it also finds a
    bool among numbers, which numpy's dtype promotion would read as 1.
    """
    values = np.asarray(array(payload, key), dtype=object)
    odd = set(map(type, values.flat)) - {int, float}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise TypeError(f"{key} must hold numbers, not {names}")
    return values.astype(float)
