"""Exception types shared across the package, and the malformed-payload boundary."""

from contextlib import contextmanager


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

    Raised when a verdict computed by independent formulas comes out
    inconsistent.  This signals an implementation bug (or a tolerance set
    exactly at the data's decision boundary), never a property of the data.
    """


@contextmanager
def malformed(error: type[CollapsekitError], what: str):
    """Read a payload: an exception for a missing key or a value of the wrong
    type or shape leaves as ``error("malformed <what>: <exc>")``, while a
    ``CollapsekitError`` (a ``SchemeError``, say) keeps its kind."""
    try:
        yield
    except CollapsekitError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def array(payload, key: str):
    """``payload[key]``, which must be a JSON array (a list or a tuple): a
    string or an object there is malformed, not a run of characters or keys."""
    value = payload[key]
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key} must be an array, not {type(value).__name__}")
    return value
