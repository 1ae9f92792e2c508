"""Dense n-dimensional contingency tables over named categorical variables.

Tables come in two forms.  ``counts`` tables hold nonnegative cell counts
and tolerate zeros; ``probability`` tables hold strictly positive cell
probabilities summing to one, which is what the log-linear machinery needs.
All operations are pure: tables are immutable after construction and every
operation returns a new table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CollapsekitError, SchemeError, TableError, array, malformed, numbers

PROB_SUM_TOL = 1e-12
DEFAULT_CI_TOL = 1e-9

SubsetSpec = Iterable["str | int"]


def probabilities(
    p, error: type[CollapsekitError], what: str, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Read-only float copy of ``p``, which must be finite, strictly positive
    and sum to 1 within ``PROB_SUM_TOL`` (and have ``shape``, when given);
    otherwise raises ``error`` with a message naming ``what``."""
    arr = np.array(p, dtype=float)
    if shape is not None and arr.shape != shape:
        raise error(f"{what} has shape {arr.shape}, not {shape}")
    # NaN passes both the sign and the sum test, so finiteness comes first
    if not np.all(np.isfinite(arr)):
        raise error(f"non-finite cell in {what}")
    if np.any(arr <= 0.0):
        raise error(f"zero cell in {what}")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise error(f"{what}: cells sum to {total!r}, not 1")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CategoricalScheme:
    """Ordered categorical variables with named levels.

    ``variables`` is an ordered tuple of ``(name, levels)`` pairs.  Cell
    arrays are laid out row-major in this variable order.  Names are unique,
    level labels are unique within a variable, and every variable has at
    least two levels.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        normalized = tuple(
            (str(name), tuple(str(lv) for lv in levels))
            for name, levels in self.variables
        )
        object.__setattr__(self, "variables", normalized)
        names = [name for name, _ in normalized]
        if not names:
            raise SchemeError("scheme needs at least one variable")
        if len(set(names)) != len(names):
            raise SchemeError(f"duplicate variable names in {names}")
        for name, levels in normalized:
            if len(levels) < 2:
                raise SchemeError(f"variable {name!r} needs at least 2 levels")
            if len(set(levels)) != len(levels):
                raise SchemeError(f"duplicate level labels for variable {name!r}")
            try:
                "".join((name, *levels)).encode("utf-8")
            except UnicodeEncodeError:
                raise SchemeError(f"variable {name!r}: name or level is not valid Unicode") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(levels) for _, levels in self.variables)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def ncells(self) -> int:
        out = 1
        for m in self.shape:
            out *= m
        return out

    def axis(self, var: "str | int") -> int:
        if isinstance(var, (int, np.integer)):
            var = int(var)
            if not 0 <= var < self.n:
                raise SchemeError(f"axis {var} out of range for {self.n} variables")
            return var
        for j, (name, _) in enumerate(self.variables):
            if name == var:
                return j
        raise SchemeError(f"unknown variable {var!r}; have {self.names}")

    def levels(self, var: "str | int") -> tuple[str, ...]:
        return self.variables[self.axis(var)][1]

    def level_index(self, var: "str | int", label: str) -> int:
        levels = self.levels(var)
        try:
            return levels.index(str(label))
        except ValueError:
            raise SchemeError(
                f"unknown level {label!r} for variable {var!r}; have {levels}"
            ) from None

    def resolve_subset(self, subset: SubsetSpec) -> tuple[int, ...]:
        """Canonicalize a subset of variables (names or axes) to sorted axes."""
        axes = tuple(sorted({self.axis(v) for v in subset}))
        return axes

    def subset_names(self, axes: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.names[a] for a in sorted(axes))

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "CategoricalScheme":
        """The scheme in the ``variables`` of a table or a ``--variables`` file."""
        with malformed(TableError, "variables payload"):
            variables = array(payload, "variables")
            return cls(tuple((v["name"], tuple(array(v, "levels"))) for v in variables))


@dataclass(frozen=True)
class CiVerdict:
    """Outcome of an exact conditional-independence check.

    ``max_deviation`` is the largest absolute violation of the factorization
    p(A,C|B) = p(A|B) p(C|B) over all cells; ``witness`` is the cell (as
    (variable, level) pairs over the reduced table) attaining it.
    """

    holds: bool
    max_deviation: float
    witness: tuple[tuple[str, str], ...]
    tol: float


def ci_deviation(
    p: np.ndarray,
    a_axes: Sequence[int],
    c_axes: Sequence[int],
    b_axes: Sequence[int] = (),
) -> tuple[float, tuple[int, ...]]:
    """Max deviation of a joint probability array from p(A,C|B)=p(A|B)p(C|B).

    ``p`` must range over exactly the axes in A ∪ C ∪ B.  With B empty this
    tests plain independence p(A,C)=p(A)p(C).  Returns the deviation and the
    flat cell index (as a multi-index over p's axes) attaining it.  Zero-mass
    conditioning slices contribute zero deviation.
    """
    a_axes = tuple(sorted(a_axes))
    c_axes = tuple(sorted(c_axes))
    b_axes = tuple(sorted(b_axes))
    if set(a_axes) & set(c_axes) or set(a_axes) & set(b_axes) or set(c_axes) & set(b_axes):
        raise SchemeError("A, C, B must be pairwise disjoint")
    if not a_axes or not c_axes:
        raise SchemeError("A and C must be nonempty")
    if set(a_axes) | set(c_axes) | set(b_axes) != set(range(p.ndim)):
        raise SchemeError("p must range over exactly the axes of A, C, B")

    p_b = p.sum(axis=a_axes + c_axes, keepdims=True)
    p_ab = p.sum(axis=c_axes, keepdims=True)
    p_cb = p.sum(axis=a_axes, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = p / p_b - (p_ab / p_b) * (p_cb / p_b)
    dev = np.where(np.broadcast_to(p_b, p.shape) > 0.0, dev, 0.0)
    dev = np.abs(dev)
    flat = int(np.argmax(dev))
    idx = np.unravel_index(flat, p.shape)
    return float(dev.flat[flat]), tuple(int(i) for i in idx)


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Immutable dense table of cell counts or cell probabilities."""

    scheme: CategoricalScheme
    cells: np.ndarray
    form: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.cells, dtype=float)
        if arr.shape != self.scheme.shape:
            raise TableError(
                f"cell array shape {arr.shape} does not match scheme shape "
                f"{self.scheme.shape}"
            )
        if self.form == "probability":
            arr = probabilities(arr, TableError, "probability table")
        elif self.form == "counts":
            arr = np.array(arr)  # a private copy, made read-only below
            if not np.all(np.isfinite(arr)):
                raise TableError("cells must be finite")
            if np.any(arr < 0.0):
                raise TableError("negative cell in counts table")
            arr.flags.writeable = False
        else:
            raise TableError(f"unknown form {self.form!r}")
        object.__setattr__(self, "cells", arr)

    # -- basic accessors ---------------------------------------------------

    @property
    def total(self) -> float:
        return float(self.cells.sum())

    # -- operations --------------------------------------------------------

    def normalize(self, smoothing: float | None = None) -> "ContingencyTable":
        """Convert a counts table to probability form.

        With ``smoothing`` = lambda > 0, each cell becomes
        ``(c + lambda) / (total + lambda * ncells)``, which repairs zero
        cells.  Without smoothing, any zero cell is an error because
        probability tables must be strictly positive.
        """
        if self.form != "counts":
            raise TableError("normalize expects a counts table")
        with np.errstate(over="ignore"):
            total = self.total
        if not math.isfinite(total):
            raise TableError(
                f"cell total overflows: {self.scheme.ncells} finite counts sum to {total}"
            )
        if total <= 0.0:
            raise TableError("cannot normalize a table with zero total")
        if smoothing is None:
            if np.any(self.cells == 0.0):
                raise TableError(
                    "zero cell; pass smoothing=lambda to normalize anyway"
                )
            probs = self.cells / total
        else:
            lam = float(smoothing)
            if not (math.isfinite(lam) and lam > 0.0):
                raise TableError("smoothing must be finite and positive")
            smoothed = total + lam * self.scheme.ncells  # a Python float: inf, no warning
            if not math.isfinite(smoothed):
                raise TableError(
                    f"smoothed total overflows: {self.scheme.ncells} cells with "
                    f"smoothing {lam!r} sum to {smoothed}"
                )
            probs = (self.cells + lam) / smoothed
        probs = probs / probs.sum()  # remove residual rounding drift
        if not probs.all():
            raise TableError(
                f"a cell probability underflows to 0 over the total {total!r}"
                + ("" if smoothing is None else f" with smoothing {smoothing!r}")
            )
        return ContingencyTable(self.scheme, probs, "probability")

    def marginalize(self, keep: SubsetSpec) -> "ContingencyTable":
        """Sum out every variable not in ``keep``; total mass is preserved."""
        keep_axes = self.scheme.resolve_subset(keep)
        if not keep_axes:
            raise SchemeError("keep must be a nonempty subset of variables")
        drop = tuple(a for a in range(self.scheme.n) if a not in keep_axes)
        cells = self.cells.sum(axis=drop) if drop else self.cells
        sub = CategoricalScheme(tuple(self.scheme.variables[a] for a in keep_axes))
        return ContingencyTable(sub, cells, self.form)

    def check_ci(self, a: SubsetSpec, c: SubsetSpec, b: SubsetSpec = ()) -> CiVerdict:
        """Exact check of X_A independent of X_C given X_B, at ``DEFAULT_CI_TOL``.

        Variables outside A ∪ C ∪ B are marginalized out first.  With B
        empty this is a marginal independence test.  The verdict reports the
        worst absolute deviation from the factorization and the cell where
        it occurs.
        """
        if self.form != "probability":
            raise TableError("check_ci expects a probability table")
        a_axes = self.scheme.resolve_subset(a)
        c_axes = self.scheme.resolve_subset(c)
        b_axes = self.scheme.resolve_subset(b)
        union = tuple(sorted(set(a_axes) | set(c_axes) | set(b_axes)))
        # the reduced cells as marginalize sums them, without validating them again
        drop = tuple(x for x in range(self.scheme.n) if x not in union)
        remap = {orig: new for new, orig in enumerate(union)}
        dev, idx = ci_deviation(
            self.cells.sum(axis=drop),
            tuple(remap[x] for x in a_axes),
            tuple(remap[x] for x in c_axes),
            tuple(remap[x] for x in b_axes),
        )
        witness = tuple(
            (self.scheme.names[x], self.scheme.levels(x)[i]) for x, i in zip(union, idx)
        )
        return CiVerdict(holds=dev <= DEFAULT_CI_TOL, max_deviation=dev, witness=witness, tol=DEFAULT_CI_TOL)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "variables": [
                {"name": name, "levels": list(levels)}
                for name, levels in self.scheme.variables
            ],
            "form": self.form,
            "cells": [float(x) for x in self.cells.reshape(-1)],
        }

    @classmethod
    def from_json(cls, text: str) -> "ContingencyTable":
        with malformed(TableError, "table payload", RecursionError):
            payload = json.loads(text)
            scheme = CategoricalScheme.from_json_dict(payload)
            return build_table(scheme, numbers(payload, "cells"), payload["form"])


def build_table(
    scheme: CategoricalScheme, cells: Sequence[float], form: str
) -> ContingencyTable:
    """Validate and shape a flat row-major cell list into a table."""
    arr = np.asarray(cells, dtype=float)
    if arr.size != scheme.ncells:
        raise TableError(
            f"expected {scheme.ncells} cells for shape {scheme.shape}, got {arr.size}"
        )
    return ContingencyTable(scheme, arr.reshape(scheme.shape), form)
