"""Saturated log-linear decomposition via Möbius inversion on the subset lattice.

For a strictly positive probability table p over variables 0..n-1, the
log cells decompose as

    ln p(i) = sum over subsets A of tau_A(i_A),

where the interaction array tau_A is the Möbius inverse of the averaged
log-margins:

    ltilde_A(i_A) = mean over the complement coordinates of ln p(i),
    tau_A(i_A)    = sum over Z subset of A of (-1)^(|A|-|Z|) ltilde_Z(i_Z).

``mobius`` is the one lattice transform and its only entry point:
``decompose`` asks it for every subset, ``interaction`` for one, and the
collapse routes apply it to ln p, to the marginal log cells and to their
residual, asking only for the subsets they compare; ``_mean`` is the one
subset mean, which ``tilde_l`` reports.  Every subset-indexed array keeps
full rank with singleton axes on the averaged-out variables, so the
alternating sums are plain broadcasts.  A request spanning 7 or more variables is
computed instead by per-axis centering,

    tau_A = prod over a in A of (I - M_a) prod over a outside A of M_a  ln p,

with M_a the mean over axis a (Whittaker 1990, ch. 7): the same arrays to
rounding, not bit for bit (see ``mobius``).  Public accessors return
squeezed arrays shaped over the subset's variables in scheme order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Collection, Mapping

import numpy as np

from .errors import SchemeError, TableError
from .subsets import axes_of, mask_of, masks_by_size, submasks
from .tables import CategoricalScheme, ContingencyTable, SubsetSpec

DEFAULT_TAU_TOL = 1e-8
LATTICE_BUDGET = 2**24  # floats held by the means or partial arrays of one transform
_CENTER_SPAN = 7  # spanned axes from which ``mobius`` centers axis by axis


def log_cells(table: ContingencyTable) -> np.ndarray:
    """ln p of a probability table (counts tables are rejected)."""
    if table.form != "probability":
        raise TableError("log-linear operations need a probability table")
    return np.log(table.cells)


def mobius(x: np.ndarray, masks: Collection[int]) -> dict[int, np.ndarray]:
    """Möbius inverse of the subset means of ``x`` at each requested mask.

    Each submask Z of a requested mask gets its mean xtilde_Z (``x``
    averaged over the axes outside Z, keepdims) computed once, by one
    ``_mean`` call; each mask A then gets sum over Z inside A of
    (-1)^(|A|-|Z|) xtilde_Z, accumulated in ``submasks`` order; that order
    fixes the last bits of every reported float.  A term with a minus sign
    is subtracted (a - b is a + (-b) bit for bit), so no negated copy is
    made; a single-term mask returns its mean itself.  Returns keepdims
    arrays in request order, over the axes of ``x``.

    A request spanning ``_CENTER_SPAN`` or more axes (up to 3^7 = 2,187
    submask terms and more) goes to ``_centered`` instead, which applies the per-axis
    form of the same transform with one mean and one subtraction per
    (axis, partial array).  Its arrays equal the alternating sums to
    rounding (about 4e-14 on 7 binary and 3 ternary axes of ln p), but not
    bit for bit, so bit equality between two calls holds only below that
    span.

    The means of the lattice spanned by the requested masks, and the partial
    arrays of the per-axis form, hold at most prod(m_a + 1) floats over the
    spanned axes; past ``LATTICE_BUDGET`` this raises SchemeError before any
    mean is taken, as does a mask naming an axis ``x`` does not have.
    """
    span = reduce(or_, masks, 0)
    if span >> x.ndim:
        raise SchemeError(f"mask {span:#b} names an axis outside shape {x.shape}")
    size = math.prod(m + 1 for a, m in enumerate(x.shape) if span & (1 << a))
    if size > LATTICE_BUDGET:
        raise SchemeError(
            f"subset lattice over shape {x.shape} needs {size} floats, "
            f"over the budget of {LATTICE_BUDGET}"
        )
    if span.bit_count() >= _CENTER_SPAN:
        return _centered(x, masks, span)
    means: dict[int, np.ndarray] = {}
    out: dict[int, np.ndarray] = {}
    for mask in masks:
        parity = mask.bit_count() & 1
        acc = None
        for sub in submasks(mask):
            mean = means.get(sub)
            if mean is None:
                mean = means[sub] = _mean(x, sub)
            if acc is None:
                acc = mean  # the mask's own mean, with a plus sign
            elif (sub.bit_count() & 1) == parity:
                acc = acc + mean
            else:
                acc = acc - mean
        out[mask] = acc
    return out


def _mean(x: np.ndarray, sub: int) -> np.ndarray:
    """xtilde_sub: ``x`` averaged over the axes outside ``sub``, keepdims."""
    comp = tuple(a for a in range(x.ndim) if not sub & (1 << a))
    return _mean_over(x, comp) if comp else x


def _mean_over(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``x.mean(axis=axes, keepdims=True)`` bit for bit: the same sum divided
    by the same count, without ``ndarray.mean``'s per-call overhead."""
    out = np.add.reduce(x, axis=axes, keepdims=True)
    out /= math.prod(x.shape[a] for a in axes)
    return out


def _centered(
    x: np.ndarray, masks: Collection[int], span: int
) -> dict[int, np.ndarray]:
    """``mobius`` by per-axis centering, for requests spanning many axes.

    The axes outside ``span`` are averaged in one mean.  Then each spanned
    axis a splits every partial array into its mean over a (M_a) and the
    residual (I - M_a); a partial array is kept only while its mask is what
    some requested mask keeps of the axes done so far, so the partial arrays
    never hold more than prod(m_a + 1) floats over the span.
    """
    comp = tuple(a for a in range(x.ndim) if not span >> a & 1)
    parts = {0: _mean_over(x, comp) if comp else x}
    done = 0
    for a in axes_of(span):
        bit = 1 << a
        done |= bit
        wanted = {mask & done for mask in masks}
        split: dict[int, np.ndarray] = {}
        for key, arr in parts.items():
            mean = _mean_over(arr, (a,))
            if key in wanted:
                split[key] = mean
            if key | bit in wanted:
                split[key | bit] = arr - mean
        parts = split
    return {mask: parts[mask] for mask in masks}


def squeeze_mask(arr: np.ndarray, mask: int) -> np.ndarray:
    """Copy of a keepdims array with the axes outside ``mask`` dropped."""
    drop = tuple(a for a in range(arr.ndim) if not mask & (1 << a))
    return np.squeeze(arr, axis=drop).copy() if drop else arr.copy()


@dataclass(frozen=True, eq=False)
class InteractionDecomposition:
    """All 2^n interaction arrays of a positive probability table.

    ``tau(subset)`` returns the interaction array shaped over the subset's
    variables in scheme order; the empty subset yields a 0-d array holding
    the grand mean of the log cells.
    """

    scheme: CategoricalScheme
    _tau: Mapping[int, np.ndarray]  # mask -> keepdims array

    def subsets(self) -> list[tuple[int, ...]]:
        return [axes_of(m) for m in masks_by_size(self.scheme.n)]

    def tau(self, subset: SubsetSpec) -> np.ndarray:
        mask = mask_of(self.scheme.resolve_subset(subset))
        return squeeze_mask(self._tau[mask], mask)

    def max_abs(self, subset: SubsetSpec) -> float:
        mask = mask_of(self.scheme.resolve_subset(subset))
        return float(np.max(np.abs(self._tau[mask])))

    def forward_tilde(self, subset: SubsetSpec) -> np.ndarray:
        """Reconstruct ltilde_A as sum of tau_Z over Z subset of A (inversion pair)."""
        mask = mask_of(self.scheme.resolve_subset(subset))
        out: np.ndarray | None = None
        for sub in submasks(mask):
            out = self._tau[sub] if out is None else out + self._tau[sub]
        assert out is not None
        return squeeze_mask(out, mask)

    def reconstruct_log(self) -> np.ndarray:
        """Sum of every interaction array, cell by cell: should equal ln p."""
        out = np.zeros(self.scheme.shape)
        for arr in self._tau.values():
            out = out + arr
        return out

    def to_json_dict(self) -> dict:
        names = self.scheme.names
        return {
            "subsets": [
                {
                    "vars": [names[a] for a in axes_of(mask)],
                    "tau": self._tau[mask].reshape(-1).tolist(),
                }
                for mask in masks_by_size(self.scheme.n)
            ]
        }


def tilde_l(table: ContingencyTable, subset: SubsetSpec) -> np.ndarray:
    """Mean of ln p over the complement coordinates, at each fixed i_A.

    The empty subset gives the grand mean of the log cells (0-d array); the
    full set gives ln p itself.
    """
    mask = mask_of(table.scheme.resolve_subset(subset))
    return squeeze_mask(_mean(log_cells(table), mask), mask)


def interaction(table: ContingencyTable, subset: SubsetSpec) -> np.ndarray:
    """Single interaction array tau_A, from the means of A's subsets only."""
    mask = mask_of(table.scheme.resolve_subset(subset))
    return squeeze_mask(mobius(log_cells(table), (mask,))[mask], mask)


def decompose(table: ContingencyTable) -> InteractionDecomposition:
    """Full saturated decomposition: tau_A for all 2^n subsets A."""
    tau = mobius(log_cells(table), range(1 << table.scheme.n))
    return InteractionDecomposition(table.scheme, tau)


@dataclass(frozen=True)
class HierarchyVerdict:
    """is-hierarchical flag plus the offending (superset, vanished subset) pairs."""

    hierarchical: bool
    violations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    tol: float


def is_hierarchical(
    dec: InteractionDecomposition, tol: float = DEFAULT_TAU_TOL
) -> HierarchyVerdict:
    """Check that every nonzero interaction has all its sub-interactions nonzero.

    A subset counts as nonzero when max |tau| exceeds ``tol``.  Violations
    are reported as (B, A) pairs with tau_B nonzero but tau_A ~ 0 for some
    A strictly inside B, B by size then mask and A in ``submasks`` order.
    With every interaction nonzero there can be none, so no pair is visited.
    """
    n = dec.scheme.n
    nonzero = {
        mask: float(np.max(np.abs(dec._tau[mask]))) > tol for mask in range(1 << n)
    }
    if all(nonzero.values()):
        return HierarchyVerdict(hierarchical=True, violations=(), tol=tol)
    violations = []
    for mask in masks_by_size(n):
        if not nonzero[mask] or mask == 0:
            continue
        for sub in submasks(mask):
            if sub != mask and not nonzero[sub]:
                violations.append(
                    (dec.scheme.subset_names(axes_of(mask)), dec.scheme.subset_names(axes_of(sub)))
                )
    return HierarchyVerdict(
        hierarchical=not violations, violations=tuple(violations), tol=tol
    )
