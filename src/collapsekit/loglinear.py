"""Saturated log-linear decomposition via Möbius inversion on the subset lattice.

For a strictly positive probability table p over variables 0..n-1, the
log cells decompose as

    ln p(i) = sum over subsets A of tau_A(i_A),

where the interaction array tau_A is the Möbius inverse of the averaged
log-margins:

    ltilde_A(i_A) = mean over the complement coordinates of ln p(i),
    tau_A(i_A)    = sum over Z subset of A of (-1)^(|A|-|Z|) ltilde_Z(i_Z).

``mobius`` is the one lattice transform of the package: ``decompose`` asks
it for every subset, ``interaction`` for one, and the collapse routes apply
it to ln p, to the marginal log cells and to their residual, asking only for
the subsets they compare.  Internally every subset-indexed array keeps full
rank with singleton axes on the averaged-out variables, so the alternating
sums are plain broadcasts.  Subsets whose variables have the same level
counts in scheme order form a shape class, and a large class is summed as
one stack: one numpy operation per (class, submask position) instead of
one per (subset, submask) pair, with every float bit-identical to the
per-subset sum (see ``mobius``).  Public accessors return squeezed arrays
shaped over the subset's variables in scheme order.
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
LATTICE_BUDGET = 2**24  # floats held by the subset means of one transform
_CLASS_MIN = 4  # masks a shape class needs to be summed as one stack
_STACK_TERMS = 1024  # submask terms the stacked classes of one call need


def log_cells(table: ContingencyTable) -> np.ndarray:
    """ln p of a probability table (counts tables are rejected)."""
    if table.form != "probability":
        raise TableError("log-linear operations need a probability table")
    return np.log(table.cells)


def mobius(x: np.ndarray, masks: Collection[int]) -> dict[int, np.ndarray]:
    """Möbius inverse of the subset means of ``x`` at each requested mask.

    Each submask Z of a requested mask gets its mean xtilde_Z (``x``
    averaged over the axes outside Z, keepdims) computed once, by one
    ``x.mean`` call; each mask A then gets sum over Z inside A of
    (-1)^(|A|-|Z|) xtilde_Z, accumulated in ``submasks`` order; that order
    fixes the last bits of every reported float.  The second term allocates
    the sum and every later term is added or subtracted in place (a - b is
    a + (-b) bit for bit), so no negated copy is made; a single-term mask
    returns its mean itself.  Returns keepdims arrays in request order.

    Requested masks whose axes have the same sizes in scheme order form a
    shape class.  Within a class the j-th submask of every mask (in
    ``submasks`` order) keeps the same positions of the mask's axes,
    carries the sign (-1)^popcount(j) and has a mean of the same shape.  So
    a class of at least ``_CLASS_MIN`` masks is summed as one stack: the
    means are laid side by side along a last stack axis, one stack per mean
    shape, and each (class, j) is one ``take`` of the members' j-th means
    plus one add or subtract into the class's stacked sum (allocated by the
    second term, updated in place after).  The bits cannot change: each
    output element still gets the same operands, the same signs and the
    same IEEE additions in the same order, and an elementwise add does not
    depend on the array it runs in.  Small classes, and requests with fewer
    than ``_STACK_TERMS`` terms in the stacked classes, run the per-mask
    sum, which costs less where there is little to stack.

    The means of the lattice spanned by the requested masks hold
    prod(m_a + 1) floats over the spanned axes; past ``LATTICE_BUDGET`` this
    raises SchemeError before any mean is taken, as does a mask naming an
    axis ``x`` does not have.
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
    means: dict[int, np.ndarray] = {}
    batched = _stack_classes(x.shape, masks, span)
    skip = {mask for cls in batched for mask in cls}
    out: dict[int, np.ndarray] = {}
    for mask in masks:
        if mask in skip:
            continue
        parity = mask.bit_count() & 1
        first = acc = None
        for sub in submasks(mask):
            mean = means.get(sub)
            if mean is None:
                mean = means[sub] = _mean(x, sub)
            plus = (sub.bit_count() & 1) == parity
            if first is None:
                first = acc = mean  # the mask's own mean, with a plus sign
            elif acc is first:
                acc = acc + mean if plus else acc - mean
            elif plus:
                acc += mean
            else:
                acc -= mean
        assert acc is not None
        out[mask] = acc
    if not batched:
        return out
    _stacked_mobius(x, batched, means, out)
    return {mask: out[mask] for mask in masks}


def _mean(x: np.ndarray, sub: int) -> np.ndarray:
    """xtilde_sub: ``x`` averaged over the axes outside ``sub``, keepdims."""
    comp = tuple(a for a in range(x.ndim) if not sub & (1 << a))
    return x.mean(axis=comp, keepdims=True) if comp else x


def _stack_classes(
    shape: tuple[int, ...], masks: Collection[int], span: int
) -> list[list[int]]:
    """The shape classes of ``masks`` that ``mobius`` sums as stacks.

    A class needs ``_CLASS_MIN`` masks, and the chosen classes together need
    ``_STACK_TERMS`` submask terms to repay the stacks' bookkeeping; below
    that every mask runs the per-mask sum.  Masks within ``span`` have at
    most 3^|span| terms in all, so small requests are not even classed.
    """
    if 3 ** span.bit_count() < _STACK_TERMS:
        return []
    classes: dict[tuple[int, ...], list[int]] = {}
    for mask in dict.fromkeys(masks):
        classes.setdefault(_sizes(shape, mask), []).append(mask)
    big = [cls for cls in classes.values() if len(cls) >= _CLASS_MIN]
    if sum(len(cls) << cls[0].bit_count() for cls in big) < _STACK_TERMS:
        return []
    return big


def _sizes(shape: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Sizes of the axes in ``mask``, in scheme order: the mask's shape class."""
    return tuple([m for a, m in enumerate(shape) if mask >> a & 1])


def _stacked_mobius(
    x: np.ndarray,
    classes: list[list[int]],
    means: dict[int, np.ndarray],
    out: dict[int, np.ndarray],
) -> None:
    """The per-mask sum of ``mobius`` for whole shape classes at once.

    Writes each class member's keepdims sum into ``out``; members are views
    of their class's stacked sum.  Takes over the cached ``means``.
    """
    # subs[i, j]: the j-th submask, in ``submasks`` order, of member i, which
    # keeps the member's axes at the set bits of c = 2^k - 1 - j; classes of
    # one popcount k share one product with that k x 2^k bit table
    by_k: dict[int, list[list[int]]] = {}
    for cls in classes:
        by_k.setdefault(cls[0].bit_count(), []).append(cls)
    blocks = []
    for k, group in by_k.items():
        cs = np.arange((1 << k) - 1, -1, -1, dtype=np.uint64)
        keep = (cs >> np.arange(k, dtype=np.uint64)[:, None]) & np.uint64(1)
        axes = np.array([axes_of(m) for cls in group for m in cls], dtype=np.uint64)
        blocks.append((group, np.left_shift(np.uint64(1), axes) @ keep))
    subs = np.sort(np.concatenate([z.reshape(-1) for _, z in blocks]))
    needed = subs[np.concatenate(([True], subs[1:] != subs[:-1]))]
    # the needed means stacked by shape, one mean per index of the last
    # axis, so that every add or subtract runs along the class members;
    # row[r] is needed[r]'s index in its stack
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for r, sub in enumerate(needed.tolist()):
        by_shape.setdefault(_sizes(x.shape, sub), []).append(r)
    row = np.empty(len(needed), dtype=np.intp)
    stacks: dict[tuple[int, ...], np.ndarray] = {}
    for shape, rs in by_shape.items():
        group = []
        for sub in needed[rs].tolist():
            mean = means.pop(sub, None)
            group.append((_mean(x, sub) if mean is None else mean).reshape(shape))
        stacks[shape] = np.stack(group, axis=-1)
        row[rs] = np.arange(len(rs))
    for group, z in blocks:
        rows = row[np.searchsorted(needed, z)].T.copy()  # rows[j, i]: stack index
        start = 0
        for cls in group:
            members = rows[:, start : start + len(cls)]
            start += len(cls)
            sizes = _sizes(x.shape, cls[0])
            k = len(sizes)
            acc = stacks[sizes].take(members[0], axis=-1)
            for j in range(1, 1 << k):
                c = (1 << k) - 1 - j
                term = stacks[tuple([m for b, m in enumerate(sizes) if c >> b & 1])]
                term = term.take(members[j], axis=-1).reshape(
                    [m if c >> b & 1 else 1 for b, m in enumerate(sizes)] + [len(cls)]
                )
                if j.bit_count() & 1:
                    acc -= term
                else:
                    acc += term
            acc = acc.transpose(k, *range(k)).copy()
            for i, mask in enumerate(cls):
                out[mask] = acc[i].reshape(
                    [m if mask >> a & 1 else 1 for a, m in enumerate(x.shape)]
                )


def squeeze_mask(arr: np.ndarray, mask: int) -> np.ndarray:
    """Copy of a keepdims array with the axes outside ``mask`` dropped."""
    drop = tuple(a for a in range(arr.ndim) if not mask & (1 << a))
    return np.squeeze(arr, axis=drop).copy() if drop else arr.copy()


def mobius_at(x: np.ndarray, mask: int) -> np.ndarray:
    """Single Möbius inverse at ``mask``, shaped over the mask's axes."""
    return squeeze_mask(mobius(x, (mask,))[mask], mask)


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
        return {
            "subsets": [
                {
                    "vars": list(self.scheme.subset_names(axes_of(mask))),
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
    logp = log_cells(table)
    axes = table.scheme.resolve_subset(subset)
    comp = tuple(a for a in range(table.scheme.n) if a not in axes)
    out = logp.mean(axis=comp) if comp else logp.copy()
    return np.asarray(out)


def interaction(table: ContingencyTable, subset: SubsetSpec) -> np.ndarray:
    """Single interaction array tau_A, from the means of A's subsets only."""
    return mobius_at(log_cells(table), mask_of(table.scheme.resolve_subset(subset)))


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
    A strictly inside B.
    """
    n = dec.scheme.n
    nonzero = {
        mask: float(np.max(np.abs(dec._tau[mask]))) > tol for mask in range(1 << n)
    }
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
