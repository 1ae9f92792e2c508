"""Collapsibility of interaction parameters onto a marginal table.

A table over variables 1..n is collapsible onto the margin B with respect
to tau_A (A inside B) when the A-interaction of the full table equals the
A-interaction of the marginal table over B.  Two equivalent verdict routes
are always computed and compared:

* direct: compare tau_A of the full table with eta_A of the marginal table;
* residual: form d(i_B) = ln p_B(i_B) - ltilde_B(i_B), average d over
  B-minus-Z for each Z inside A, and Möbius-invert; collapsibility is the
  vanishing of the resulting alternating sum.

Both routes are ``loglinear.mobius`` applied to ln p, to ln p_B and to d,
asked only for the interactions a verdict compares or reports; neither
table is decomposed in full.  ``_routes`` alone runs them.

Strict collapsibility (Whittemore 1978) extends the plain verdict for the
target over the margin target ∪ given: every interaction of the target's
parameter set must match its marginal counterpart and every interaction
linking the target to the collapsed variables must vanish, which holds
exactly when X_A is conditionally independent of the collapsed variables
given the rest of the margin.  That conditional-independence route is
computed as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Mapping

import numpy as np

from .errors import RouteDisagreementError, SchemeError
from .loglinear import DEFAULT_TAU_TOL, log_cells, mobius, mobius_at, squeeze_mask
from .subsets import axes_of, mask_of, submasks
from .tables import CiVerdict, ContingencyTable, SubsetSpec


@dataclass(frozen=True, eq=False)
class CollapseVerdict:
    """Verdict of a (strict) collapsibility check.

    ``max_residual`` is the worst absolute value of the residual alternating
    sum; ``direct_gap`` is max |tau_A - eta_A| from the direct route.  The
    two agree up to rounding by construction.  For strict checks, ``strict``
    carries the verdict, ``set_gaps`` the per-parameter gaps over the target
    set, ``zero_set_max`` the largest interaction linking the target to the
    collapsed variables (the Definition-style condition (ii), also exposed
    as ``interaction_zero_ok``), and ``ci`` the conditional-independence
    cross-check.
    """

    target: tuple[str, ...]
    margin: tuple[str, ...]
    collapsible: bool
    max_residual: float
    direct_gap: float
    tau_full: np.ndarray
    eta_marginal: np.ndarray
    tol: float
    strict: bool | None = None
    set_gaps: Mapping[tuple[str, ...], float] | None = None
    zero_set_max: float | None = None
    interaction_zero_ok: bool | None = None
    ci: CiVerdict | None = None


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def _routes(
    table: ContingencyTable, a_axes: tuple[int, ...], b_axes: tuple[int, ...], tol: float,
    masks: Collection[int] = (),
) -> tuple[CollapseVerdict, dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The plain verdict for tau_A over the margin B, by both routes, and
    tau and eta at A and at each of ``masks``, keyed by mask over the table:
    tau keepdims over the table, eta squeezed, for the masks inside B only."""
    logp = log_cells(table)
    log_marg = np.log(table.marginalize(b_axes).cells)
    d = log_marg - logp.mean(axis=tuple(x for x in range(logp.ndim) if x not in b_axes))
    a_mask, b_mask = mask_of(a_axes), mask_of(b_axes)
    wanted = list(dict.fromkeys((a_mask, *masks)))
    # each mask inside B, over the (sorted) margin's axes
    pos = {m: mask_of(b_axes.index(x) for x in axes_of(m)) for m in wanted if not m & ~b_mask}
    tau = mobius(logp, wanted)
    eta_pos = mobius(log_marg, list(pos.values()))
    eta = {m: squeeze_mask(eta_pos[p], p) for m, p in pos.items()}
    max_residual = _max_abs(mobius_at(d, pos[a_mask]))
    tau_full = squeeze_mask(tau[a_mask], a_mask)
    direct_gap = _max_abs(tau_full - eta[a_mask])
    by_residual = max_residual <= tol
    if by_residual != (direct_gap <= tol):
        raise RouteDisagreementError(
            f"residual route ({max_residual!r}) and direct route ({direct_gap!r}) "
            f"disagree at tol {tol!r}"
        )
    plain = CollapseVerdict(
        target=table.scheme.subset_names(a_axes),
        margin=table.scheme.subset_names(b_axes),
        collapsible=by_residual,
        max_residual=max_residual,
        direct_gap=direct_gap,
        tau_full=tau_full,
        eta_marginal=eta[a_mask],
        tol=tol,
    )
    return plain, tau, eta


def check_collapsibility(
    table: ContingencyTable, target: SubsetSpec, margin: SubsetSpec, tol: float = DEFAULT_TAU_TOL
) -> CollapseVerdict:
    """Is the table collapsible onto ``margin`` with respect to tau_target?

    ``target`` must lie inside ``margin``, and ``margin`` must be a proper
    subset of the variables (otherwise there is nothing to collapse over).
    Raises RouteDisagreementError if the residual route and the direct
    tau-versus-eta route disagree, which would indicate a bug rather than a
    property of the data.
    """
    a_axes = table.scheme.resolve_subset(target)
    b_axes = table.scheme.resolve_subset(margin)
    if not set(a_axes) <= set(b_axes):
        raise SchemeError("target must be a subset of the margin")
    if len(b_axes) >= table.scheme.n:
        raise SchemeError("margin must be a proper subset: nothing to collapse over")
    if not a_axes:
        raise SchemeError("target must be nonempty")
    return _routes(table, a_axes, b_axes, tol)[0]


def check_strict_collapsibility(
    table: ContingencyTable, target: SubsetSpec, given: SubsetSpec, collapsed: SubsetSpec,
    tol: float = DEFAULT_TAU_TOL,
) -> CollapseVerdict:
    """Strict collapsibility over ``collapsed`` for the partition (target, given, collapsed).

    The three subsets must partition the variable set (``given`` may be
    empty).  The verdict extends the plain one for the target over the
    margin target ∪ given to the whole parameter set
    {tau_L : L inside target ∪ given, L meets target}: every member must
    match its marginal counterpart, and every interaction meeting both
    ``target`` and ``collapsed`` must vanish.  The equivalent
    conditional-independence statement X_target ⊥ X_collapsed | X_given is
    evaluated as a second route and must agree.
    """
    a_axes = table.scheme.resolve_subset(target)
    b_axes = table.scheme.resolve_subset(given)
    c_axes = table.scheme.resolve_subset(collapsed)
    n = table.scheme.n
    if sorted(a_axes + b_axes + c_axes) != list(range(n)):
        raise SchemeError("target, given, collapsed must partition the variables")
    if not a_axes or not c_axes:
        raise SchemeError("target and collapsed must be nonempty")

    margin_axes = tuple(sorted(a_axes + b_axes))
    a_mask, c_mask = mask_of(a_axes), mask_of(c_axes)
    # the parameter set C_L = {L inside the margin : L meets target}, target
    # included, and the condition-(ii) interactions meeting A and C
    set_masks = [m for m in submasks(mask_of(margin_axes)) if m & a_mask]
    zero_masks = [m for m in range(1 << n) if m & a_mask and m & c_mask]
    plain, tau, eta = _routes(table, a_axes, margin_axes, tol, set_masks + zero_masks)

    names = table.scheme.subset_names
    set_gaps = {names(axes_of(m)): _max_abs(squeeze_mask(tau[m], m) - eta[m]) for m in set_masks}
    worst_gap = max(set_gaps.values())
    zero_set_max = max(_max_abs(tau[m]) for m in zero_masks)
    interaction_zero_ok = zero_set_max <= tol

    strict_by_tau = worst_gap <= tol and interaction_zero_ok
    ci = table.check_ci(a_axes, c_axes, b_axes)
    if strict_by_tau != ci.holds:
        raise RouteDisagreementError(
            f"interaction route (gap {worst_gap!r}, zero-set {zero_set_max!r}) and "
            f"CI route (deviation {ci.max_deviation!r}) disagree"
        )
    return replace(
        plain,
        collapsible=worst_gap <= tol,
        strict=strict_by_tau,
        set_gaps=set_gaps,
        zero_set_max=zero_set_max,
        interaction_zero_ok=interaction_zero_ok,
        ci=ci,
    )
