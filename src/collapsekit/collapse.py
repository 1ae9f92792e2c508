"""Collapsibility of interaction parameters onto a marginal table.

A table over variables 1..n is collapsible onto the margin B with respect
to tau_A (A inside B) when the A-interaction of the full table equals the
A-interaction of the marginal table over B.  Two equivalent routes are
computed; the residual decides, and the direct one must agree to rounding:

* direct: compare tau_A of the full table with eta_A of the marginal table;
* residual: form d(i_B) = ln p_B(i_B) - ltilde_B(i_B), average d over
  B-minus-Z for each Z inside A, and Möbius-invert; collapsibility is the
  vanishing of the resulting alternating sum.

Both routes are ``loglinear.mobius`` applied to ln p, to ln p_B and to d,
asked only for the interactions a verdict compares or reports; neither
table is decomposed in full.  ``_routes`` alone runs them.  ln p_B, d,
tau, eta and the log CI residual r all keep the table's own axes (the
collapsed ones as singletons), so one mask names a subset in every array,
and arrays are squeezed only where a verdict reports them.

Strict collapsibility (Whittemore 1978) extends the plain verdict for the
target over the margin target ∪ given: every interaction of the target's
parameter set must match its marginal counterpart and every interaction
linking the target to the collapsed variables must vanish, which holds
exactly when X_A is conditionally independent of the collapsed variables
given the rest of the margin.  Both conditions decide ``strict`` at ``tol``;
the log CI residual bounds the second (see RouteDisagreementError), and the
exact CI check (``ci``, 1e-9 on the probability scale) is only reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Mapping

import numpy as np

from .errors import RouteDisagreementError, SchemeError
from .loglinear import DEFAULT_TAU_TOL, log_cells, mobius, squeeze_mask
from .subsets import axes_of, mask_of, submasks
from .tables import CiVerdict, ContingencyTable, SubsetSpec

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class CollapseVerdict:
    """Verdict of a (strict) collapsibility check.

    ``max_residual`` is the worst absolute value of the residual alternating
    sum, which decides ``collapsible``; ``direct_gap`` is max |tau_A - eta_A|
    from the direct route, within rounding of it.  For strict checks,
    ``zero_set_max`` is the largest interaction linking the target to the
    collapsed variables; ``collapsible`` then tests the worst of the
    ``set_gaps``, the per-parameter gaps over the target set, ``strict``
    tests both, and ``ci`` is the exact conditional-independence check,
    reported.
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
    ci: CiVerdict | None = None


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def _routes(
    table: ContingencyTable, a_axes: tuple[int, ...], b_axes: tuple[int, ...], tol: float,
    masks: Collection[int] = (),
) -> tuple[CollapseVerdict, dict[int, np.ndarray], dict[int, np.ndarray], np.ndarray, np.ndarray]:
    """The plain verdict for tau_A over the margin B, by both routes, and
    tau and eta at A and at each of ``masks`` (eta for the masks inside B
    only), ln p and ln p_B, every array keepdims over the table's axes."""
    logp = log_cells(table)
    c_axes = tuple(x for x in range(logp.ndim) if x not in b_axes)
    log_marg = np.log(table.cells.sum(axis=c_axes, keepdims=True))
    d = log_marg - logp.mean(axis=c_axes, keepdims=True)
    a_mask, b_mask = mask_of(a_axes), mask_of(b_axes)
    wanted = list(dict.fromkeys((a_mask, *masks)))
    tau = mobius(logp, wanted)
    eta = mobius(log_marg, [m for m in wanted if not m & ~b_mask])
    max_residual = _max_abs(mobius(d, (a_mask,))[a_mask])
    direct_gap = _max_abs(tau[a_mask] - eta[a_mask])
    # both are alternating sums of 2^|A| means of logs no larger than max|ln p|
    if abs(max_residual - direct_gap) > 16 * 2 ** len(a_axes) * _EPS * _max_abs(logp):
        raise RouteDisagreementError(
            f"residual route ({max_residual!r}) and direct route ({direct_gap!r}) "
            "differ by more than rounding"
        )
    plain = CollapseVerdict(
        target=table.scheme.subset_names(a_axes),
        margin=table.scheme.subset_names(b_axes),
        collapsible=max_residual <= tol,
        max_residual=max_residual,
        direct_gap=direct_gap,
        tau_full=squeeze_mask(tau[a_mask], a_mask),
        eta_marginal=squeeze_mask(eta[a_mask], a_mask),
        tol=tol,
    )
    return plain, tau, eta, logp, log_marg


def check_collapsibility(
    table: ContingencyTable, target: SubsetSpec, margin: SubsetSpec, tol: float = DEFAULT_TAU_TOL
) -> CollapseVerdict:
    """Is the table collapsible onto ``margin`` with respect to tau_target?

    ``target`` must lie inside ``margin``, and ``margin`` must be a proper
    subset of the variables (otherwise there is nothing to collapse over).
    The residual route decides; raises RouteDisagreementError if the direct
    tau-versus-eta route's gap differs from it by more than rounding.
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
    empty).  ``collapsible`` holds when every member of the parameter set
    {tau_L : L inside target ∪ given, L meets target} is within ``tol`` of
    its marginal counterpart; ``strict`` holds when, besides, every
    interaction meeting both ``target`` and ``collapsed`` is within ``tol``
    of zero.
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
    plain, tau, eta, logp, log_ab = _routes(table, a_axes, margin_axes, tol, set_masks + zero_masks)

    names = table.scheme.subset_names
    set_gaps = {names(axes_of(m)): _max_abs(tau[m] - eta[m]) for m in set_masks}
    zero_set_max = max(_max_abs(tau[m]) for m in zero_masks)
    # on the zero set tau_L(ln p) = tau_L(r), r = ln p + ln p_B - ln p_AB - ln p_BC (B given),
    # and I - M_a, of max norm 2(1 - 1/m_a) >= 1, acts on each a in L: |tau_L| <= K max|r|
    p_bc = table.cells.sum(axis=a_axes, keepdims=True)
    log_b = np.log(p_bc.sum(axis=c_axes, keepdims=True))
    r = logp + log_b - log_ab - np.log(p_bc)
    k, r_max = math.prod(2 - 2 / m for m in logp.shape), _max_abs(r)
    if zero_set_max > k * r_max + 2**n * _EPS * _max_abs(logp):
        raise RouteDisagreementError(f"zero set {zero_set_max!r} over {k!r} times max|r| {r_max!r}")
    collapsible = max(set_gaps.values()) <= tol
    return replace(
        plain,
        collapsible=collapsible,
        strict=collapsible and zero_set_max <= tol,
        set_gaps=set_gaps,
        zero_set_max=zero_set_max,
        ci=table.check_ci(a_axes, c_axes, b_axes),
    )
