"""Directional association relations and reversal detection on finite joints.

Works on a finite joint distribution of (Y, X, W) with numeric support
points.  Four directional relations between Y and X are supported:

* r1: stochastic ordering, P(Y > y | X = x) monotone in x for every y;
* r2: mean ordering, E(Y | X = x) monotone in x;
* r3: quadrant dependence, F(y, x) - F_Y(y) F_X(x) one-signed everywhere;
* r4: covariance sign, Cov(X, Y) > 0 (or < 0).

r1-r3 are evaluated weakly by default; "strict" additionally requires at
least one step (or one cell for r3) beyond tolerance.  r4 is inherently
strict.  An association reversal holds when the relation holds in one
direction conditionally on every w while the marginal relation holds
strictly in the opposite direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DistributionError, ModelError, loads, malformed, numbers
from .tables import PROB_SUM_TOL, ci_deviation

RELATIONS = ("r1", "r2", "r3", "r4")

DEFAULT_TOL = 1e-9


def _check_levels(levels: Sequence[float], name: str) -> tuple[float, ...]:
    with malformed(DistributionError, f"{name} support points"):
        arr = tuple(float(v) for v in levels)
    if not all(math.isfinite(v) for v in arr):
        raise DistributionError(f"{name} support points must be finite")
    if len(arr) < 2:
        raise DistributionError(f"{name} needs at least 2 support points")
    if any(b <= a for a, b in zip(arr, arr[1:])):
        raise DistributionError(f"{name} support points must be strictly increasing")
    return arr


def _check_joint(p: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only float copy of ``p``: finite, strictly positive, summing to 1."""
    arr = np.array(p, dtype=float)
    if arr.shape != shape:
        raise DistributionError(
            f"probability array shape {arr.shape} does not match supports {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DistributionError("probabilities must be finite")
    if np.any(arr <= 0.0):
        raise DistributionError("probabilities must be strictly positive")
    if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
        raise DistributionError("probabilities must sum to 1")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BivariateJoint:
    """Positive finite joint distribution of (Y, X); p is indexed [y, x]."""

    y_levels: tuple[float, ...]
    x_levels: tuple[float, ...]
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_levels", _check_levels(self.y_levels, "Y"))
        object.__setattr__(self, "x_levels", _check_levels(self.x_levels, "X"))
        shape = (len(self.y_levels), len(self.x_levels))
        object.__setattr__(self, "p", _check_joint(self.p, shape))

    def swapped(self) -> "BivariateJoint":
        return BivariateJoint(self.x_levels, self.y_levels, self.p.T)


@dataclass(frozen=True, eq=False)
class FiniteJoint:
    """Positive finite joint distribution of (Y, X, W); p is indexed [y, x, w]."""

    y_levels: tuple[float, ...]
    x_levels: tuple[float, ...]
    w_levels: tuple[float, ...]
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_levels", _check_levels(self.y_levels, "Y"))
        object.__setattr__(self, "x_levels", _check_levels(self.x_levels, "X"))
        object.__setattr__(self, "w_levels", _check_levels(self.w_levels, "W"))
        shape = (len(self.y_levels), len(self.x_levels), len(self.w_levels))
        object.__setattr__(self, "p", _check_joint(self.p, shape))

    def marginal_yx(self) -> BivariateJoint:
        return BivariateJoint(self.y_levels, self.x_levels, self.p.sum(axis=2))

    def conditional_yx(self, w_index: int) -> BivariateJoint:
        sl = self.p[:, :, w_index]
        return BivariateJoint(self.y_levels, self.x_levels, sl / sl.sum())

    def to_json_dict(self) -> dict:
        return {
            "levels": {
                "y": list(self.y_levels),
                "x": list(self.x_levels),
                "w": list(self.w_levels),
            },
            "p": [float(v) for v in self.p.reshape(-1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "FiniteJoint":
        with malformed(DistributionError, "joint payload"):
            lv = payload["levels"]
            y, x, w = (tuple(numbers(lv, key).tolist()) for key in "yxw")
            p = numbers(payload, "p").reshape(len(y), len(x), len(w))
            return cls(y, x, w, p)

    @classmethod
    def from_json(cls, text: str) -> "FiniteJoint":
        return cls.from_json_dict(loads(text, DistributionError, "joint payload"))


def _as_bivariate(dist: "FiniteJoint | BivariateJoint") -> BivariateJoint:
    if isinstance(dist, FiniteJoint):
        return dist.marginal_yx()
    return dist


def _r1_steps(b: BivariateJoint) -> np.ndarray:
    p_x = b.p.sum(axis=0)
    cond = b.p / p_x  # p(y | x)
    surv = cond[::-1].cumsum(axis=0)[::-1]  # P(Y >= y_k | x)
    exceed = surv[1:, :]  # P(Y > y_k | x) for thresholds y_0..y_{K-2}
    return np.diff(exceed, axis=1).reshape(-1)


def _r2_steps(b: BivariateJoint) -> np.ndarray:
    p_x = b.p.sum(axis=0)
    means = (np.asarray(b.y_levels)[:, None] * b.p).sum(axis=0) / p_x
    return np.diff(means)


def _r3_cells(b: BivariateJoint) -> np.ndarray:
    cdf = b.p.cumsum(axis=0).cumsum(axis=1)
    f_y = cdf[:, -1]
    f_x = cdf[-1, :]
    return (cdf - np.outer(f_y, f_x)).reshape(-1)


def covariance(dist: "FiniteJoint | BivariateJoint") -> float:
    """Cov(X, Y) of the (marginal) bivariate distribution."""
    b = _as_bivariate(dist)
    y = np.asarray(b.y_levels)[:, None]
    x = np.asarray(b.x_levels)[None, :]
    exy = float((y * x * b.p).sum())
    ey = float((y * b.p).sum())
    ex = float((x * b.p).sum())
    return exy - ey * ex


def holds_relation(
    dist: "FiniteJoint | BivariateJoint",
    relation: str,
    direction: str = "up",
    tol: float = DEFAULT_TOL,
    strict: bool = False,
) -> bool:
    """Does the directional relation hold for (Y, X)?

    A FiniteJoint argument is marginalized over W first; pass a conditional
    slice to evaluate within a stratum.  ``strict`` requires at least one
    step/cell beyond tolerance for r1-r3 and is implied for r4.
    """
    rel = relation.lower()
    if rel not in RELATIONS:
        raise DistributionError(f"unknown relation {relation!r}; use one of {RELATIONS}")
    if direction not in ("up", "down"):
        raise DistributionError("direction must be 'up' or 'down'")
    b = _as_bivariate(dist)
    sign = 1.0 if direction == "up" else -1.0

    if rel == "r4":
        return sign * covariance(b) > tol
    if rel == "r1":
        vals = sign * _r1_steps(b)
    elif rel == "r2":
        vals = sign * _r2_steps(b)
    else:
        vals = sign * _r3_cells(b)
    weak = bool(np.all(vals >= -tol))
    if not strict:
        return weak
    return weak and bool(np.any(vals > tol))


@dataclass(frozen=True)
class LinkageProfile:
    """The four protective independence conditions for a covariate W.

    ``doubly_linked`` is True exactly when none of the conditions holds,
    i.e. W is associated with both Y and X marginally and conditionally.
    """

    w_indep_y: bool
    w_indep_x: bool
    w_indep_y_given_x: bool
    w_indep_x_given_y: bool
    deviations: tuple[float, float, float, float]
    tol: float

    @property
    def doubly_linked(self) -> bool:
        return not (
            self.w_indep_y
            or self.w_indep_x
            or self.w_indep_y_given_x
            or self.w_indep_x_given_y
        )


def double_linkage(dist: FiniteJoint, tol: float = DEFAULT_TOL) -> LinkageProfile:
    """Evaluate W ⊥ Y, W ⊥ X, W ⊥ Y | X, W ⊥ X | Y by exact factorization."""
    p = dist.p  # axes: y=0, x=1, w=2
    dev_wy, _ = ci_deviation(p.sum(axis=1), (1,), (0,))  # over (y, w)
    dev_wx, _ = ci_deviation(p.sum(axis=0), (1,), (0,))  # over (x, w)
    dev_wy_x, _ = ci_deviation(p, (2,), (0,), (1,))
    dev_wx_y, _ = ci_deviation(p, (2,), (1,), (0,))
    devs = (dev_wy, dev_wx, dev_wy_x, dev_wx_y)
    return LinkageProfile(
        w_indep_y=dev_wy <= tol,
        w_indep_x=dev_wx <= tol,
        w_indep_y_given_x=dev_wy_x <= tol,
        w_indep_x_given_y=dev_wx_y <= tol,
        deviations=devs,
        tol=tol,
    )


@dataclass(frozen=True)
class AssocReversalReport:
    """Conditional-versus-marginal direction of an association relation."""

    relation: str
    conditional_up: bool
    conditional_down: bool
    marginal_up_strict: bool
    marginal_down_strict: bool
    per_w: tuple[tuple[bool, bool], ...]  # (holds up, holds down) at each w
    reversal: bool
    tol: float


def detect_assoc_reversal(
    dist: FiniteJoint, relation: str, tol: float = DEFAULT_TOL
) -> AssocReversalReport:
    """Reversal check: one weak direction in every stratum, strictly the other marginally."""
    per_w = []
    for k in range(len(dist.w_levels)):
        cond = dist.conditional_yx(k)
        per_w.append(
            (
                holds_relation(cond, relation, "up", tol),
                holds_relation(cond, relation, "down", tol),
            )
        )
    cond_up = all(u for u, _ in per_w)
    cond_down = all(d for _, d in per_w)
    marg = dist.marginal_yx()
    marg_up = holds_relation(marg, relation, "up", tol, strict=True)
    marg_down = holds_relation(marg, relation, "down", tol, strict=True)
    reversal = (cond_up and marg_down) or (cond_down and marg_up)
    return AssocReversalReport(
        relation=relation.lower(),
        conditional_up=cond_up,
        conditional_down=cond_down,
        marginal_up_strict=marg_up,
        marginal_down_strict=marg_down,
        per_w=tuple(per_w),
        reversal=reversal,
        tol=tol,
    )


@dataclass(frozen=True)
class LinearReversalReport:
    """Covariance bookkeeping for the two-regressor linear conditional mean.

    For E(Y|X,W) = b0 + b1 X + b2 W with b1 <= 0, the marginal covariance
    is Cov(Y,X) = b1 Var(X) + eta with eta = b2 Cov(X,W); a positive
    reversal needs b1 strictly negative yet Cov(Y,X) strictly positive.
    ``boundary`` flags the degenerate b1 = 0 case, which never counts as a
    reversal.
    """

    beta1: float
    beta2: float
    cov_xw: float
    eta: float
    cov_yx: float
    var_y: float
    reversal: bool
    boundary: bool


def linear_r4_reversal(
    beta1: float,
    beta2: float,
    cov_xw: float,
    var_x: float,
    var_w: float,
    var_eps: float,
) -> LinearReversalReport:
    """Covariance-sign reversal verdict for the linear two-regressor model."""
    if var_x <= 0.0 or var_w <= 0.0 or var_eps <= 0.0:
        raise ModelError("var_x, var_w, var_eps must all be positive")
    if beta1 > 0.0:
        raise ModelError("the conditional slope beta1 must be <= 0 for this check")
    if cov_xw * cov_xw > var_x * var_w * (1.0 + 1e-12):
        raise ModelError("cov_xw is infeasible for the given variances")
    eta = beta2 * cov_xw
    cov_yx = beta1 * var_x + eta
    var_y = (
        beta1 * beta1 * var_x
        + beta2 * beta2 * var_w
        + 2.0 * beta1 * beta2 * cov_xw
        + var_eps
    )
    boundary = beta1 == 0.0
    return LinearReversalReport(
        beta1=beta1,
        beta2=beta2,
        cov_xw=cov_xw,
        eta=eta,
        cov_yx=cov_yx,
        var_y=var_y,
        reversal=(beta1 < 0.0) and (cov_yx > 0.0),
        boundary=boundary,
    )
