"""Directional association relations and reversal detection on finite joints.

Works on a finite joint distribution of (Y, X, W) with numeric support
points, validated once when ``FiniteJoint`` reads it.  A relation then reads
a plain (Y, X) array of that joint: the marginal ``p.sum(axis=2)`` or one
stratum of W normalized to sum 1.  Four directional relations between Y and
X are supported:

* r1: stochastic ordering, P(Y > y | X = x) monotone in x for every y;
* r2: mean ordering, E(Y | X = x) monotone in x;
* r3: quadrant dependence, F(y, x) - F_Y(y) F_X(x) one-signed everywhere;
* r4: covariance sign, Cov(X, Y) > 0 (or < 0).

r1-r3 hold weakly: no step (or cell, for r3) is beyond tolerance on the
wrong side; r4 is inherently strict.  An association reversal holds when
the relation holds in one direction conditionally on every w while the
marginal relation holds strictly (also one step or cell beyond tolerance)
in the opposite direction.  "Down" reads the negated values of "up".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DistributionError, malformed, numbers
from .tables import ci_deviation, probabilities

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
        object.__setattr__(self, "p", probabilities(self.p, DistributionError, "joint", shape))

    @classmethod
    def from_json(cls, text: str) -> "FiniteJoint":
        with malformed(DistributionError, "joint payload", RecursionError):
            payload = json.loads(text)
            lv = payload["levels"]
            y, x, w = (tuple(numbers(lv, key).tolist()) for key in "yxw")
            p = numbers(payload, "p").reshape(len(y), len(x), len(w))
            return cls(y, x, w, p)


def _values(dist: FiniteJoint, p: np.ndarray, rel: str) -> np.ndarray:
    """The values whose signs decide ``rel`` "up" on ``p``, a (Y, X) array
    over ``dist``'s levels: r1's steps in x of P(Y > y | x), r2's steps of
    E(Y | x), r3's cells of F(y, x) - F_Y(y) F_X(x), and r4's Cov(X, Y)."""
    y = np.asarray(dist.y_levels)[:, None]
    if rel == "r4":
        x = np.asarray(dist.x_levels)[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            exy = float((y * x * p).sum())
            ey = float((y * p).sum())
            ex = float((x * p).sum())
        cov = exy - ey * ex
        if not math.isfinite(cov):
            raise DistributionError("Cov(X, Y) overflows on these support points")
        return np.array([cov])
    if rel == "r3":
        cdf = p.cumsum(axis=0).cumsum(axis=1)
        return (cdf - np.outer(cdf[:, -1], cdf[-1, :])).reshape(-1)
    p_x = p.sum(axis=0)
    if rel == "r1":
        surv = (p / p_x)[::-1].cumsum(axis=0)[::-1]  # P(Y >= y_k | x)
        return np.diff(surv[1:, :], axis=1).reshape(-1)  # thresholds y_0..y_{K-2}
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff((y * p).sum(axis=0) / p_x)
    if not np.all(np.isfinite(steps)):
        raise DistributionError("E(Y | X) steps overflow on these support points")
    return steps


def _holds(vals: np.ndarray, rel: str, tol: float) -> bool:
    """``rel`` "up" on its values: weakly for r1-r3, r4's one value above ``tol``."""
    return bool(vals[0] > tol) if rel == "r4" else bool(np.all(vals >= -tol))


def _relation(relation: str) -> str:
    rel = relation.lower()
    if rel not in RELATIONS:
        raise DistributionError(f"unknown relation {relation!r}; use one of {RELATIONS}")
    return rel


def covariance(dist: FiniteJoint) -> float:
    """Cov(X, Y) of the marginal (Y, X) distribution."""
    return float(_values(dist, dist.p.sum(axis=2), "r4")[0])


def holds_relation(
    dist: FiniteJoint, relation: str, direction: str = "up", tol: float = DEFAULT_TOL
) -> bool:
    """Does the directional relation hold for the marginal (Y, X) distribution?

    Each stratum's reading is in ``detect_assoc_reversal(...).per_w``.
    """
    rel = _relation(relation)
    if direction not in ("up", "down"):
        raise DistributionError("direction must be 'up' or 'down'")
    vals = _values(dist, dist.p.sum(axis=2), rel)
    return _holds(vals if direction == "up" else -vals, rel, tol)


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
    rel = _relation(relation)
    per_w = []
    for k in range(len(dist.w_levels)):
        sl = dist.p[:, :, k]
        vals = _values(dist, sl / sl.sum(), rel)
        per_w.append((_holds(vals, rel, tol), _holds(-vals, rel, tol)))
    cond_up = all(u for u, _ in per_w)
    cond_down = all(d for _, d in per_w)
    vals = _values(dist, dist.p.sum(axis=2), rel)
    marg_up = _holds(vals, rel, tol) and bool(np.any(vals > tol))
    marg_down = _holds(-vals, rel, tol) and bool(np.any(vals < -tol))
    reversal = (cond_up and marg_down) or (cond_down and marg_up)
    return AssocReversalReport(
        relation=rel,
        conditional_up=cond_up,
        conditional_down=cond_down,
        marginal_up_strict=marg_up,
        marginal_down_strict=marg_down,
        per_w=tuple(per_w),
        reversal=reversal,
        tol=tol,
    )
