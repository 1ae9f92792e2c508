"""Reversal conditions for the linear transformation survival model.

The failure time follows K(T) = -bx X - by Y + W with K increasing and W
independent of the covariates, so the conditional survival function is

    S(t | x, y) = S_W(K(t) + bx x + by y).

The second covariate follows Y = mu + rho X + V with V independent of X.
The reversal of interest: residual survival P(T > t+s | T > t, x, y)
decreasing in x at every y, while the y-marginal residual survival
P(T > t+s | T > t, x) is increasing in x.  For by < 0 < bx this happens
for all t, s > 0 exactly when bx + by rho < 0, i.e. rho > bx / |by|.

``check_condition`` evaluates those parameter inequalities;
``verify_numeric`` probes the monotonicity pattern on a finite grid with
closed-form conditional ratios and quadrature marginals.  scipy is imported
by the functions that use it (the normal tail, the quadrature and the
tabulated K), so the condition check loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ModelError, loads, malformed, number, numbers

W_LAWS = ("std-normal", "gumbel", "logistic")

DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0)
DEFAULT_S_GRID = (0.25, 0.5, 1.0)
DEFAULT_X_PROBES = (-1.0, -0.5, 0.0, 0.5, 1.0)
DEFAULT_Y_PROBES = (-2.0, -1.0, 0.0, 1.0, 2.0)

_DIRECTION_EPS = 1e-11


def _log_survival(z: float, law: str) -> float:
    """ln of the baseline survival function at z."""
    if law == "std-normal":
        from scipy.special import log_ndtr

        return float(log_ndtr(-z))
    if law == "gumbel":  # S(z) = exp(-e^z); the extreme-value / hazard e^z case
        try:
            return -math.exp(z)
        except OverflowError:  # S(z) underflows to 0
            return -math.inf
    if law == "logistic":  # S(z) = 1 / (1 + e^z)
        return -(z + math.log1p(math.exp(-z))) if z > 0 else -math.log1p(math.exp(z))
    raise ModelError(f"unknown baseline law {law!r}; use one of {W_LAWS}")


def _survival_function(law: str):
    """The baseline survival function z -> S(z).  A quadrature calls it at
    every node, so scipy is imported when the function is made, not per value."""
    if law == "std-normal":
        from scipy.special import ndtr

        return lambda z: float(ndtr(-z))
    return lambda z: math.exp(_log_survival(z, law))


@dataclass(frozen=True, eq=False)
class SurvivalSpec:
    """Linear transformation survival model with a linear covariate link.

    ``k_transform`` is None for the identity, or a strictly increasing
    tabulation ((t_0, ..., t_m), (k_0, ..., k_m)) interpolated monotonically
    (PCHIP) between the knots and continued linearly outside them with the
    end segment's secant slope, so K stays strictly increasing everywhere.
    Only the standard normal second-covariate law is supported; the
    baseline W law may also be the Gumbel-type exp(-e^z) or the logistic
    1/(1+e^z) survival.
    """

    beta_x: float
    beta_y: float
    eta_mu: float = 0.0
    eta_rho: float = 0.0
    w_law: str = "std-normal"
    v_law: str = "std-normal"
    k_transform: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    _k_interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(v)
            for v in (self.beta_x, self.beta_y, self.eta_mu, self.eta_rho)
        ):
            raise ModelError("coefficients must be finite")
        if self.w_law not in W_LAWS:
            raise ModelError(f"unknown w_law {self.w_law!r}; use one of {W_LAWS}")
        if self.v_law != "std-normal":
            raise ModelError("only the standard normal v_law is supported")
        if self.k_transform is not None:
            ts, ks = self.k_transform
            ts = tuple(float(v) for v in ts)
            ks = tuple(float(v) for v in ks)
            if len(ts) != len(ks) or len(ts) < 2:
                raise ModelError("k_transform needs two aligned sequences, length >= 2")
            if any(b <= a for a, b in zip(ts, ts[1:])) or any(
                b <= a for a, b in zip(ks, ks[1:])
            ):
                raise ModelError("k_transform must be strictly increasing")
            from scipy.interpolate import PchipInterpolator

            object.__setattr__(self, "k_transform", (ts, ks))
            object.__setattr__(self, "_k_interp", PchipInterpolator(ts, ks))

    def k(self, t: float) -> float:
        if self._k_interp is None:
            return t
        ts, ks = self.k_transform
        if t < ts[0]:
            return ks[0] + (t - ts[0]) * (ks[1] - ks[0]) / (ts[1] - ts[0])
        if t > ts[-1]:
            return ks[-1] + (t - ts[-1]) * (ks[-1] - ks[-2]) / (ts[-1] - ts[-2])
        return float(self._k_interp(t))

    def eta(self, x: float) -> float:
        return self.eta_mu + self.eta_rho * x

    def to_json_dict(self) -> dict:
        out = {
            "beta_x": self.beta_x,
            "beta_y": self.beta_y,
            "eta": {"mu": self.eta_mu, "rho": self.eta_rho},
            "w_law": self.w_law,
            "v_law": self.v_law,
        }
        if self.k_transform is not None:
            out["k_transform"] = {
                "t": list(self.k_transform[0]),
                "k": list(self.k_transform[1]),
            }
        return out

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SurvivalSpec":
        with malformed(ModelError, "survival spec payload"):
            eta = payload.get("eta", {})
            kt = payload.get("k_transform")
            knots = tuple(tuple(numbers(kt, key).tolist()) for key in "tk") if kt else None
            return cls(
                beta_x=number(payload, "beta_x"),
                beta_y=number(payload, "beta_y"),
                eta_mu=number(eta, "mu", 0.0),
                eta_rho=number(eta, "rho", 0.0),
                w_law=payload.get("w_law", "std-normal"),
                v_law=payload.get("v_law", "std-normal"),
                k_transform=knots,
            )

    @classmethod
    def from_json(cls, text: str) -> "SurvivalSpec":
        return cls.from_json_dict(loads(text, ModelError, "survival spec payload"))


# -- conditional quantities (closed form) -----------------------------------


def conditional_survival(spec: SurvivalSpec, t: float, x: float, y: float) -> float:
    """P(T > t | X = x, Y = y)."""
    return _survival_function(spec.w_law)(spec.k(t) + spec.beta_x * x + spec.beta_y * y)


def conditional_ratio(
    spec: SurvivalSpec, t: float, s: float, x: float, y: float
) -> float:
    """Residual survival P(T > t+s | T > t, x, y), computed in log space."""
    shift = spec.beta_x * x + spec.beta_y * y
    log_ratio = (
        _log_survival(spec.k(t + s) + shift, spec.w_law)
        - _log_survival(spec.k(t) + shift, spec.w_law)
    )
    if math.isnan(log_ratio):  # ln S(t) is -inf: 0 / 0
        raise ModelError(f"P(T > {t} | x={x}, y={y}) vanished; grid point unusable")
    return math.exp(log_ratio)


# -- marginal quantities (quadrature over the second covariate) -------------


def marginal_survival(spec: SurvivalSpec, t: float, x: float) -> float:
    """P(T > t | X = x), integrating out Y ~ N(eta(x), 1)."""
    from scipy.integrate import quad

    survival = _survival_function(spec.w_law)
    center = spec.eta(x)
    kt = spec.k(t)

    def f(y: float) -> float:
        z = y - center
        return survival(kt + spec.beta_x * x + spec.beta_y * y) * math.exp(-0.5 * z * z)

    # with full_output, QUADPACK's message comes as a fourth item, only
    # when it did not converge
    val, _, _, *failed = quad(
        f, center - 10.0, center + 10.0, full_output=1, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    if failed:
        raise ModelError(f"the quadrature of P(T > {t} | x={x}) did not converge")
    return val / math.sqrt(2.0 * math.pi)


def marginal_ratio(spec: SurvivalSpec, t: float, s: float, x: float) -> float:
    """Residual survival P(T > t+s | T > t, x) after marginalizing Y."""
    denom = marginal_survival(spec, t, x)
    if denom <= 0.0:
        raise ModelError(f"P(T > {t} | x={x}) vanished; grid point unusable")
    return marginal_survival(spec, t + s, x) / denom


# -- hazards (finite differences) --------------------------------------------


def conditional_hazard(
    spec: SurvivalSpec, t: float, x: float, y: float, step: float = 1e-4
) -> float:
    """h(t | x, y) = -d/dt ln S(t | x, y), by central differencing."""
    shift = spec.beta_x * x + spec.beta_y * y
    lo = _log_survival(spec.k(t - step) + shift, spec.w_law)
    hi = _log_survival(spec.k(t + step) + shift, spec.w_law)
    return (lo - hi) / (2.0 * step)


def marginal_hazard(spec: SurvivalSpec, t: float, x: float, step: float = 1e-4) -> float:
    """h(t | x) by central differencing of the quadrature marginal."""
    lo = math.log(marginal_survival(spec, t - step, x))
    hi = math.log(marginal_survival(spec, t + step, x))
    return (lo - hi) / (2.0 * step)


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    """Directions of the residual survival in x at one (t, s) pair."""

    t: float
    s: float
    conditional_direction: str  # "down" | "up" | "mixed" (common across y probes)
    marginal_direction: str
    reversal: bool


@dataclass(frozen=True)
class SurvivalVerdict:
    """Parameter-condition flags plus optional grid confirmations.

    ``condition`` is the defining inequality (by < 0 < bx and
    bx + by rho < 0); ``gaussian_equiv`` is its algebraic restatement
    rho > bx / |by|.  The two always agree.  ``reversal_on_grid`` is set by
    the numeric verification: True when every probed (t, s) shows the
    conditional-down / marginal-up pattern.
    """

    condition: bool
    gaussian_equiv: bool
    probes: tuple[ProbeResult, ...] = ()
    reversal_on_grid: bool | None = None

    @property
    def matches_prediction(self) -> bool | None:
        if self.reversal_on_grid is None:
            return None
        return self.condition == self.reversal_on_grid


def check_condition(spec: SurvivalSpec) -> SurvivalVerdict:
    """Evaluate the reversal condition and its Gaussian-link restatement."""
    bx, by, rho = spec.beta_x, spec.beta_y, spec.eta_rho
    condition = (by < 0.0) and (bx > 0.0) and (bx + by * rho < 0.0)
    gaussian_equiv = (by < 0.0) and (bx > 0.0) and (rho > bx / abs(by) if by != 0.0 else False)
    return SurvivalVerdict(condition=condition, gaussian_equiv=gaussian_equiv)


def _direction(values: Sequence[float]) -> str:
    diffs = np.diff(np.asarray(values))
    if np.all(diffs < -_DIRECTION_EPS):
        return "down"
    if np.all(diffs > _DIRECTION_EPS):
        return "up"
    return "mixed"


def verify_numeric(
    spec: SurvivalSpec,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    s_grid: Sequence[float] = DEFAULT_S_GRID,
    x_probes: Sequence[float] = DEFAULT_X_PROBES,
    y_probes: Sequence[float] = DEFAULT_Y_PROBES,
) -> SurvivalVerdict:
    """Probe the reversal pattern on a finite grid of (t, s) pairs.

    At each pair, the conditional residual survival must move one way in x
    for every probed y (the common direction is reported; differing
    directions across y probes count as "mixed"), and the marginal residual
    survival direction is recorded alongside.  ``reversal_on_grid`` is True
    when every pair exhibits conditional-down with marginal-up.
    """
    if len(x_probes) < 2:
        raise ModelError("need at least two x probes")
    if any(t < 0 for t in t_grid) or any(s <= 0 for s in s_grid):
        raise ModelError("t probes must be >= 0 and s probes > 0")
    flags = check_condition(spec)
    probes = []
    for t in t_grid:
        for s in s_grid:
            dirs = {
                _direction([conditional_ratio(spec, t, s, x, y) for x in x_probes])
                for y in y_probes
            }
            cond_dir = dirs.pop() if len(dirs) == 1 else "mixed"
            marg_dir = _direction([marginal_ratio(spec, t, s, x) for x in x_probes])
            probes.append(
                ProbeResult(
                    t=t,
                    s=s,
                    conditional_direction=cond_dir,
                    marginal_direction=marg_dir,
                    reversal=(cond_dir == "down" and marg_dir == "up"),
                )
            )
    return SurvivalVerdict(
        condition=flags.condition,
        gaussian_equiv=flags.gaussian_equiv,
        probes=tuple(probes),
        reversal_on_grid=all(p.reversal for p in probes),
    )
