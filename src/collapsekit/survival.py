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
closed-form conditional ratios and quadrature marginals.  The reversal
is read on residual survival only; its hazard form is not computed.  The
normal tail comes from ``math.erfc``.  The marginal quadrature loads only
QUADPACK's compiled extension (``quadpack.quad``), on the first integral,
so neither ``scipy.integrate`` nor ``scipy.special`` loads.  A tabulated K
is piecewise-linear through its knots.  Directions are read on the logs of
the ratios, which do not underflow.  The condition check on a spec without
a tabulated K loads neither numpy nor scipy.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ModelError, loads, malformed, number, numbers

W_LAWS = ("std-normal", "gumbel", "logistic")

DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0)
DEFAULT_S_GRID = (0.25, 0.5, 1.0)
DEFAULT_X_PROBES = (-1.0, -0.5, 0.0, 0.5, 1.0)
DEFAULT_Y_PROBES = (-2.0, -1.0, 0.0, 1.0, 2.0)

_DIRECTION_EPS = 1e-11  # relative to a step's ends, see _direction
_LOG_FLAT = -math.log1p(-_DIRECTION_EPS)  # that bound on the log scale

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# above this z, ln P(N > z) comes from the asymptotic series: 0.5 erfc(z/sqrt 2)
# turns subnormal near z = 37.5 and loses its digits
_NORMAL_SERIES_FROM = 20.0


def _normal_sf(z: float) -> float:
    """P(N > z) for a standard normal N, with scipy.special.ndtr's z * sqrt(1/2).

    ``depfun._ndtr(-z)`` is the same tail with z / sqrt(2), which can land an
    ulp away; erfc magnifies that to 3e-13 relative near z = 37.  The
    dep-check bytes rest on that rounding, so depfun keeps its own.
    """
    return 0.5 * math.erfc(z * _SQRT1_2)


def _log_normal_sf(z: float) -> float:
    """ln P(N > z), accurate in both tails."""
    if z > _NORMAL_SERIES_FROM:
        # A&S 26.2.12: P(N > z) = phi(z)/z (1 - 1/z^2 + 1*3/z^4 - ...), summed
        # until a term no longer moves the total; at z > 20 that takes <= 10 terms
        q = 1.0 / (z * z)
        total, term, k = 1.0, -q, 1
        while total + term != total:
            total += term
            k += 1
            term *= -(2 * k - 1) * q
        return -0.5 * z * z - math.log(z) - _LOG_SQRT_2PI + math.log(total)
    if z < 0.0:
        return math.log1p(-_normal_sf(-z))
    return math.log(_normal_sf(z))


def _log_survival(z: float, law: str) -> float:
    """ln of the baseline survival function at z."""
    if law == "std-normal":
        return _log_normal_sf(z)
    if law == "gumbel":  # S(z) = exp(-e^z); the extreme-value / hazard e^z case
        try:
            return -math.exp(z)
        except OverflowError:  # S(z) underflows to 0
            return -math.inf
    # logistic, the last of W_LAWS (SurvivalSpec rejects any other): S(z) = 1 / (1 + e^z)
    return -(z + math.log1p(math.exp(-z))) if z > 0 else -math.log1p(math.exp(z))


def _survival_function(law: str):
    """The baseline survival function z -> S(z)."""
    if law == "std-normal":
        return _normal_sf
    return lambda z: math.exp(_log_survival(z, law))


@dataclass(frozen=True, eq=False)
class SurvivalSpec:
    """Linear transformation survival model with a linear covariate link.

    ``k_transform`` is None for the identity, or a strictly increasing
    tabulation ((t_0, ..., t_m), (k_0, ..., k_m)) of finite knots.  K is
    linear between the knots, with K(t_i) = k_i exactly, and continues
    linearly outside them with the end segment's secant slope, so K stays
    strictly increasing everywhere.  Only the standard normal
    second-covariate law is supported; the baseline W law may also be the
    Gumbel-type exp(-e^z) or the logistic 1/(1+e^z) survival.
    """

    beta_x: float
    beta_y: float
    eta_mu: float = 0.0
    eta_rho: float = 0.0
    w_law: str = "std-normal"
    v_law: str = "std-normal"
    k_transform: tuple[tuple[float, ...], tuple[float, ...]] | None = None

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
            ts, ks = (tuple(float(v) for v in seq) for seq in self.k_transform)
            if len(ts) != len(ks) or len(ts) < 2:
                raise ModelError("k_transform needs two aligned sequences, length >= 2")
            # before the order check: every comparison with a NaN is false
            if not all(map(math.isfinite, ts + ks)):
                raise ModelError("k_transform knots must be finite")
            if any(b <= a for a, b in zip(ts, ts[1:])) or any(
                b <= a for a, b in zip(ks, ks[1:])
            ):
                raise ModelError("k_transform must be strictly increasing")
            for t0, t1, k0, k1 in zip(ts, ts[1:], ks, ks[1:]):
                slope = (k1 - k0) / (t1 - t0)
                if not math.isfinite(slope):
                    raise ModelError(f"k_transform is too steep: its slope on [{t0!r}, {t1!r}] overflows")
                if slope == 0.0:  # K would be flat there: t1 - t0 overflowed, or the quotient underflowed
                    raise ModelError(f"k_transform is too flat: its slope on [{t0!r}, {t1!r}] underflows")
            object.__setattr__(self, "k_transform", (ts, ks))

    def k(self, t: float) -> float:
        if self.k_transform is None:
            return t
        ts, ks = self.k_transform
        # t >= t_m is measured from the last knot, so K(t_m) is k_m exactly
        if t >= ts[-1]:
            return ks[-1] + (t - ts[-1]) * (ks[-1] - ks[-2]) / (ts[-1] - ts[-2])
        i = bisect.bisect_right(ts, t, 1, len(ts) - 1)  # t < t_1 takes the first segment
        # rounding can carry a segment an ulp past its right knot: cap it there
        return min(ks[i - 1] + (t - ts[i - 1]) * (ks[i] - ks[i - 1]) / (ts[i] - ts[i - 1]), ks[i])

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


def log_conditional_ratio(
    spec: SurvivalSpec, t: float, s: float, x: float, y: float
) -> float:
    """ln of the residual survival P(T > t+s | T > t, x, y); -inf where it is 0."""
    shift = spec.beta_x * x + spec.beta_y * y
    log_ratio = (
        _log_survival(spec.k(t + s) + shift, spec.w_law)
        - _log_survival(spec.k(t) + shift, spec.w_law)
    )
    if math.isnan(log_ratio):  # ln S(t) is -inf: 0 / 0
        raise ModelError(f"P(T > {t} | x={x}, y={y}) vanished; grid point unusable")
    return log_ratio


# -- marginal quantities (quadrature over the second covariate) -------------


def marginal_survival(spec: SurvivalSpec, t: float, x: float) -> float:
    """P(T > t | X = x), integrating out Y ~ N(eta(x), 1)."""
    from . import quadpack

    survival = _survival_function(spec.w_law)
    center = spec.eta(x)
    shift = spec.k(t) + spec.beta_x * x
    beta_y = spec.beta_y

    def f(y: float) -> float:
        z = y - center
        return survival(shift + beta_y * y) * math.exp(-0.5 * z * z)

    val, converged = quadpack.quad(f, center - 10.0, center + 10.0, 1e-12, 1e-12, 200)
    if not converged:
        raise ModelError(f"the quadrature of P(T > {t} | x={x}) did not converge")
    return val / math.sqrt(2.0 * math.pi)


def marginal_ratio(spec: SurvivalSpec, t: float, s: float, x: float) -> float:
    """Residual survival P(T > t+s | T > t, x) after marginalizing Y."""
    return _residual(functools.partial(marginal_survival, spec), t, s, x)


def _residual(marginal: Callable[[float, float], float], t: float, s: float, x: float) -> float:
    """P(T > t+s | T > t, x) from marginal(u, x) = P(T > u | x)."""
    denom = marginal(t, x)
    if denom <= 0.0:
        raise ModelError(f"P(T > {t} | x={x}) vanished; grid point unusable")
    return marginal(t + s, x) / denom


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


def _direction(logs: Sequence[float]) -> str:
    """The way the values whose logs are ``logs`` move: "down" or "up" when
    every step moves that way by more than ``_DIRECTION_EPS`` of the larger
    of its two ends, else "mixed".  On logs that is a step below
    ln(1 - eps), or above -ln(1 - eps).  The rule is scale-free, so a tail
    far below 1, or one whose ratio underflows, still has a direction; a
    step between two -inf (two zeros) is flat."""
    steps = [b - a for a, b in zip(logs, logs[1:])]
    if all(d < -_LOG_FLAT for d in steps):
        return "down"
    if all(d > _LOG_FLAT for d in steps):
        return "up"
    return "mixed"


def _log(v: float) -> float:
    """ln v of a ratio v >= 0, -inf at 0."""
    return math.log(v) if v > 0.0 else -math.inf


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
    when every pair exhibits conditional-down with marginal-up.  Each
    distinct marginal P(T > u | x), u a probed t or t+s, is integrated once
    per call and shared by the pairs that read it.
    """
    if len(x_probes) < 2:
        raise ModelError("need at least two x probes")
    if any(t < 0 for t in t_grid) or any(s <= 0 for s in s_grid):
        raise ModelError("t probes must be >= 0 and s probes > 0")
    flags = check_condition(spec)
    marginals: dict[tuple[float, float], float] = {}

    def marginal(u: float, x: float) -> float:
        if (u, x) not in marginals:
            marginals[u, x] = marginal_survival(spec, u, x)
        return marginals[u, x]

    probes = []
    for t in t_grid:
        for s in s_grid:
            dirs = {
                _direction([log_conditional_ratio(spec, t, s, x, y) for x in x_probes])
                for y in y_probes
            }
            cond_dir = dirs.pop() if len(dirs) == 1 else "mixed"
            marg_dir = _direction([_log(_residual(marginal, t, s, x)) for x in x_probes])
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
