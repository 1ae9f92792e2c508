"""Collapsibility audits for stratified linear-regression summaries.

A summary holds per-stratum moments of (Y, X) over a discrete background
variable: stratum weight pi, intercept alpha, slope beta, mean and variance
of X, and the conditional variance of Y.  The conditional mean of Y and
the conditional covariance are always derived (mu_y = alpha + beta mu_x,
s_yx = beta s_xx), never supplied, so summaries cannot be internally
inconsistent.

The marginal slope is the law-of-total-covariance value

    beta_marg = (E[s_yx] + Cov(mu_y, mu_x)) / (E[s_xx] + Var(mu_x)),

with all expectations over the stratum weights.  Collapsibility verdicts
are decided by one route; an equivalent second route must agree to rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DistributionError, RouteDisagreementError, array, loads, malformed, number
from .tables import probabilities

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_SUBNORMAL = math.ulp(0.0)  # 2^-1074, the smallest positive float


@dataclass(frozen=True)
class RegressionStratum:
    """Moments of one background level: weight, line, and X/Y spread."""

    pi: float
    alpha: float
    beta: float
    mu_x: float
    s_xx: float
    s_yy: float
    label: str | None = None

    @property
    def mu_y(self) -> float:
        return self.alpha + self.beta * self.mu_x

    @property
    def s_yx(self) -> float:
        return self.beta * self.s_xx


def _label(value) -> str | None:
    """A stratum label read from JSON: absent, or a string that is valid Unicode."""
    if value is not None:
        if not isinstance(value, str):
            raise TypeError(f"label must be a string, not {type(value).__name__}")
        value.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return value


@dataclass(frozen=True, eq=False)
class StratifiedRegressionSummary:
    """Validated tuple of strata; weights sum to one, variances positive."""

    strata: tuple[RegressionStratum, ...]

    def __post_init__(self) -> None:
        strata = tuple(self.strata)
        object.__setattr__(self, "strata", strata)
        if not strata:
            raise DistributionError("summary needs at least one stratum")
        # NaN passes every sign and tolerance test below, so reject it first
        for s in strata:
            if not all(
                math.isfinite(v) for v in (s.pi, s.alpha, s.beta, s.mu_x, s.s_xx, s.s_yy)
            ):
                raise DistributionError("stratum moments must be finite")
        probabilities([s.pi for s in strata], DistributionError, "stratum weights")
        for s in strata:
            if s.s_xx <= 0.0 or s.s_yy <= 0.0:
                raise DistributionError("variances must be positive")
            # realizability: conditional correlation must not exceed 1
            if s.beta * s.beta * s.s_xx > s.s_yy * (1.0 + 1e-12):
                raise DistributionError(
                    "s_yy smaller than beta^2 s_xx: no joint distribution has these moments"
                )

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            k: np.array([getattr(s, k) for s in self.strata])
            for k in ("pi", "alpha", "beta", "mu_x", "mu_y", "s_xx", "s_yy", "s_yx")
        }

    def to_json_dict(self) -> dict:
        return {
            "levels": [
                {
                    "pi": s.pi,
                    "alpha": s.alpha,
                    "beta": s.beta,
                    "mu_x": s.mu_x,
                    "s_xx": s.s_xx,
                    "s_yy": s.s_yy,
                    **({"label": s.label} if s.label is not None else {}),
                }
                for s in self.strata
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "StratifiedRegressionSummary":
        with malformed(DistributionError, "summary payload"):
            strata = tuple(
                RegressionStratum(
                    pi=number(lv, "pi"),
                    alpha=number(lv, "alpha"),
                    beta=number(lv, "beta"),
                    mu_x=number(lv, "mu_x"),
                    s_xx=number(lv, "s_xx"),
                    s_yy=number(lv, "s_yy"),
                    label=_label(lv.get("label")),
                )
                for lv in array(payload, "levels")
            )
            return cls(strata)

    @classmethod
    def from_json(cls, text: str) -> "StratifiedRegressionSummary":
        return cls.from_json_dict(loads(text, DistributionError, "summary payload"))


def _wmean(pi: np.ndarray, v: np.ndarray) -> float:
    return float((pi * v).sum())


def _wcov(pi: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    return _wmean(pi, u * v) - _wmean(pi, u) * _wmean(pi, v)


def _wsize(pi: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """E|uv| + E|u| E|v|: the size of the products ``_wcov(pi, u, v)`` sums."""
    return _wmean(pi, np.abs(u * v)) + _wmean(pi, np.abs(u)) * _wmean(pi, np.abs(v))


def _marginal_line(a: dict[str, np.ndarray]) -> tuple[float, float, float]:
    """Marginal slope, intercept and Var(X) = E[s_xx] + Var(mu_x), the
    slope's denominator, from the stratum arrays."""
    pi = a["pi"]
    var_x = _wmean(pi, a["s_xx"]) + _wcov(pi, a["mu_x"], a["mu_x"])
    if var_x <= 0.0:
        raise DistributionError("marginal variance of X is not positive")
    beta = (_wmean(pi, a["s_yx"]) + _wcov(pi, a["mu_y"], a["mu_x"])) / var_x
    return beta, _wmean(pi, a["mu_y"]) - beta * _wmean(pi, a["mu_x"]), var_x


@dataclass(frozen=True)
class RegressVerdict:
    """Outcome of a collapsibility or average-collapsibility check.

    ``lhs``/``rhs`` are the two sides of the deciding identity (the
    intercept/mean covariance against zero in the parallel case; the
    slope-mean times Var(mu_x) against the two covariances in the
    random-coefficient case).  ``beta_gap`` is the direct route
    |beta_marg - reference|.  The identity gap over the marginal Var(X)
    equals the beta gap, and that quotient alone is compared with ``tol``.
    """

    mode: str  # "parallel" | "average"
    beta_marginal: float
    alpha_marginal: float
    beta_reference: float
    collapsible: bool | None
    a_collapsible: bool
    lhs: float
    rhs: float
    identity_gap: float
    beta_gap: float
    tol: float


def _decide(
    mode: str,
    a: dict[str, np.ndarray],
    lhs: float,
    rhs: float,
    reference: float,
    tol: float,
) -> RegressVerdict:
    """Decide on the slope scale and build the verdict.

    Route one, |lhs - rhs| / Var(X), decides; route two, |beta_marg -
    reference|, must lie within 16 eps (M / Var(X) + |reference|) of it.
    M sizes the products both sum: E[s_yx], Cov(mu_y, mu_x) and Var(X)
    times the slope, which bound the identity's too (alpha mu_x =
    mu_y mu_x - beta mu_x^2, beta s_xx = s_yx), hence the 2 and E|beta|.
    A product that underflows errs by up to 2^-1075 whatever its size, and
    on its way to either route such an error is multiplied by at most two
    moments, each under B = 1 + the largest moment; so the bound adds
    16 k 2^-1074 (B^2 / Var(X) + 1) over the k strata.
    """
    beta_marg, alpha_marg, var_x = _marginal_line(a)
    if not all(map(math.isfinite, (lhs, rhs, beta_marg, alpha_marg, var_x))):
        raise DistributionError("the summary's moments overflow in the marginal line or the identity")
    scaled = abs(lhs - rhs) / var_x
    by_identity = scaled <= tol
    pi = a["pi"]
    size = 2 * (_wmean(pi, np.abs(a["s_yx"])) + _wsize(pi, a["mu_y"], a["mu_x"])) + (
        abs(beta_marg) + _wmean(pi, np.abs(a["beta"]))
    ) * (_wmean(pi, a["s_xx"]) + _wsize(pi, a["mu_x"], a["mu_x"]))
    big = 1 + max(float(np.max(np.abs(v))) for v in a.values())
    underflow = len(pi) * _SUBNORMAL * (big * big / var_x + 1)
    if abs(scaled - abs(beta_marg - reference)) > 16 * (_EPS * (size / var_x + abs(reference)) + underflow):
        raise RouteDisagreementError(
            f"identity gap / Var(X) {scaled!r} and beta gap {beta_marg - reference!r} "
            "differ by more than rounding"
        )
    return RegressVerdict(
        mode=mode,
        beta_marginal=beta_marg,
        alpha_marginal=alpha_marg,
        beta_reference=reference,
        collapsible=by_identity if mode == "parallel" else None,
        a_collapsible=by_identity,
        lhs=lhs,
        rhs=rhs,
        identity_gap=abs(lhs - rhs),
        beta_gap=abs(beta_marg - reference),
        tol=tol,
    )


def is_parallel(summary: StratifiedRegressionSummary) -> bool:
    """Do the strata share one slope, exactly?"""
    return len({s.beta for s in summary.strata}) == 1


# a moment that overflows comes out inf or nan, which ``_decide`` rejects
@np.errstate(over="ignore", invalid="ignore")
def check_parallel_collapsibility(
    summary: StratifiedRegressionSummary, tol: float = DEFAULT_TOL
) -> RegressVerdict:
    """Collapsibility of the common slope of a parallel summary.

    All strata must share one slope exactly (``is_parallel``), since both
    routes assume it; a summary with any spread is an average one.  Route
    one tests Cov(alpha, mu_x) / Var(X) = 0 over the strata; route two
    compares the marginal slope with the common slope directly.
    """
    if not is_parallel(summary):
        raise DistributionError("strata have different slopes; not a parallel summary")
    a = summary.arrays()
    # + 0.0 turns a -0.0 slope into 0.0: ``is_parallel`` counts them as one
    # slope, so the reported one must not depend on the strata's order
    beta = float(a["beta"][0]) + 0.0
    return _decide("parallel", a, _wcov(a["pi"], a["alpha"], a["mu_x"]), 0.0, beta, tol)


@np.errstate(over="ignore", invalid="ignore")  # as check_parallel_collapsibility
def check_a_collapsibility(
    summary: StratifiedRegressionSummary, tol: float = DEFAULT_TOL
) -> RegressVerdict:
    """Average collapsibility of a (possibly non-parallel) summary.

    Route one tests the identity
    E[beta] Var(mu_x) = Cov(beta, s_xx) + Cov(mu_y, mu_x), its gap divided
    by Var(X); route two compares the marginal slope against E[beta]
    directly.
    """
    a = summary.arrays()
    e_beta = _wmean(a["pi"], a["beta"])
    lhs = e_beta * _wcov(a["pi"], a["mu_x"], a["mu_x"])
    rhs = _wcov(a["pi"], a["beta"], a["s_xx"]) + _wcov(a["pi"], a["mu_y"], a["mu_x"])
    return _decide("average", a, lhs, rhs, e_beta, tol)


# a moment that overflows comes out inf or nan, which the summary rejects
@np.errstate(over="ignore", invalid="ignore")
def summary_from_records(
    y: Sequence[float], x: Sequence[float], a: Sequence
) -> StratifiedRegressionSummary:
    """Per-stratum sample moments from raw (y, x, a) records.

    ``y`` and ``x`` are float arrays, taken as they are (as
    ``cli.read_records`` returns them), or sequences of numbers.  Uses the
    population-variance convention (divisor N) so the moments are exactly
    those of the empirical distribution.  Stratum labels are hashable and
    keep their first-appearance order; each stratum needs at least two
    distinct x values.
    """
    ya = np.asarray(y, dtype=float)
    xa = np.asarray(x, dtype=float)
    la = list(a)
    if not (len(ya) == len(xa) == len(la)) or len(ya) == 0:
        raise DistributionError("records must be nonempty and aligned")
    if not (np.isfinite(ya).all() and np.isfinite(xa).all()):
        raise DistributionError("records must have finite y and x")
    # one stable sort groups the records: each stratum's slice holds its
    # values in record order, as a boolean selection would, so the moments
    # below are bit-identical to a per-stratum mask
    codes = dict.fromkeys(la)
    for i, lbl in enumerate(codes):
        codes[lbl] = i
    g = np.fromiter(map(codes.__getitem__, la), dtype=np.intp, count=len(la))
    perm = np.argsort(g, kind="stable")
    ends = np.cumsum(np.bincount(g, minlength=len(codes))).tolist()
    ya, xa = ya[perm], xa[perm]
    strata = []
    n_total = len(ya)
    start = 0
    for lbl, stop in zip(codes, ends):
        ys, xs = ya[start:stop], xa[start:stop]
        s_xx = float(xs.var())
        if s_xx <= 0.0:
            raise DistributionError(
                f"stratum {lbl!r} needs at least two distinct x values"
            )
        s_yx = float(((ys - ys.mean()) * (xs - xs.mean())).mean())
        beta = s_yx / s_xx
        mu_x = float(xs.mean())
        alpha = float(ys.mean()) - beta * mu_x
        strata.append(
            RegressionStratum(
                pi=float(stop - start) / n_total,
                alpha=alpha,
                beta=beta,
                mu_x=mu_x,
                s_xx=s_xx,
                s_yy=float(ys.var()),
                label=str(lbl),
            )
        )
        start = stop
    return StratifiedRegressionSummary(tuple(strata))
