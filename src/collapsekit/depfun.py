"""Distribution-dependence functions and their collapsibility over a covariate.

The dependence function of a parametric family is the partial derivative of
the conditional distribution function F(y | x, w) with respect to x; its
sign expresses stochastic monotonicity of Y in X.  Two families are
registered:

* ``gaussian-linear-interaction``: Y = a1 X + a2 W + a3 X W + eps with
  eps ~ N(0, sigma^2) and (W | X = x) ~ N(rho x, 1); rho = 0 makes W
  independent of X.
* ``uniform-quadratic``: (Y | x, w) ~ U(0, 1 / (x^2 + (w - x)^2)) with
  (W | X = x) ~ N(x, 1).

Average collapsibility over W asks whether averaging the conditional
dependence function against f(w | x) reproduces the marginal dependence
function; equivalently, whether the integral of F(y | x, w) against the
x-derivative of f(w | x) vanishes.  Both quantities are evaluated on a
grid, with adaptive quadrature (QUADPACK, through ``quadpack.quad``) falling
back to a fixed 201-point Simpson rule if the adaptive routine fails to
converge.  Only QUADPACK's compiled extension loads, on the first integral;
``scipy.integrate`` itself never loads, and importing this module loads no
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ModelError, loads, malformed, number, numbers
from .quadpack import quad

SQRT2PI = math.sqrt(2.0 * math.pi)

DEFAULT_TOL = 1e-6
QUAD_TOL = 1e-10
W_SPAN = 8.0  # integration half-width in mixing standard deviations

DEFAULT_GRID_VALUES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
DEFAULT_W_PROBES = (-1.5, -0.5, 0.5, 1.5)


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / SQRT2PI


def _ndtr(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _integrate(f, lo: float, hi: float, points: Sequence[float] = ()) -> tuple[float, bool]:
    """Adaptive quadrature with a fixed-grid fallback; returns (value, converged)."""
    val, converged = quad(f, lo, hi, QUAD_TOL, QUAD_TOL, 400, points)
    if converged:
        return val, True
    # composite Simpson on 200 panels, in the panel-width form and summation
    # order of scipy.integrate.simpson(vals, x=grid), so the fallback keeps
    # its bits; f sees Python floats, so an overflow is inf, not a warning
    grid = np.linspace(lo, hi, 201)
    vals = np.array([f(t) for t in grid.tolist()])
    h = np.diff(grid)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    panels = hsum / 6.0 * (
        vals[0:-2:2] * (2.0 - 1.0 / ratio)
        + vals[1:-1:2] * (hsum * (hsum / (h0 * h1)))
        + vals[2::2] * (2.0 - ratio)
    )
    return float(np.sum(panels)), False


def _integrate_w(model: "DependenceModel", y: float, x: float, g, density) -> tuple[float, bool]:
    """``_integrate`` of g(y, x, w) density(w, x) over W's support given x,
    split at the model's breakpoints.

    A non-finite integrand raises ModelError: QUADPACK fed NaN next to
    finite values can read outside its interval list and crash the process.
    """

    def f(w: float) -> float:
        v = g(y, x, w) * density(w, x)
        if math.isfinite(v):
            return v
        raise ModelError(f"the integrand at (y={y!r}, x={x!r}) is not finite at w={w!r}")

    return _integrate(f, *model.w_interval(x), points=model.w_breakpoints(y, x))


class DependenceModel:
    """Base class for registered parametric families.

    Subclasses provide the conditional distribution function, its
    x-derivative (the dependence function), the mixing law of W given x,
    and a closed-form marginal dependence function.
    """

    family: str = ""

    # conditional pieces -----------------------------------------------------
    def cdf(self, y: float, x: float, w: float) -> float:
        raise NotImplementedError

    def dep(self, y: float, x: float, w: float) -> float:
        raise NotImplementedError

    def w_density(self, w: float, x: float) -> float:
        raise NotImplementedError

    def w_density_dx(self, w: float, x: float) -> float:
        raise NotImplementedError

    def w_interval(self, x: float) -> tuple[float, float]:
        raise NotImplementedError

    def w_breakpoints(self, y: float, x: float) -> tuple[float, ...]:
        return ()

    # independence structure -------------------------------------------------
    @property
    def x_w_independent(self) -> bool:
        raise NotImplementedError

    @property
    def y_w_cond_independent(self) -> bool:
        raise NotImplementedError

    # marginal pieces ---------------------------------------------------------
    def marginal_dep(self, y: float, x: float) -> float:
        """Closed-form x-derivative of the marginal CDF F(y | x)."""
        raise NotImplementedError

    def grid_domain(self, ys: Iterable[float], xs: Iterable[float]) -> list[tuple[float, float]]:
        """Filter a candidate (y, x) grid to the family's domain."""
        return [(y, x) for y in ys for x in xs]

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class GaussianLinearInteraction(DependenceModel):
    """Normal response with linear main effects and an interaction term.

    F(y | x, w) is the normal distribution function with mean
    m(x, w) = a1 x + a2 w + a3 x w and standard deviation sigma, so

        dF/dx (y | x, w) = -((a1 + a3 w) / sigma) phi((y - m) / sigma).

    The mixing law (W | X = x) ~ N(rho x, 1) keeps the marginal normal:
    (Y | x) ~ N(a1 x + rho x (a2 + a3 x), (a2 + a3 x)^2 + sigma^2), so the
    marginal dependence function has a closed form for every rho.
    """

    family = "gaussian-linear-interaction"

    def __init__(self, alpha1: float, alpha2: float, alpha3: float, sigma: float, rho: float = 0.0):
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.alpha3 = float(alpha3)
        self.sigma = float(sigma)
        self.rho = float(rho)
        if not all(
            math.isfinite(v) for v in (self.alpha1, self.alpha2, self.alpha3, self.sigma, self.rho)
        ):
            raise ModelError("alpha, sigma and rho (the w_law mean_slope) must be finite")
        if self.sigma <= 0.0:
            raise ModelError("sigma must be positive")

    def _m(self, x: float, w: float) -> float:
        return self.alpha1 * x + self.alpha2 * w + self.alpha3 * x * w

    def cdf(self, y: float, x: float, w: float) -> float:
        return _ndtr((y - self._m(x, w)) / self.sigma)

    def dep(self, y: float, x: float, w: float) -> float:
        return -((self.alpha1 + self.alpha3 * w) / self.sigma) * _phi(
            (y - self._m(x, w)) / self.sigma
        )

    def w_density(self, w: float, x: float) -> float:
        return _phi(w - self.rho * x)

    def w_density_dx(self, w: float, x: float) -> float:
        u = w - self.rho * x
        return self.rho * u * _phi(u)

    def w_interval(self, x: float) -> tuple[float, float]:
        c = self.rho * x
        return (c - W_SPAN, c + W_SPAN)

    @property
    def x_w_independent(self) -> bool:
        return self.rho == 0.0

    @property
    def y_w_cond_independent(self) -> bool:
        return self.alpha2 == 0.0 and self.alpha3 == 0.0

    def _marginal_params(self, x: float) -> tuple[float, float, float, float]:
        """mean, d(mean)/dx, sd, d(sd)/dx of (Y | x)."""
        g = self.alpha2 + self.alpha3 * x
        mu = self.alpha1 * x + self.rho * x * g
        dmu = self.alpha1 + self.rho * (self.alpha2 + 2.0 * self.alpha3 * x)
        v = math.sqrt(g * g + self.sigma * self.sigma)
        if v == 0.0:  # sigma^2 underflows where g vanishes
            raise ModelError(f"(Y | x={x}) has zero spread: sigma {self.sigma!r} is too small")
        dv = self.alpha3 * g / v
        return mu, dmu, v, dv

    def marginal_dep(self, y: float, x: float) -> float:
        mu, dmu, v, dv = self._marginal_params(x)
        z = (y - mu) / v
        return -_phi(z) * (dmu / v + z * dv / v)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "alpha": [self.alpha1, self.alpha2, self.alpha3],
            "sigma": self.sigma,
            "w_law": {"type": "normal", "mean_slope": self.rho},
        }


class UniformQuadratic(DependenceModel):
    """Uniform response whose support length is a quadratic in (x, w).

    (Y | x, w) ~ U(0, 1 / s(x, w)) with s(x, w) = x^2 + (w - x)^2, so
    inside the support F(y | x, w) = y s(x, w) and

        dF/dx = y (4 x - 2 w).

    F is 0 below the support and 1 above it; those flats count as part of
    the (piecewise) distribution function rather than a domain error, so
    integrals over all w are well defined.  The mixing law is
    (W | X = x) ~ N(x, 1).
    """

    family = "uniform-quadratic"

    @staticmethod
    def _s(x: float, w: float) -> float:
        return x * x + (w - x) * (w - x)

    def cdf(self, y: float, x: float, w: float) -> float:
        if y <= 0.0:
            return 0.0
        v = y * self._s(x, w)
        return v if v < 1.0 else 1.0

    def dep(self, y: float, x: float, w: float) -> float:
        if y <= 0.0:
            return 0.0
        if y * self._s(x, w) >= 1.0:
            return 0.0
        return y * (4.0 * x - 2.0 * w)

    def w_density(self, w: float, x: float) -> float:
        return _phi(w - x)

    def w_density_dx(self, w: float, x: float) -> float:
        u = w - x
        return u * _phi(u)

    def w_interval(self, x: float) -> tuple[float, float]:
        return (x - W_SPAN, x + W_SPAN)

    def w_breakpoints(self, y: float, x: float) -> tuple[float, ...]:
        # kinks of min(1, y s(x, w)): y (x^2 + (w - x)^2) = 1
        if y <= 0.0:
            return ()
        r2 = 1.0 / y - x * x
        if r2 <= 0.0:
            return ()
        r = math.sqrt(r2)
        return (x - r, x + r)

    @property
    def x_w_independent(self) -> bool:
        return False

    @property
    def y_w_cond_independent(self) -> bool:
        return False

    def marginal_dep(self, y: float, x: float) -> float:
        # F(y | x) = E[min(1, y (x^2 + U^2))] with U ~ N(0, 1), so the
        # x-derivative is 2 x y P(U^2 < 1/y - x^2); zero once y x^2 >= 1,
        # where the marginal CDF saturates at 1.
        if y <= 0.0:
            return 0.0
        r2 = 1.0 / y - x * x
        if r2 <= 0.0:
            return 0.0
        r = math.sqrt(r2)
        return 2.0 * x * y * (_ndtr(r) - _ndtr(-r))

    def grid_domain(self, ys, xs) -> list[tuple[float, float]]:
        return [(y, x) for y in ys for x in xs if y > 0.0]

    def to_json_dict(self) -> dict:
        return {"family": self.family}


def model_from_json_dict(payload: Mapping) -> DependenceModel:
    with malformed(ModelError, "model payload"):
        family = payload["family"]
        if family == GaussianLinearInteraction.family:
            a1, a2, a3 = numbers(payload, "alpha").tolist()
            sigma = number(payload, "sigma")
            w_law = payload.get("w_law", {"type": "normal", "mean_slope": 0.0})
            if w_law.get("type") != "normal":
                raise ModelError(f"unsupported w_law {w_law!r}")
            rho = number(w_law, "mean_slope", 0.0)
            return GaussianLinearInteraction(a1, a2, a3, sigma, rho)
        if family == UniformQuadratic.family:
            return UniformQuadratic()
        raise ModelError(f"unknown family {family!r}")


def model_from_json(text: str) -> DependenceModel:
    return model_from_json_dict(loads(text, ModelError, "model payload"))


@dataclass(frozen=True)
class HomogeneityVerdict:
    homogeneous: bool
    max_gap: float
    worst: tuple[float, float, float, float] | None  # (y, x, w, w')
    tol: float


def check_homogeneity(
    model: DependenceModel,
    grid: Sequence[tuple[float, float]] | None = None,
    w_probes: Sequence[float] = DEFAULT_W_PROBES,
    tol: float = DEFAULT_TOL,
) -> HomogeneityVerdict:
    """Is the dependence function the same at every w, on the probe grid?"""
    if grid is None:
        grid = model.grid_domain(DEFAULT_GRID_VALUES, DEFAULT_GRID_VALUES)
    if not grid or len(w_probes) < 2:
        raise ModelError("homogeneity needs a nonempty grid and at least two w probes")
    worst = None
    max_gap = -1.0
    for y, x in grid:
        vals = [model.dep(y, x, w) for w in w_probes]
        # a NaN gap fails ``gap > max_gap`` and would be skipped silently
        if not all(map(math.isfinite, vals)):
            raise ModelError(f"the dependence function at (y={y!r}, x={x!r}) is not finite")
        for i in range(len(w_probes)):
            for j in range(i + 1, len(w_probes)):
                gap = abs(vals[i] - vals[j])
                if gap > max_gap:
                    max_gap = gap
                    worst = (y, x, w_probes[i], w_probes[j])
    return HomogeneityVerdict(
        homogeneous=max_gap <= tol, max_gap=max_gap, worst=worst, tol=tol
    )


@dataclass(frozen=True)
class DepVerdict:
    """Average-collapsibility verdict over a (y, x) grid.

    ``max_residual`` is the worst |E_{W|x}[dF/dx] - dF(y|x)/dx|;
    ``integral_residual`` the worst |∫ F(y|x,w) df(w|x)/dx dw|.  Every
    registered family has a closed-form marginal dependence function, so
    ``marginal_route`` is always "closed-form".
    """

    avg_collapsible: bool
    max_residual: float
    integral_residual: float
    worst_point: tuple[float, float] | None
    marginal_route: str
    quadrature_ok: bool
    tol: float


def expected_dep(model: DependenceModel, y: float, x: float) -> tuple[float, bool]:
    """Quadrature of the conditional dependence function against f(w | x)."""
    return _integrate_w(model, y, x, model.dep, model.w_density)


def mixing_correction(model: DependenceModel, y: float, x: float) -> tuple[float, bool]:
    """Quadrature of F(y | x, w) against the x-derivative of f(w | x)."""
    return _integrate_w(model, y, x, model.cdf, model.w_density_dx)


def check_avg_collapsibility(
    model: DependenceModel,
    grid: Sequence[tuple[float, float]] | None = None,
    tol: float = DEFAULT_TOL,
) -> DepVerdict:
    """Compare E_{W|x}[dF/dx] with the marginal dependence function on a grid."""
    if grid is None:
        grid = model.grid_domain(DEFAULT_GRID_VALUES, DEFAULT_GRID_VALUES)
    if not grid:
        raise ModelError("average collapsibility needs a nonempty grid")
    max_residual = -1.0
    integral_residual = -1.0
    worst = None
    quad_ok = True
    for y, x in grid:
        lhs, ok1 = expected_dep(model, y, x)
        rhs = model.marginal_dep(y, x)
        corr, ok2 = mixing_correction(model, y, x)
        if not all(map(math.isfinite, (lhs, rhs, corr))):  # a NaN res fails ``res > max_residual``
            raise ModelError(
                f"E[dF/dx | x], dF(y | x)/dx or the mixing correction at (y={y!r}, x={x!r}) is not finite"
            )
        quad_ok = quad_ok and ok1 and ok2
        res = abs(lhs - rhs)
        if res > max_residual:
            max_residual = res
            worst = (y, x)
        integral_residual = max(integral_residual, abs(corr))
    return DepVerdict(
        avg_collapsible=max_residual <= tol,
        max_residual=max_residual,
        integral_residual=integral_residual,
        worst_point=worst,
        marginal_route="closed-form",
        quadrature_ok=quad_ok,
        tol=tol,
    )
