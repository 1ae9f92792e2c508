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
grid by adaptive quadrature (QUADPACK, through ``quadpack.quad``); an
integral that does not converge keeps QUADPACK's own estimate, and the
verdict flags it (``quadrature_ok`` false), as it does integrals that
break the identity their sum must meet.  Each family builds one pair of
integrand closures per grid point (its ``integrands``; ``DependenceModel``
states the contract).  Each closure is one Python frame per evaluation and
does the float operations of dep(y, x, w) f(w | x), or of cdf(y, x, w)
df(w | x)/dx, in the order the pointwise pieces do them, so the integrals
keep their bits.  Only QUADPACK's compiled extension loads, on the first
integral; ``scipy.integrate`` itself never loads, and importing this module
loads no scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ModelError, malformed, number, numbers
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


Integrand = Callable[[float], float]


def _not_finite(y: float, x: float, w: float) -> ModelError:
    return ModelError(f"the integrand at (y={y!r}, x={x!r}) is not finite at w={w!r}")


def _integrate(f, lo: float, hi: float, points: Sequence[float] = ()) -> tuple[float, bool]:
    """QUADPACK's (value, converged); an unconverged value is its own estimate."""
    return quad(f, lo, hi, QUAD_TOL, QUAD_TOL, 400, points)


class DependenceModel:
    """Base class for registered parametric families.

    Each family provides ``cdf(y, x, w)``, the conditional distribution
    function; ``dep(y, x, w)``, its x-derivative (the dependence function);
    ``w_interval(x)``, the integration range of W given x;
    ``x_w_independent`` and ``y_w_cond_independent``, its independence
    structure; ``marginal_dep(y, x)``, the closed-form x-derivative of the
    marginal CDF F(y | x); ``to_json_dict()``; and ``integrands(y, x)``,
    the pair (expected, mixing) of closures over w at one grid point.

    ``expected(w)`` is dep(y, x, w) f(w | x) and ``mixing(w)`` is
    cdf(y, x, w) df(w | x)/dx, with f the density of W given x.  Each is
    one frame that does the float operations of the pointwise product in
    the same order, so it returns the same bits, and raises ModelError
    where the product is not finite: QUADPACK fed NaN next to finite
    values can read outside its interval list and crash the process.
    """

    family: str = ""

    def w_breakpoints(self, y: float, x: float) -> tuple[float, ...]:
        return ()

    def grid_domain(self) -> list[tuple[float, float]]:
        """The default (y, x) probe grid, filtered to the family's domain."""
        return [(y, x) for y in DEFAULT_GRID_VALUES for x in DEFAULT_GRID_VALUES]


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

    def integrands(self, y: float, x: float) -> tuple[Integrand, Integrand]:
        # dep(y, x, w) or cdf(y, x, w) times _phi(u) or rho u _phi(u), u = w - rho x,
        # inlined with every float operation kept in place: the verdict bytes rest on them
        a1, a2, a3, sigma, rho = self.alpha1, self.alpha2, self.alpha3, self.sigma, self.rho
        a1x = a1 * x
        a3x = a3 * x
        rx = rho * x
        sqrt2 = math.sqrt(2.0)

        def expected(w: float) -> float:
            z = (y - (a1x + a2 * w + a3x * w)) / sigma
            u = w - rx
            v = (
                -((a1 + a3 * w) / sigma)
                * (math.exp(-0.5 * z * z) / SQRT2PI)
                * (math.exp(-0.5 * u * u) / SQRT2PI)
            )
            if math.isfinite(v):
                return v
            raise _not_finite(y, x, w)

        def mixing(w: float) -> float:
            z = (y - (a1x + a2 * w + a3x * w)) / sigma
            u = w - rx
            v = 0.5 * math.erfc(-z / sqrt2) * (rho * u * (math.exp(-0.5 * u * u) / SQRT2PI))
            if math.isfinite(v):
                return v
            raise _not_finite(y, x, w)

        return expected, mixing

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

    def integrands(self, y: float, x: float) -> tuple[Integrand, Integrand]:
        # dep(y, x, w) or cdf(y, x, w) times _phi(u) or u _phi(u), u = w - x, inlined
        # with every float operation kept in place; s(x, w) = x^2 + u^2
        x2 = x * x
        x4 = 4.0 * x

        def expected(w: float) -> float:
            u = w - x
            if y <= 0.0 or y * (x2 + u * u) >= 1.0:
                d = 0.0
            else:
                d = y * (x4 - 2.0 * w)
            v = d * (math.exp(-0.5 * u * u) / SQRT2PI)
            if math.isfinite(v):
                return v
            raise _not_finite(y, x, w)

        def mixing(w: float) -> float:
            u = w - x
            if y <= 0.0:
                c = 0.0
            else:
                c = y * (x2 + u * u)
                c = c if c < 1.0 else 1.0
            v = c * (u * (math.exp(-0.5 * u * u) / SQRT2PI))
            if math.isfinite(v):
                return v
            raise _not_finite(y, x, w)

        return expected, mixing

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

    def grid_domain(self) -> list[tuple[float, float]]:
        return [(y, x) for y, x in super().grid_domain() if y > 0.0]

    def to_json_dict(self) -> dict:
        return {"family": self.family}


def model_from_json(text: str) -> DependenceModel:
    with malformed(ModelError, "model payload", RecursionError):
        payload = json.loads(text)
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


@dataclass(frozen=True)
class HomogeneityVerdict:
    homogeneous: bool
    max_gap: float
    worst: tuple[float, float, float, float] | None  # (y, x, w of max dF/dx, w of min dF/dx)
    tol: float


def check_homogeneity(
    model: DependenceModel,
    grid: Sequence[tuple[float, float]] | None = None,
    w_probes: Sequence[float] = DEFAULT_W_PROBES,
    tol: float = DEFAULT_TOL,
) -> HomogeneityVerdict:
    """Is the dependence function the same at every w, on the probe grid?"""
    if grid is None:
        grid = model.grid_domain()
    if not grid or len(w_probes) < 2:
        raise ModelError("homogeneity needs a nonempty grid and at least two w probes")
    worst = None
    max_gap = -1.0
    for y, x in grid:
        vals = [model.dep(y, x, w) for w in w_probes]
        # a NaN range fails ``hi - lo > max_gap`` and would be skipped silently
        if not all(map(math.isfinite, vals)):
            raise ModelError(f"the dependence function at (y={y!r}, x={x!r}) is not finite")
        # rounding is monotone, so the range is the widest pairwise gap
        hi, lo = max(vals), min(vals)
        if hi - lo > max_gap:
            max_gap = hi - lo
            worst = (y, x, w_probes[vals.index(hi)], w_probes[vals.index(lo)])
    return HomogeneityVerdict(
        homogeneous=max_gap <= tol, max_gap=max_gap, worst=worst, tol=tol
    )


@dataclass(frozen=True)
class DepVerdict:
    """Average-collapsibility verdict over a (y, x) grid.

    ``max_residual`` is the worst |E_{W|x}[dF/dx] - dF(y|x)/dx|;
    ``integral_residual`` the worst |∫ F(y|x,w) df(w|x)/dx dw|.  Every
    registered family has a closed-form marginal dependence function, so
    ``marginal_route`` is always "closed-form".  ``quadrature_ok`` is false
    when some integral did not converge (its value is then QUADPACK's
    estimate), or when at some point the two integrals miss the identity
    ∫ dF/dx f dw + ∫ F df/dx dw = dF(y|x)/dx by over 4 ``QUAD_TOL`` times
    max(1, each magnitude): a "converged" integral can miss a narrow spike.
    """

    avg_collapsible: bool
    max_residual: float
    integral_residual: float
    worst_point: tuple[float, float] | None
    marginal_route: str
    quadrature_ok: bool
    tol: float


def check_avg_collapsibility(
    model: DependenceModel,
    grid: Sequence[tuple[float, float]] | None = None,
    tol: float = DEFAULT_TOL,
) -> DepVerdict:
    """Compare E_{W|x}[dF/dx] with the marginal dependence function on a grid."""
    if grid is None:
        grid = model.grid_domain()
    if not grid:
        raise ModelError("average collapsibility needs a nonempty grid")
    max_residual = -1.0
    integral_residual = -1.0
    worst = None
    quad_ok = True
    for y, x in grid:
        # both integrals run over W's support given x, split at the kinks
        expected, mixing = model.integrands(y, x)
        lo, hi = model.w_interval(x)
        points = model.w_breakpoints(y, x)
        lhs, ok1 = _integrate(expected, lo, hi, points)
        rhs = model.marginal_dep(y, x)
        corr, ok2 = _integrate(mixing, lo, hi, points)
        if not all(map(math.isfinite, (lhs, rhs, corr))):  # a NaN res fails ``res > max_residual``
            raise ModelError(
                f"E[dF/dx | x], dF(y | x)/dx or the mixing correction at (y={y!r}, x={x!r}) is not finite"
            )
        # d/dx of the marginal F(y | x) is the sum of the two integrals; a converged
        # integral that breaks this missed part of its integrand, such as a narrow spike
        gap = abs(lhs + corr - rhs)
        quad_ok = quad_ok and ok1 and ok2 and gap <= 4.0 * QUAD_TOL * max(1.0, abs(lhs), abs(corr), abs(rhs))
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
