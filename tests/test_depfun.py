import math

import numpy as np
import pytest

from collapsekit import depfun
from collapsekit.depfun import (
    DEFAULT_TOL,
    DepVerdict,
    GaussianLinearInteraction,
    UniformQuadratic,
    _integrate,
    _ndtr,
    _phi,
    check_avg_collapsibility,
    check_homogeneity,
    model_from_json,
)
from collapsekit.errors import ModelError

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


# Reference pieces: the mixing law's density and its x-derivative, pointwise.
# A family's ``integrands`` fuses dep(y, x, w) * w_density(model, w, x)
# and cdf(y, x, w) * w_density_dx(model, w, x) into one closure each.


def w_density(model, w, x):
    if isinstance(model, GaussianLinearInteraction):
        return _phi(w - model.rho * x)
    return _phi(w - x)


def w_density_dx(model, w, x):
    if isinstance(model, GaussianLinearInteraction):
        u = w - model.rho * x
        return model.rho * u * _phi(u)
    u = w - x
    return u * _phi(u)


def product_integrands(model, y, x):
    """(expected, mixing) as the pointwise products the fused closures replace."""
    return (
        lambda w: model.dep(y, x, w) * w_density(model, w, x),
        lambda w: model.cdf(y, x, w) * w_density_dx(model, w, x),
    )


def guarded(f, y, x):
    """f with the integrands' finiteness guard at grid point (y, x)."""

    def g(w):
        v = f(w)
        if math.isfinite(v):
            return v
        raise ModelError(f"the integrand at (y={y!r}, x={x!r}) is not finite at w={w!r}")

    return g


def integrate_w(model, y, x, f):
    """``_integrate`` of the guarded f over W's support given x, split at
    the model's breakpoints."""
    return _integrate(guarded(f, y, x), *model.w_interval(x), points=model.w_breakpoints(y, x))


def marginal_cdf(model, y, x):
    """F(y | x): the Gaussian family's closed form, else the quadrature of
    F(y | x, w) against f(w | x)."""
    if isinstance(model, GaussianLinearInteraction):
        mu, _, v, _ = model._marginal_params(x)
        return _ndtr((y - mu) / v)
    return integrate_w(model, y, x, lambda w: model.cdf(y, x, w) * w_density(model, w, x))[0]


def numerical_marginal_dep(model, y, x, h=1e-2):
    """Richardson-extrapolated central differencing of ``marginal_cdf`` in x,
    accurate where the marginal CDF is smooth in x."""
    d1 = (marginal_cdf(model, y, x + h) - marginal_cdf(model, y, x - h)) / (2.0 * h)
    d2 = (marginal_cdf(model, y, x + h / 2.0) - marginal_cdf(model, y, x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


class TestDepFn:
    def test_gaussian_no_x_effect_is_zero(self):
        m = GaussianLinearInteraction(0.0, 1.0, 0.0, 1.0)
        for y, x, w in ((0.0, 0.0, 0.0), (1.0, -1.0, 0.5), (2.0, 0.3, -0.7)):
            assert m.dep(y, x, w) == 0.0

    def test_gaussian_standard_point(self):
        m = GaussianLinearInteraction(1.0, 0.0, 0.0, 1.0)
        assert m.dep(0.0, 0.0, 0.0) == pytest.approx(-PHI0, abs=1e-15)

    def test_uniform_inside_support(self):
        m = UniformQuadratic()
        y, x, w = 0.2, 0.5, 1.0
        assert y * (x * x + (w - x) ** 2) < 1.0
        assert m.dep(y, x, w) == pytest.approx(y * (4 * x - 2 * w), abs=1e-15)

    def test_uniform_outside_support_zero(self):
        m = UniformQuadratic()
        assert m.dep(100.0, 1.0, 3.0) == 0.0
        assert m.dep(-0.5, 1.0, 3.0) == 0.0

    def test_gaussian_finite_difference(self):
        rng = np.random.default_rng(0)
        m = GaussianLinearInteraction(1.0, 0.7, 0.4, 0.8, rho=0.3)
        h = 1e-5
        for _ in range(100):
            y, x, w = rng.uniform(-2.0, 2.0, 3)
            fd = (m.cdf(y, x + h, w) - m.cdf(y, x - h, w)) / (2 * h)
            assert fd == pytest.approx(m.dep(y, x, w), abs=1e-6)

    def test_uniform_finite_difference(self):
        rng = np.random.default_rng(1)
        m = UniformQuadratic()
        h = 1e-5
        done = 0
        while done < 100:
            x, w = rng.uniform(-2.0, 2.0, 2)
            s = x * x + (w - x) ** 2
            if s < 1e-3:
                continue
            y = rng.uniform(0.05, 0.9) / s
            fd = (m.cdf(y, x + h, w) - m.cdf(y, x - h, w)) / (2 * h)
            assert fd == pytest.approx(m.dep(y, x, w), abs=1e-6)
            done += 1


class TestHomogeneity:
    def test_no_w_at_all(self):
        m = GaussianLinearInteraction(1.3, 0.0, 0.0, 0.9)
        v = check_homogeneity(m)
        assert v.homogeneous
        assert v.max_gap <= 1e-12

    def test_interaction_breaks_homogeneity(self):
        v = check_homogeneity(GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0))
        assert not v.homogeneous
        assert v.worst is not None

    def test_additive_w_breaks_homogeneity(self):
        # w shifts the mean inside the density even without an interaction
        v = check_homogeneity(GaussianLinearInteraction(1.0, 0.5, 0.0, 1.0))
        assert not v.homogeneous

    def test_uniform_not_homogeneous(self):
        assert not check_homogeneity(UniformQuadratic()).homogeneous

    def test_nan_dep_rejected(self):
        # a1 + a3 w overflows where phi vanishes: dep is inf * 0 = NaN at 60 of
        # the 144 probes, and a NaN gap used to be skipped
        m = GaussianLinearInteraction(1e308, 0.0, 1e308, 1.0, 0.0)
        with pytest.raises(ModelError, match=r"at \(y=-2\.0, x=-2\.0\) is not finite"):
            check_homogeneity(m)

    def test_empty_grid_rejected(self):
        with pytest.raises(ModelError):
            check_homogeneity(GaussianLinearInteraction(1, 0, 0, 1), grid=[])


class TestAvgCollapsibility:
    def test_gaussian_independent_w(self):
        m = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.0)
        v = check_avg_collapsibility(m)
        assert v.avg_collapsible
        assert v.max_residual <= 1e-6
        assert v.marginal_route == "closed-form"
        assert v.quadrature_ok

    def test_uniform_integral_criterion(self):
        m = UniformQuadratic()
        v = check_avg_collapsibility(m)
        assert v.integral_residual <= 1e-6
        assert v.avg_collapsible
        assert not m.x_w_independent
        assert not m.y_w_cond_independent

    def test_gaussian_dependent_w_fails(self):
        m = GaussianLinearInteraction(1.0, 0.7, 0.4, 0.8, rho=0.6)
        v = check_avg_collapsibility(m)
        assert not v.avg_collapsible
        assert v.max_residual > 1e-3

    def test_homogeneous_and_independent_implies_collapsible(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = GaussianLinearInteraction(
                float(rng.uniform(-2, 2)), 0.0, 0.0, float(rng.uniform(0.5, 2.0))
            )
            assert check_homogeneity(m).homogeneous
            assert m.x_w_independent
            assert check_avg_collapsibility(m).avg_collapsible

    def test_empty_grid_rejected(self):
        with pytest.raises(ModelError):
            check_avg_collapsibility(UniformQuadratic(), grid=[])


class TestMixingIdentity:
    @pytest.mark.parametrize(
        "model",
        [
            GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.0),
            GaussianLinearInteraction(1.0, 0.7, 0.4, 0.8, rho=0.6),
            UniformQuadratic(),
        ],
        ids=["gauss-indep", "gauss-dep", "uniform"],
    )
    def test_identity_on_grid(self, model):
        # E[dF/dx | x] + the mixing correction = dF(y | x)/dx at each point,
        # so the worst |E - marginal| is the worst |mixing correction|
        v = check_avg_collapsibility(model)
        assert v.quadrature_ok
        assert v.max_residual == pytest.approx(v.integral_residual, abs=1e-9)


def random_model(rng):
    """A seeded model of either family; half the Gaussian ones have rho = 0."""
    if rng.uniform() < 0.25:
        return UniformQuadratic()
    a1, a2, a3 = rng.uniform(-2.0, 2.0, 3).tolist()
    rho = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(-1.5, 1.5))
    return GaussianLinearInteraction(a1, a2, a3, float(rng.uniform(0.3, 2.0)), rho)


def random_grid(rng, model, n):
    """n grid points; the uniform family's include y <= 0, outside its domain."""
    if isinstance(model, GaussianLinearInteraction):
        ys = rng.uniform(-3.0, 3.0, n)
    else:
        ys = rng.choice([-0.5, 0.0, *rng.uniform(0.05, 3.0, 4).tolist()], n)
    return list(zip(ys.tolist(), rng.uniform(-2.5, 2.5, n).tolist()))


def outcome(f, w):
    """f(w) as hex, which tells -0.0 from 0.0, or the ModelError's text."""
    try:
        return f(w).hex()
    except ModelError as exc:
        return str(exc)


def bits(verdict):
    """The verdict's fields, with each float (worst_point's too) as hex."""

    def hexed(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return tuple(map(float.hex, v))
        return v

    return tuple(map(hexed, vars(verdict).values()))


def reference_avg_check(model, grid, tol=DEFAULT_TOL):
    """check_avg_collapsibility as it was with the pointwise products."""
    max_residual = integral_residual = -1.0
    worst = None
    quad_ok = True
    for y, x in grid:
        expected, mixing = product_integrands(model, y, x)
        lhs, ok1 = integrate_w(model, y, x, expected)
        rhs = model.marginal_dep(y, x)
        corr, ok2 = integrate_w(model, y, x, mixing)
        assert all(map(math.isfinite, (lhs, rhs, corr)))
        quad_ok = quad_ok and ok1 and ok2
        res = abs(lhs - rhs)
        if res > max_residual:
            max_residual = res
            worst = (y, x)
        integral_residual = max(integral_residual, abs(corr))
    return DepVerdict(
        max_residual <= tol, max_residual, integral_residual, worst, "closed-form", quad_ok, tol
    )


class TestFusedIntegrands:
    def test_bitwise_equal_to_the_pointwise_products(self):
        rng = np.random.default_rng(3401)
        seen = set()
        kinks = 0
        for _ in range(120):
            model = random_model(rng)
            for y, x in random_grid(rng, model, 4):
                lo, hi = model.w_interval(x)
                ws = [lo, hi, *rng.uniform(lo - 1.0, hi + 1.0, 12).tolist()]
                for kink in model.w_breakpoints(y, x):
                    ws += [kink, math.nextafter(kink, -math.inf), math.nextafter(kink, math.inf)]
                    kinks += lo < kink < hi
                fused = model.integrands(y, x)
                for f, ref in zip(fused, product_integrands(model, y, x)):
                    for w in ws:
                        got = outcome(f, w)
                        assert got == outcome(guarded(ref, y, x), w), (model.to_json_dict(), y, x, w)
                        seen.add(got)
        # the sweep reaches both signed zeros (rho = 0, and y <= 0 for the
        # uniform family) and kinks inside W's interval
        assert {"0x0.0p+0", "-0x0.0p+0"} <= seen
        assert kinks > 20

    @pytest.mark.parametrize("seed", [[3402, 0]], ids=["quadpack"])
    def test_verdict_equals_the_product_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            model = random_model(rng)
            grid = random_grid(rng, model, 3)
            assert bits(check_avg_collapsibility(model, grid)) == bits(
                reference_avg_check(model, grid)
            )

    @pytest.mark.parametrize(
        "model, y, x, which, w",
        [
            (GaussianLinearInteraction(0.0, 1e308, -1e308, 1.0, 0.5), 0.0, 1.0, 0, 2.0),
            (GaussianLinearInteraction(0.0, 1e308, -1e308, 1.0, 0.5), 0.0, 1.0, 1, 2.0),
            (UniformQuadratic(), 0.5, 1.0, 1, math.inf),
            (UniformQuadratic(), 0.5, math.nan, 0, 0.0),
        ],
        ids=["gauss-expected", "gauss-mixing", "uniform-mixing", "uniform-expected"],
    )
    def test_non_finite_integrand_is_structured(self, model, y, x, which, w):
        # the Gaussian mean is inf - inf at x = 1, w = 2, so both closures
        # see NaN; the uniform mixing one is inf * 0 at w = inf, and the
        # uniform expected one is NaN at x = NaN
        f = model.integrands(y, x)[which]
        with pytest.raises(ModelError) as info:
            f(w)
        assert str(info.value) == f"the integrand at (y={y!r}, x={x!r}) is not finite at w={w!r}"


class TestMarginals:
    def test_gaussian_marginal_law(self):
        # with independent standard normal W the marginal is normal with
        # variance (a2 + a3 x)^2 + sigma^2
        m = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.0)
        for y in (-1.0, 0.5, 2.0):
            for x in (-1.5, 0.0, 1.0):
                v2 = (0.5 + 0.8 * x) ** 2 + 1.0
                direct = _ndtr((y - 1.0 * x) / math.sqrt(v2))
                assert marginal_cdf(m, y, x) == pytest.approx(direct, abs=1e-9)

    def test_uniform_closed_marginal_vs_quadrature_cdf(self):
        # integrate the closed-form derivative back up and compare CDF gaps
        m = UniformQuadratic()
        y = 0.8
        for x0, x1 in ((-0.5, -0.3), (0.2, 0.4)):
            grid = np.linspace(x0, x1, 2001)
            vals = np.array([m.marginal_dep(y, x) for x in grid])
            integral = np.trapezoid(vals, grid)
            gap = marginal_cdf(m, y, x1) - marginal_cdf(m, y, x0)
            assert integral == pytest.approx(gap, abs=1e-7)

    def test_numerical_fallback_matches_closed_forms(self):
        g = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.4)
        u = UniformQuadratic()
        for y, x in ((0.5, -0.5), (1.0, 0.5), (2.0, 0.25)):
            assert numerical_marginal_dep(g, y, x) == pytest.approx(
                g.marginal_dep(y, x), abs=1e-6
            )
            assert numerical_marginal_dep(u, y, x) == pytest.approx(
                u.marginal_dep(y, x), abs=1e-6
            )


class TestQuadrature:
    def test_fallback_on_nasty_integrand(self):
        val, converged = _integrate(lambda w: math.cos(3.7e5 * w), -8.0, 8.0)
        assert not converged
        assert math.isfinite(val)

    @pytest.mark.parametrize(
        "f, exact",
        [
            (lambda w: math.cos(3.7e5 * w), 2.0 * math.sin(8.0 * 3.7e5) / 3.7e5),
            (lambda w: math.sin(1e5 * w) ** 2, 8.0 - math.sin(16.0 * 1e5) / 2e5),
            (lambda w: math.exp(-w * w) * math.cos(2e5 * w), 0.0),  # sqrt(pi) exp(-1e10) on the line
        ],
        ids=["cos", "sin-squared", "gauss-cos"],
    )
    def test_unconverged_value_is_quadpacks_estimate(self, f, exact):
        from collapsekit import quadpack

        val, converged = _integrate(f, -8.0, 8.0)
        assert not converged
        assert (val, converged) == quadpack.quad(f, -8.0, 8.0, depfun.QUAD_TOL, depfun.QUAD_TOL, 400)
        assert val == pytest.approx(exact, abs=0.05)

    def test_smooth_integrand_converges(self):
        val, converged = _integrate(
            lambda w: math.exp(-0.5 * w * w) / math.sqrt(2 * math.pi), -8.0, 8.0
        )
        assert converged
        assert val == pytest.approx(1.0, abs=1e-9)


class TestModelJson:
    def test_gaussian_roundtrip(self):
        m = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.3)
        back = model_from_json(
            '{"family":"gaussian-linear-interaction","alpha":[1.0,0.5,0.8],'
            '"sigma":1.0,"w_law":{"type":"normal","mean_slope":0.3}}'
        )
        assert back.to_json_dict() == m.to_json_dict()

    def test_uniform_roundtrip(self):
        assert model_from_json('{"family":"uniform-quadratic"}').family == "uniform-quadratic"

    def test_unknown_family(self):
        with pytest.raises(ModelError):
            model_from_json('{"family":"cauchy"}')

    def test_bad_sigma(self):
        with pytest.raises(ModelError):
            GaussianLinearInteraction(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters(self, field, bad):
        params = [1.0, 0.5, 0.8, 1.0, 0.3]  # alpha1, alpha2, alpha3, sigma, rho
        params[field] = bad
        with pytest.raises(ModelError, match="finite"):
            GaussianLinearInteraction(*params)
