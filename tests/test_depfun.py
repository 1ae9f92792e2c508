import math

import numpy as np
import pytest

from collapsekit import depfun
from collapsekit.depfun import (
    DEFAULT_GRID_VALUES,
    GaussianLinearInteraction,
    UniformQuadratic,
    _integrate,
    _ndtr,
    check_avg_collapsibility,
    check_homogeneity,
    dep_fn,
    expected_dep,
    mixing_correction,
    model_from_json,
)
from collapsekit.errors import ModelError

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


class TestDepFn:
    def test_gaussian_no_x_effect_is_zero(self):
        m = GaussianLinearInteraction(0.0, 1.0, 0.0, 1.0)
        for y, x, w in ((0.0, 0.0, 0.0), (1.0, -1.0, 0.5), (2.0, 0.3, -0.7)):
            assert dep_fn(m, y, x, w) == 0.0

    def test_gaussian_standard_point(self):
        m = GaussianLinearInteraction(1.0, 0.0, 0.0, 1.0)
        assert dep_fn(m, 0.0, 0.0, 0.0) == pytest.approx(-PHI0, abs=1e-15)

    def test_uniform_inside_support(self):
        m = UniformQuadratic()
        y, x, w = 0.2, 0.5, 1.0
        assert y * (x * x + (w - x) ** 2) < 1.0
        assert dep_fn(m, y, x, w) == pytest.approx(y * (4 * x - 2 * w), abs=1e-15)

    def test_uniform_outside_support_zero(self):
        m = UniformQuadratic()
        assert dep_fn(m, 100.0, 1.0, 3.0) == 0.0
        assert dep_fn(m, -0.5, 1.0, 3.0) == 0.0

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
        for y, x in model.grid_domain(DEFAULT_GRID_VALUES, DEFAULT_GRID_VALUES):
            lhs = model.marginal_dep(y, x)
            e, ok1 = expected_dep(model, y, x)
            c, ok2 = mixing_correction(model, y, x)
            assert ok1 and ok2
            assert lhs == pytest.approx(e + c, abs=1e-6)


class TestMarginals:
    def test_gaussian_marginal_law(self):
        # with independent standard normal W the marginal is normal with
        # variance (a2 + a3 x)^2 + sigma^2
        m = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.0)
        for y in (-1.0, 0.5, 2.0):
            for x in (-1.5, 0.0, 1.0):
                v2 = (0.5 + 0.8 * x) ** 2 + 1.0
                direct = _ndtr((y - 1.0 * x) / math.sqrt(v2))
                assert m.marginal_cdf(y, x) == pytest.approx(direct, abs=1e-9)

    def test_uniform_closed_marginal_vs_quadrature_cdf(self):
        # integrate the closed-form derivative back up and compare CDF gaps
        m = UniformQuadratic()
        y = 0.8
        for x0, x1 in ((-0.5, -0.3), (0.2, 0.4)):
            grid = np.linspace(x0, x1, 2001)
            vals = np.array([m.marginal_dep(y, x) for x in grid])
            integral = np.trapezoid(vals, grid)
            gap = m.marginal_cdf(y, x1) - m.marginal_cdf(y, x0)
            assert integral == pytest.approx(gap, abs=1e-7)

    def test_numerical_fallback_matches_closed_forms(self):
        g = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.4)
        u = UniformQuadratic()
        for y, x in ((0.5, -0.5), (1.0, 0.5), (2.0, 0.25)):
            assert g.numerical_marginal_dep(y, x) == pytest.approx(
                g.marginal_dep(y, x), abs=1e-6
            )
            assert u.numerical_marginal_dep(y, x) == pytest.approx(
                u.marginal_dep(y, x), abs=1e-6
            )


def expected_dep_integrand(model, y, x):
    """expected_dep's integrand at (y, x) and W's interval given x."""
    return (lambda w: model.dep(y, x, w) * model.w_density(w, x), *model.w_interval(x))


class TestQuadrature:
    def test_fallback_on_nasty_integrand(self):
        val, converged = _integrate(lambda w: math.cos(3.7e5 * w), -8.0, 8.0)
        assert not converged
        assert math.isfinite(val)

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda w: math.cos(3.7e5 * w), -8.0, 8.0),
            (lambda w: math.sin(1e5 * w) ** 2, -8.0, 8.0),
            (lambda w: math.exp(-w * w) * math.cos(2e5 * w), -8.0, 8.0),
            expected_dep_integrand(GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, 0.6), 0.4, 0.7),
            expected_dep_integrand(UniformQuadratic(), 0.4, 0.7),  # kinked
        ],
    )
    def test_fallback_is_simpson(self, monkeypatch, f, lo, hi):
        from scipy.integrate import simpson

        monkeypatch.setattr(depfun, "quad", lambda *args: (math.nan, False))  # every integral falls back
        val, converged = _integrate(f, lo, hi)
        grid = np.linspace(lo, hi, 201)
        assert not converged
        assert val == simpson([f(t) for t in grid.tolist()], x=grid)

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
