"""``quadpack.quad`` gives ``scipy.integrate.quad``'s values bit for bit.

The helper calls the private ``_qagse`` / ``_qagpe`` of scipy's compiled
QUADPACK directly, so these tests are what catches a scipy release that
changes their signatures or return values.  A spy stands in for ``quad`` in
``depfun`` and in ``quadpack``, where ``survival`` looks it up on each
integral, so the sweep checks exactly the integrands the verdicts integrate:
it runs each through the helper and through the public
``scipy.integrate.quad`` as the code called it before, and every value must
be equal with ``==`` and every convergence flag must be "no message".
"""

import importlib.machinery
import math

import numpy as np
import pytest
from scipy import integrate

from collapsekit import depfun, quadpack, survival


def scipy_quad(f, lo, hi, epsabs, epsrel, limit, points=()):
    inner = sorted(p for p in points if lo < p < hi)
    # with full_output, the message comes as a fourth item, only when QUADPACK did not converge
    val, _, _, *message = integrate.quad(
        f, lo, hi, points=inner or None, full_output=1, epsabs=epsabs, epsrel=epsrel, limit=limit
    )
    return val, not message


@pytest.fixture
def calls(monkeypatch):
    """Every quadrature the library asks for, as (helper result, scipy result, used break points)."""
    seen = []
    quad = quadpack.quad

    def spy(f, lo, hi, epsabs, epsrel, limit, points=()):
        got = quad(f, lo, hi, epsabs, epsrel, limit, points)
        breaks = any(lo < p < hi for p in points)
        seen.append((got, scipy_quad(f, lo, hi, epsabs, epsrel, limit, points), breaks))
        return got

    monkeypatch.setattr(depfun, "quad", spy)
    monkeypatch.setattr(quadpack, "quad", spy)
    return seen


def assert_bitwise(calls):
    for got, want, _ in calls:
        assert got[0] == want[0]
        assert got[1] is want[1]


class TestBitwise:
    def test_gaussian_family_integrands(self, calls):
        rng = np.random.default_rng(2101)
        for _ in range(4):
            a1, a2, a3 = rng.uniform(-2.0, 2.0, 3).tolist()
            model = depfun.GaussianLinearInteraction(
                a1, a2, a3, rng.uniform(0.3, 2.0), rng.choice([0.0, rng.uniform(-1.5, 1.5)])
            )
            grid = list(zip(rng.uniform(-3.0, 3.0, 6).tolist(), rng.uniform(-2.0, 2.0, 6).tolist()))
            depfun.check_avg_collapsibility(model, grid=grid)  # both integrands at each point
        assert len(calls) == 4 * 6 * 2
        assert_bitwise(calls)

    def test_uniform_family_integrands_with_break_points(self, calls):
        rng = np.random.default_rng(2102)
        grid = list(zip(rng.uniform(0.05, 3.0, 16).tolist(), rng.uniform(-2.5, 2.5, 16).tolist()))
        depfun.check_avg_collapsibility(depfun.UniformQuadratic(), grid=grid)
        depfun.check_avg_collapsibility(depfun.UniformQuadratic())  # the golden dep-check.md grid
        assert len(calls) == (16 + 18) * 2
        assert {breaks for *_, breaks in calls} == {True, False}  # QAGP as well as QAGS
        assert_bitwise(calls)

    @pytest.mark.parametrize("law", survival.W_LAWS)
    def test_marginal_survival_integrand(self, calls, law):
        rng = np.random.default_rng([2103, survival.W_LAWS.index(law)])
        for _ in range(3):
            spec = survival.SurvivalSpec(
                beta_x=rng.uniform(0.2, 2.0),
                beta_y=rng.uniform(-3.0, -0.2),
                eta_mu=rng.uniform(-1.0, 1.0),
                eta_rho=rng.uniform(-1.0, 2.0),
                w_law=law,
            )
            for t in (0.25, 1.0, 2.5):
                for x in (-1.0, 0.0, 1.0):
                    survival.marginal_survival(spec, t, x)
        assert len(calls) == 3 * 3 * 3
        assert_bitwise(calls)

    def test_non_converging_integrand(self):
        f = lambda w: math.cos(3.7e5 * w)  # noqa: E731
        got = quadpack.quad(f, -8.0, 8.0, depfun.QUAD_TOL, depfun.QUAD_TOL, 400)
        assert got == scipy_quad(f, -8.0, 8.0, depfun.QUAD_TOL, depfun.QUAD_TOL, 400)
        assert got[1] is False

    def test_empty_interval(self):
        # QAGS itself gives an empty interval the value 0.0, converged
        assert quadpack.quad(math.exp, 1.5, 1.5, 1e-10, 1e-10, 50) == (0.0, True)


class TestMissingExtension:
    # _extension is cached; __wrapped__ runs the lookup afresh
    def test_no_scipy(self, monkeypatch):
        monkeypatch.setattr(quadpack.importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="install scipy$"):
            quadpack._extension.__wrapped__()

    def test_scipy_without_quadpack(self, monkeypatch, tmp_path):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(quadpack.importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=r"has no scipy\.integrate\._quadpack$"):
            quadpack._extension.__wrapped__()
