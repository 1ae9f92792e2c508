import math
import sys

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import log_ndtr, ndtr

from collapsekit import quadpack
from collapsekit.errors import ModelError
from collapsekit.survival import (
    DEFAULT_S_GRID,
    DEFAULT_T_GRID,
    DEFAULT_X_PROBES,
    DEFAULT_Y_PROBES,
    W_LAWS,
    ProbeResult,
    SurvivalVerdict,
    SurvivalSpec,
    _direction,
    _log,
    _log_survival,
    _survival_function,
    check_condition,
    log_conditional_ratio,
    marginal_ratio,
    marginal_survival,
    verify_numeric,
)


class TestConditionFlags:
    def test_reversal_parameters(self):
        v = check_condition(SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8))
        assert v.condition and v.gaussian_equiv

    def test_positive_beta_y_never(self):
        v = check_condition(SurvivalSpec(beta_x=1.0, beta_y=2.0, eta_rho=100.0))
        assert not v.condition and not v.gaussian_equiv

    def test_small_rho_fails(self):
        v = check_condition(SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.4))
        assert not v.condition and not v.gaussian_equiv

    def test_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            bx, by, rho = rng.uniform(-3.0, 3.0, 3)
            v = check_condition(SurvivalSpec(beta_x=bx, beta_y=by, eta_rho=rho))
            assert v.condition == v.gaussian_equiv


class TestConditionalRatio:
    def test_in_unit_interval_and_monotone_in_s(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8)
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = float(rng.uniform(0.0, 2.0))
            x, y = rng.uniform(-1.5, 1.5, 2)
            rs = [math.exp(log_conditional_ratio(spec, t, s, x, y)) for s in (0.1, 0.5, 1.0, 2.0)]
            assert all(0.0 < r <= 1.0 for r in rs)
            assert all(a >= b for a, b in zip(rs, rs[1:]))

    def test_closed_form(self):
        spec = SurvivalSpec(beta_x=0.5, beta_y=-1.0)
        t, s, x, y = 0.5, 0.5, 0.3, -0.2
        shift = 0.5 * x - 1.0 * y
        expected = ndtr(-(t + s + shift)) / ndtr(-(t + shift))
        assert math.exp(log_conditional_ratio(spec, t, s, x, y)) == pytest.approx(expected, rel=1e-12)


class TestMarginal:
    def test_quadrature_matches_gaussian_convolution(self):
        # W, V standard normal make the marginal a normal survival with
        # variance 1 + beta_y^2 and mean shift (beta_x + beta_y rho) x
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_mu=0.3, eta_rho=0.8)
        for t in (0.25, 1.0, 2.0):
            for x in (-1.0, 0.0, 1.0):
                arg = t + (1.0 - 2.0 * 0.8) * x - 2.0 * 0.3
                closed = float(ndtr(-arg / math.sqrt(1.0 + 4.0)))
                assert marginal_survival(spec, t, x) == pytest.approx(closed, abs=1e-12)

    def test_beta_y_zero_marginal_equals_conditional(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=0.0, eta_rho=0.8)
        for t, s, x in ((0.25, 0.5, -0.5), (1.0, 1.0, 1.0)):
            assert marginal_ratio(spec, t, s, x) == pytest.approx(
                math.exp(log_conditional_ratio(spec, t, s, x, 0.0)), rel=1e-10
            )

    @pytest.mark.parametrize("law", W_LAWS)
    def test_beta_y_zero_marginal_is_the_baseline(self, law):
        # with no Y effect the quadrature only integrates the normal density
        spec = SurvivalSpec(beta_x=0.7, beta_y=0.0, eta_mu=0.4, eta_rho=0.8, w_law=law)
        survival = _survival_function(law)
        for t in (0.25, 1.0, 2.0):
            for x in (-1.0, 0.0, 1.0):
                assert marginal_survival(spec, t, x) == pytest.approx(
                    survival(t + 0.7 * x), rel=1e-12
                )

    @pytest.mark.parametrize("law", W_LAWS)
    def test_matches_gauss_hermite(self, law):
        # an independent rule for E_Y S(t | x, Y) with Y ~ N(eta(x), 1)
        spec = SurvivalSpec(beta_x=0.7, beta_y=-1.3, eta_mu=0.2, eta_rho=0.6, w_law=law)
        survival = _survival_function(law)
        nodes, weights = hermegauss(120)
        weights = weights / math.sqrt(2.0 * math.pi)
        for t in (0.25, 1.0, 2.0):
            for x in (-1.0, 0.0, 1.0):
                ys = spec.eta(x) + nodes
                rule = float(np.dot(weights, [survival(t + 0.7 * x - 1.3 * y) for y in ys]))
                assert marginal_survival(spec, t, x) == pytest.approx(rule, rel=1e-9)


class TestVerifyNumeric:
    def test_reversal_confirmed(self):
        v = verify_numeric(SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8))
        assert v.reversal_on_grid
        assert v.matches_prediction
        assert all(p.conditional_direction == "down" for p in v.probes)
        assert all(p.marginal_direction == "up" for p in v.probes)

    def test_logistic_reversal_confirmed(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8, w_law="logistic")
        v = verify_numeric(spec)
        assert v.condition and v.reversal_on_grid and v.matches_prediction
        assert all(p.conditional_direction == "down" for p in v.probes)
        assert all(p.marginal_direction == "up" for p in v.probes)

    def test_no_reversal_when_condition_fails(self):
        v = verify_numeric(SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.4))
        assert not v.reversal_on_grid
        assert v.matches_prediction
        assert all(p.marginal_direction == "down" for p in v.probes)

    def test_beta_y_zero_directions_agree(self):
        v = verify_numeric(SurvivalSpec(beta_x=1.0, beta_y=0.0, eta_rho=0.8))
        assert not v.reversal_on_grid
        assert all(
            p.conditional_direction == p.marginal_direction == "down" for p in v.probes
        )

    def test_direction_is_relative_to_the_values(self):
        def direction(*values):
            return _direction([_log(v) for v in values])

        assert direction(1e-20, 1e-22, 1e-24) == "down"
        assert direction(1e-24, 1e-22) == "up"
        # a step within 1e-11 of its larger end is flat, at any scale
        assert direction(1.0, 1.0 - 1e-13) == "mixed"
        assert direction(1e-300, 1e-300 * (1 - 1e-13)) == "mixed"
        assert direction(1.0, 1.0 - 2e-11) == direction(1e-300, 1e-300 * (1 - 2e-11)) == "down"
        assert direction(1.0 - 2e-11, 1.0) == "up"
        assert direction(1e-300, 0.0) == direction(5e-324, 0.0) == "down"
        assert direction(0.0, 0.0) == "mixed"
        # logs of ratios far below the smallest float still have a direction
        assert _direction([-800.0, -900.0, -1e6]) == "down"

    def test_gumbel_tail_below_1e_11_falls(self):
        # at y = -2 the conditional ratios fall strictly, from about 6.6e-4
        # to 3.1e-24, far below an absolute 1e-11 step
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8, w_law="gumbel")
        v = verify_numeric(spec)
        assert v.condition
        assert all(p.marginal_direction == "up" for p in v.probes)
        assert all(p.conditional_direction == "down" for p in v.probes)
        # at t = 2, s = 1 the y = -2 ratios underflow to exactly 0.0 at the
        # two largest x probes, but their logs still fall
        low, lower = (log_conditional_ratio(spec, 2.0, 1.0, x, -2.0) for x in (0.5, 1.0))
        assert math.exp(low) == math.exp(lower) == 0.0
        assert -math.inf < lower < low
        assert v.reversal_on_grid and v.matches_prediction

    @pytest.mark.parametrize("law", W_LAWS)
    def test_prediction_confirmed_at_half_and_twice_the_boundary(self, law):
        # the benchmark oracle ``check_numeric`` on the benchmark's spec
        # shape (rho at 1/2 or 2 times bx/|by|), for every W law
        rng = np.random.default_rng(W_LAWS.index(law))
        for i in range(40):
            bx, by, mu = (float(v) for v in rng.uniform((0.5, -2.5, -0.5), (1.5, -1.5, 0.5)))
            rho = (2.0 if i % 2 == 0 else 0.5) * bx / abs(by)
            v = verify_numeric(SurvivalSpec(beta_x=bx, beta_y=by, eta_mu=mu, eta_rho=rho, w_law=law))
            assert v.condition == (i % 2 == 0)
            assert v.matches_prediction is True, (bx, by, mu, rho)

    def test_bad_grids_rejected(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8)
        with pytest.raises(ModelError):
            verify_numeric(spec, s_grid=(0.0,))
        with pytest.raises(ModelError):
            verify_numeric(spec, x_probes=(0.0,))

    def test_independent_covariates_cox_informational(self):
        # with V normal the Y-marginal is a convolution of independent IFR
        # laws, hence IFR, so independent covariates (rho = 0) cannot show
        # the reversal in this model class for any parameters
        spec = SurvivalSpec(beta_x=1.0, beta_y=-3.0, eta_rho=0.0, w_law="gumbel")
        v = verify_numeric(spec)
        assert not v.condition
        assert not v.reversal_on_grid
        assert all(p.marginal_direction == "down" for p in v.probes)


def reference_verify(spec):
    """verify_numeric on the default grid with one marginal_ratio per (t, s, x)."""
    flags = check_condition(spec)
    probes = []
    for t in DEFAULT_T_GRID:
        for s in DEFAULT_S_GRID:
            dirs = {
                _direction([log_conditional_ratio(spec, t, s, x, y) for x in DEFAULT_X_PROBES])
                for y in DEFAULT_Y_PROBES
            }
            cond_dir = dirs.pop() if len(dirs) == 1 else "mixed"
            marg_dir = _direction([_log(marginal_ratio(spec, t, s, x)) for x in DEFAULT_X_PROBES])
            probes.append(ProbeResult(t, s, cond_dir, marg_dir, cond_dir == "down" and marg_dir == "up"))
    return SurvivalVerdict(
        flags.condition, flags.gaussian_equiv, tuple(probes), all(p.reversal for p in probes)
    )


class TestSharedMarginals:
    @pytest.mark.parametrize("law", W_LAWS)
    def test_each_marginal_integrated_once(self, monkeypatch, law):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_mu=0.3, eta_rho=0.8, w_law=law)
        want = reference_verify(spec)
        calls = []
        quad = quadpack.quad

        def spy(*args):
            calls.append(args)
            return quad(*args)

        monkeypatch.setattr(quadpack, "quad", spy)
        assert verify_numeric(spec) == want
        # 10 distinct t or t+s (0.25 to 3.0) at each of the 5 x probes, not 2 * 12 * 5
        assert len(calls) == 10 * 5

    def test_first_error_is_unchanged(self):
        # the Gumbel survival exp(-e^z) underflows in the marginal at x = 1
        # (z near 10) while the conditional log-space ratios stay finite
        spec = SurvivalSpec(beta_x=10.0, beta_y=-0.1, w_law="gumbel")
        with pytest.raises(ModelError) as want:
            reference_verify(spec)
        with pytest.raises(ModelError) as got:
            verify_numeric(spec)
        assert str(got.value) == str(want.value) == "P(T > 0.25 | x=1.0) vanished; grid point unusable"


class TestBaselineLaws:
    def test_logistic_law_values(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-1.0, w_law="logistic")
        # S(0 | 0, 0) = S_W(K(0)) = 1/2 under the logistic baseline
        assert _survival_function(spec.w_law)(spec.k(0.0)) == pytest.approx(0.5)

    def test_gumbel_residual_survival_is_proportional_hazards(self):
        # S(t | x, y) = exp(-e^(K(t) + bx x + by y)): the covariates scale
        # the cumulative hazard, so ln P(T > t+s | T > t, x, y) does too
        spec = SurvivalSpec(beta_x=0.7, beta_y=-0.3, eta_rho=0.2, w_law="gumbel")
        for t, s, x, y in (
            (0.3, 0.5, 0.5, 1.0),
            (1.0, 1.0, -1.0, 0.5),
            (2.0, 0.25, 1.0, -1.0),
            (0.5, 0.5, 0.0, 2.0),
            (1.5, 0.1, -0.5, -0.5),
        ):
            ratio = log_conditional_ratio(spec, t, s, x, y) / log_conditional_ratio(spec, t, s, 0.0, 0.0)
            assert ratio == pytest.approx(math.exp(0.7 * x - 0.3 * y), rel=1e-12)

    def test_logistic_survival_is_proportional_odds(self):
        # S = 1 / (1 + e^z) and 1 - S(z) = S(-z): the survival odds are e^-z
        # on both branches of its log, so a shift of z scales them by e^-shift
        survival = _survival_function("logistic")
        for z in (-30.0, -2.5, -0.1, 0.0, 0.1, 2.5, 30.0):
            for shift in (-1.0, 0.5, 2.0):
                odds = [survival(v) / survival(-v) for v in (z, z + shift)]
                assert odds[1] / odds[0] == pytest.approx(math.exp(-shift), rel=1e-12)

    def test_unknown_law_rejected(self):
        with pytest.raises(ModelError):
            SurvivalSpec(beta_x=1.0, beta_y=-1.0, w_law="cauchy")
        with pytest.raises(ModelError):
            SurvivalSpec(beta_x=1.0, beta_y=-1.0, v_law="gumbel")


class TestKTransform:
    def test_identity_tabulation_matches_identity(self):
        grid = tuple(np.linspace(-1.0, 4.0, 41))
        spec_tab = SurvivalSpec(
            beta_x=1.0, beta_y=-2.0, eta_rho=0.8, k_transform=(grid, grid)
        )
        spec_id = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8)
        for t, s, x, y in ((0.25, 0.5, 0.3, -0.5), (1.0, 1.0, -1.0, 1.0)):
            assert math.exp(log_conditional_ratio(spec_tab, t, s, x, y)) == pytest.approx(
                math.exp(log_conditional_ratio(spec_id, t, s, x, y)), rel=1e-9
            )

    def test_monotone_required(self):
        with pytest.raises(ModelError):
            SurvivalSpec(
                beta_x=1.0,
                beta_y=-2.0,
                k_transform=((0.0, 1.0, 2.0), (0.0, 2.0, 1.0)),
            )

    @pytest.mark.parametrize(
        "knots, steep",
        [
            (((0.0, 1.0, 2.0), (-1e308, 0.0, 1e308)), False),  # slopes of 1e308
            (((0.0, 1e-300, 1.0), (0.0, 1e10, 2e10)), True),  # a slope of 1e310
            (((0.0, 1e-200, 1.0), (0.0, 1e-100, 1.0)), False),  # slopes of 1e100 and 1
        ],
        ids=["knots0", "knots1", "knots2"],
    )
    def test_too_steep_is_an_infinite_slope(self, knots, steep):
        if steep:
            with pytest.raises(ModelError, match=r"too steep: its slope on \[0.0, 1e-300\] overflows"):
                SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=knots)
        else:
            spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=knots)
            assert [spec.k(t) for t in knots[0]] == list(knots[1])

    @pytest.mark.parametrize(
        "knots",
        [((-1e308, 1e308), (0.0, 1.0)), ((0.0, 10.0), (0.0, 5e-324))],
        ids=["span-overflows", "slope-underflows"],
    )
    def test_too_flat_is_a_zero_slope(self, knots):
        # either would make K constant on the whole segment
        with pytest.raises(ModelError, match="too flat: its slope on .* underflows"):
            SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=knots)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_knots_must_be_finite(self, bad):
        # a NaN knot passes the order check: every comparison with it is false
        for knots in (((0.0, 1.0, bad), (0.0, 1.0, 2.0)), ((0.0, 1.0, 2.0), (0.0, 1.0, bad))):
            with pytest.raises(ModelError, match="^k_transform knots must be finite$"):
                SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=knots)

    def test_exact_and_monotone_at_every_knot(self):
        rng = np.random.default_rng(35)
        knots = 0
        for _ in range(2000):
            m = int(rng.integers(2, 9))
            scale_t, scale_k = 10.0 ** rng.uniform(-6.0, 6.0, 2)
            ts = tuple(np.cumsum(rng.exponential(scale_t, m)) + rng.uniform(-1.0, 1.0) * scale_t * m)
            ks = tuple(np.cumsum(rng.exponential(scale_k, m)) + rng.uniform(-1.0, 1.0) * scale_k * m)
            if any(b <= a for seq in (ts, ks) for a, b in zip(seq, seq[1:])):
                continue  # two knots rounded together
            spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=(ts, ks))
            for t, k in zip(ts, ks):
                assert spec.k(t) == k
                assert spec.k(math.nextafter(t, -math.inf)) <= k <= spec.k(math.nextafter(t, math.inf))
                knots += 1
        assert knots > 10_000

    def test_interpolation_is_monotone(self):
        ts = (0.0, 0.5, 1.0, 2.0, 4.0)
        ks = (0.0, 0.1, 0.9, 1.0, 5.0)
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=(ts, ks))
        fine = np.linspace(0.0, 4.0, 400)
        vals = [spec.k(t) for t in fine]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


    def test_extrapolation_is_linear_and_increasing(self):
        # the secant slopes of the end segments are 1.8 and 0.2
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, k_transform=((0.0, 0.5, 1.0), (0.0, 0.9, 1.0)))
        assert spec.k(3.0) == pytest.approx(1.4, abs=1e-15)
        assert spec.k(-1.0) == pytest.approx(-1.8, abs=1e-15)
        vals = np.array([spec.k(t) for t in np.linspace(-2.0, 6.0, 801)])
        assert np.all(np.diff(vals) > 0.0)


def close(got: float, want: float, rel: float) -> bool:
    """Within rel of want where want is a normal float.  Below the smallest
    normal float the values are subnormal (scipy's ndtr flushes them to 0),
    so there both must lie within that smallest normal of each other."""
    return abs(got - want) <= max(rel * abs(want), sys.float_info.min)


class TestNormalTail:
    """The std-normal baseline from math.erfc and A&S 26.2.12 against scipy.special."""

    ZS = [
        *np.linspace(-40.0, 40.0, 8001).tolist(),
        *np.geomspace(40.0, 1e3, 200).tolist(),
        *(-np.geomspace(40.0, 1e3, 200)).tolist(),
        19.999999999, 20.0, 20.000000001, 37.5, 38.5,
    ]

    def test_survival_function(self):
        sf = _survival_function("std-normal")
        bad = [z for z in self.ZS if not close(sf(z), float(ndtr(-z)), 1e-13)]
        assert bad == []

    def test_log_survival(self):
        bad = [z for z in self.ZS if not close(_log_survival(z, "std-normal"), float(log_ndtr(-z)), 1e-13)]
        assert bad == []

    def test_log_survival_continuous_at_series_switch(self):
        below, above = (_log_survival(z, "std-normal") for z in (20.0, math.nextafter(20.0, 21.0)))
        assert above == pytest.approx(below, rel=1e-14)

    def test_infinite_arguments(self):
        assert _log_survival(math.inf, "std-normal") == -math.inf
        assert _log_survival(-math.inf, "std-normal") == 0.0
        assert _survival_function("std-normal")(-math.inf) == 1.0


class TestJson:
    def test_roundtrip(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_mu=0.1, eta_rho=0.8)
        back = SurvivalSpec.from_json(
            '{"beta_x":1.0,"beta_y":-2.0,"eta":{"mu":0.1,"rho":0.8},'
            '"w_law":"std-normal","v_law":"std-normal"}'
        )
        assert back.to_json_dict() == spec.to_json_dict()

    def test_k_transform_roundtrip(self):
        spec = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8, k_transform=((0, 1, 3), (-1, 0.5, 2)))
        payload = spec.to_json_dict()
        assert payload["k_transform"] == {"t": [0.0, 1.0, 3.0], "k": [-1.0, 0.5, 2.0]}
        back = SurvivalSpec.from_json_dict(payload)
        assert back.k_transform == spec.k_transform
        assert back.to_json_dict() == payload

    def test_malformed(self):
        with pytest.raises(ModelError):
            SurvivalSpec.from_json('{"beta_x": 1.0}')
