import json
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import regress
from collapsekit.errors import DistributionError, RouteDisagreementError
from collapsekit.regress import (
    RegressionStratum,
    StratifiedRegressionSummary,
    check_a_collapsibility,
    check_parallel_collapsibility,
    summary_from_records,
)

S = RegressionStratum


def mixture_points(summary):
    """Explicit four-point-per-stratum mixture realizing the summary moments."""
    pts = []
    for s in summary.strata:
        sd_x = np.sqrt(s.s_xx)
        resid = np.sqrt(max(s.s_yy - s.beta**2 * s.s_xx, 0.0))
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                pts.append(
                    (
                        s.pi / 4.0,
                        s.mu_x + sx * sd_x,
                        s.mu_y + sx * s.beta * sd_x + sy * resid,
                    )
                )
    return pts


def brute_force_slope(summary):
    pts = mixture_points(summary)
    w = np.array([p for p, _, _ in pts])
    xs = np.array([x for _, x, _ in pts])
    ys = np.array([y for _, _, y in pts])
    ex, ey = (w * xs).sum(), (w * ys).sum()
    return ((w * xs * ys).sum() - ex * ey) / ((w * xs * xs).sum() - ex * ex)


def random_summary(rng, n_levels=None, parallel=False):
    n = n_levels or int(rng.integers(2, 5))
    pis = rng.uniform(0.2, 1.0, n)
    pis /= pis.sum()
    beta0 = rng.uniform(-2.0, 2.0)
    strata = []
    for i in range(n):
        beta = beta0 if parallel else rng.uniform(-2.0, 2.0)
        s_xx = rng.uniform(0.5, 2.0)
        strata.append(
            S(
                pi=float(pis[i]),
                alpha=rng.uniform(-2.0, 2.0),
                beta=float(beta),
                mu_x=rng.uniform(-2.0, 2.0),
                s_xx=float(s_xx),
                s_yy=float(beta * beta * s_xx + rng.uniform(0.1, 2.0)),
            )
        )
    return StratifiedRegressionSummary(tuple(strata))


class TestValidation:
    def test_weights_sum(self):
        with pytest.raises(DistributionError):
            StratifiedRegressionSummary(
                (S(0.5, 0, 1, 0, 1, 2), S(0.4, 0, 1, 0, 1, 2))
            )

    def test_positive_variances(self):
        with pytest.raises(DistributionError):
            StratifiedRegressionSummary((S(1.0, 0, 1, 0, 0.0, 2),))

    def test_realizability(self):
        # Var(Y|A) cannot be below beta^2 Var(X|A)
        with pytest.raises(DistributionError):
            StratifiedRegressionSummary((S(1.0, 0, 2, 0, 1.0, 1.0),))

    @pytest.mark.parametrize("field", range(6))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_moments(self, field, bad):
        # NaN passes every sign and tolerance test, so it needs its own check
        moments = [1.0, 0.0, 1.0, 0.0, 1.0, 2.0]
        moments[field] = bad
        with pytest.raises(DistributionError, match="finite"):
            StratifiedRegressionSummary((S(*moments),))

    def test_derived_fields(self):
        s = S(1.0, 2.0, 3.0, 0.5, 1.0, 10.0)
        assert s.mu_y == 2.0 + 3.0 * 0.5
        assert s.s_yx == 3.0

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        summ = random_summary(rng)
        back = StratifiedRegressionSummary.from_json(json.dumps(summ.to_json_dict()))
        assert len(back.strata) == len(summ.strata)
        assert back.strata[0].alpha == summ.strata[0].alpha


class TestMarginalBeta:
    def test_single_level(self):
        summ = StratifiedRegressionSummary((S(1.0, 0.5, 1.7, 0.3, 1.2, 4.0),))
        assert check_a_collapsibility(summ).beta_marginal == pytest.approx(1.7, abs=1e-15)

    def test_constant_mu_x_parallel(self):
        summ = StratifiedRegressionSummary(
            (S(0.4, 1.0, 2.0, 0.7, 1.0, 5.0), S(0.6, -1.0, 2.0, 0.7, 2.0, 9.0))
        )
        assert check_a_collapsibility(summ).beta_marginal == pytest.approx(2.0, abs=1e-12)

    def test_matches_brute_force_mixture(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            summ = random_summary(rng)
            assert check_a_collapsibility(summ).beta_marginal == pytest.approx(
                brute_force_slope(summ), abs=1e-9
            )


class TestParallelCollapsibility:
    def test_constant_alpha_collapsible(self):
        summ = StratifiedRegressionSummary(
            (S(0.3, 2.0, 1.5, -1.0, 1.0, 4.0), S(0.7, 2.0, 1.5, 2.0, 0.5, 3.0))
        )
        v = check_parallel_collapsibility(summ)
        assert v.collapsible and v.a_collapsible
        assert v.beta_gap <= 1e-12

    def test_shared_line_collapsible_random(self):
        # E[Y | X, A] = alpha + beta X in every stratum makes Y mean-independent
        # of A given X, so the marginal slope is beta whatever X's law per stratum
        rng = np.random.default_rng(11)
        for _ in range(30):
            summ = random_summary(rng, parallel=True)
            alpha, beta = summ.strata[0].alpha, summ.strata[0].beta
            shared = StratifiedRegressionSummary(
                tuple(S(s.pi, alpha, beta, s.mu_x, s.s_xx, s.s_yy) for s in summ.strata)
            )
            v = check_parallel_collapsibility(shared)
            assert v.collapsible and v.a_collapsible
            assert v.beta_marginal == pytest.approx(beta, abs=1e-12)
            assert v.beta_marginal == pytest.approx(brute_force_slope(shared), abs=1e-9)

    def test_proportional_means_collapsible(self):
        # beta = mu_y / mu_x for every level means alpha vanishes identically
        summ = StratifiedRegressionSummary(
            (S(0.5, 0.0, 1.5, 1.0, 1.0, 4.0), S(0.5, 0.0, 1.5, 2.0, 0.5, 3.0))
        )
        v = check_parallel_collapsibility(summ)
        assert v.collapsible
        for s in summ.strata:
            assert s.beta == pytest.approx(s.mu_y / s.mu_x)

    def test_intercept_mean_covariance_blocks_collapse(self):
        summ = StratifiedRegressionSummary(
            (S(0.5, 0.0, 1.0, 0.0, 1.0, 2.0), S(0.5, 1.0, 1.0, 1.0, 1.0, 2.0))
        )
        v = check_parallel_collapsibility(summ)
        assert not v.collapsible
        assert v.lhs == pytest.approx(0.25)
        assert v.beta_marginal != pytest.approx(1.0)

    def test_non_parallel_rejected(self):
        rng = np.random.default_rng(2)
        summ = random_summary(rng, parallel=False)
        with pytest.raises(DistributionError):
            check_parallel_collapsibility(summ)

    @pytest.mark.parametrize(
        "betas, parallel",
        [
            ((1.0, 1.0), True), ((0.5, 0.5, 0.5), True), ((0.0, 2e-12), False),
            ((0.0, 1e-12, -0.9e-12), False), ((0.0, 1e-12), False),
        ],
    )
    def test_one_slope_rule_in_any_order(self, betas, parallel):
        # the rule regress-audit applies too: equal slopes, in any stratum order
        for order in itertools.permutations(betas):
            summ = StratifiedRegressionSummary(
                tuple(S(1 / len(order), 0.0, b, float(i), 1.0, 2.0) for i, b in enumerate(order))
            )
            assert regress.is_parallel(summ) is parallel
            if not parallel:
                with pytest.raises(DistributionError, match="different slopes"):
                    check_parallel_collapsibility(summ)

    def test_route_agreement_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            summ = random_summary(rng, parallel=True)
            v = check_parallel_collapsibility(summ)
            assert v.collapsible == (v.identity_gap <= v.tol)
            assert v.collapsible == (v.beta_gap <= v.tol)


def _around(x: float) -> list[float]:
    """x and its nextafter neighbours."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


class TestOneDecidingRoute:
    """The identity route decides; the beta gap is held to a tol-free
    rounding bound, so a tol at either route's value never raises."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 1.0, 1e3, 1e6]), st.data())
    def test_tol_at_a_route_value(self, seed, parallel, offset, data):
        rng = np.random.default_rng(seed)
        base = random_summary(rng, parallel=parallel)
        # shift mu_x (and with it mu_y) far from 0; half the time make the
        # summary collapsible by construction, so both sides are about 0
        same = data.draw(st.booleans())
        summ = StratifiedRegressionSummary(
            tuple(
                S(s.pi, 1.25 if same and parallel else s.alpha, s.beta,
                  0.4 + offset if same and not parallel else s.mu_x + offset,
                  1.3 if same and not parallel else s.s_xx, s.s_yy + 10.0)
                for s in base.strata
            )
        )
        check = check_parallel_collapsibility if parallel else check_a_collapsibility
        v = check(summ)
        scaled = v.identity_gap / regress._marginal_line(summ.arrays())[2]
        tol = data.draw(st.sampled_from(_around(scaled) + _around(v.beta_gap)))
        w = check(summ, tol=tol)
        assert w.a_collapsible == (scaled <= tol)


_TINY_OR_NOT = st.sampled_from([0.0, 5e-324, -1e-320, 2.2250738585072014e-308, -1e-300, 1e-160, 0.5, -2.0, 1e6])


class TestUnderflowingMoments:
    """A product that underflows errs by an absolute amount that no
    relative bound covers; it must not read as a broken route."""

    @pytest.mark.parametrize("beta", [5e-324, -1e-320, 2.2250738585072014e-308, 1e-160])
    @pytest.mark.parametrize("check", [check_parallel_collapsibility, check_a_collapsibility])
    def test_tiny_common_slope(self, check, beta):
        summ = StratifiedRegressionSummary((S(0.5, 0.0, beta, 0.0, 1.0, 2.0), S(0.5, 0.0, beta, 1.0, 1.0, 2.0)))
        assert check(summ).a_collapsible

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(_TINY_OR_NOT, _TINY_OR_NOT, _TINY_OR_NOT, st.sampled_from([1e-300, 1.0, 3.0])),
                 min_size=1, max_size=4),
        st.booleans(),
    )
    def test_never_a_route_disagreement(self, moments, parallel):
        betas = [moments[0][1] if parallel else beta for _, beta, _, _ in moments]
        summ = StratifiedRegressionSummary(
            tuple(
                S(1 / len(moments), alpha, beta, mu_x, s_xx, beta * beta * s_xx + 2.0)
                for (alpha, _, mu_x, s_xx), beta in zip(moments, betas)
            )
        )
        try:
            (check_parallel_collapsibility if parallel else check_a_collapsibility)(summ)
        except DistributionError:
            pass  # a marginal Var(X) that underflows to 0, or moments that overflow


class TestBrokenRouteRaises:
    @pytest.mark.parametrize("check", [check_parallel_collapsibility, check_a_collapsibility])
    def test_shifted_marginal_slope(self, monkeypatch, check):
        summ = random_summary(np.random.default_rng(8), parallel=True)
        real = regress._marginal_line

        def shifted(a):
            beta, alpha, var_x = real(a)
            return beta + 1e-6, alpha, var_x

        check(summ)
        monkeypatch.setattr(regress, "_marginal_line", shifted)
        with pytest.raises(RouteDisagreementError, match="more than rounding"):
            check(summ)


def shifted_intercepts(s_xx):
    """Parallel strata whose Cov(alpha, mu_x) is 1e-8; the slope moves by 1e-8 / Var(X)."""
    return StratifiedRegressionSummary(
        (S(0.5, 2e-8, 0.5, 0.5, s_xx, 30.0 + s_xx), S(0.5, -2e-8, 0.5, -0.5, s_xx, 30.0 + s_xx))
    )


class TestRoutesOnTheSlopeScale:
    def test_large_x_spread_is_collapsible(self):
        summ = shifted_intercepts(100.0)
        v = check_parallel_collapsibility(summ)
        assert v.collapsible and v.a_collapsible
        # reported fields keep their own scales
        assert v.identity_gap == pytest.approx(1e-8)
        assert v.beta_gap == pytest.approx(1e-8 / 100.25)
        assert check_a_collapsibility(summ).a_collapsible

    @pytest.mark.parametrize("s_xx", [1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4])
    def test_sweep_never_raises(self, s_xx):
        summ = shifted_intercepts(s_xx)
        v = check_parallel_collapsibility(summ)
        assert v.collapsible == (v.beta_gap <= v.tol)
        assert check_a_collapsibility(summ).a_collapsible == v.collapsible


class TestACollapsibility:
    def test_parallel_collapsible_implies_a_collapsible(self):
        summ = StratifiedRegressionSummary(
            (S(0.3, 2.0, 1.5, -1.0, 1.0, 4.0), S(0.7, 2.0, 1.5, -1.0, 0.5, 3.0))
        )
        assert check_parallel_collapsibility(summ).collapsible
        assert check_a_collapsibility(summ).a_collapsible

    def test_constant_means_identity_zero(self):
        summ = StratifiedRegressionSummary(
            (S(0.5, 1.0, 1.0, 0.0, 1.0, 2.0), S(0.5, 1.0, 2.0, 0.0, 1.0, 5.0))
        )
        v = check_a_collapsibility(summ)
        assert v.lhs == 0.0 and v.rhs == 0.0
        assert v.a_collapsible
        assert v.beta_marginal == pytest.approx(1.5)

    def test_degradation_counterexample(self):
        summ = StratifiedRegressionSummary(
            (S(0.5, 0.0, 1.0, 0.0, 1.0, 2.0), S(0.5, 0.0, 3.0, 0.0, 2.0, 20.0))
        )
        v = check_a_collapsibility(summ)
        assert not v.a_collapsible
        assert v.lhs == pytest.approx(0.0)
        assert v.rhs == pytest.approx(0.5)

    def test_route_agreement_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            summ = random_summary(rng)
            v = check_a_collapsibility(summ)
            assert v.a_collapsible == (v.identity_gap <= v.tol)
            assert v.a_collapsible == (v.beta_gap <= v.tol)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        summ = random_summary(rng, n_levels=4)
        v = check_a_collapsibility(summ)
        perm = rng.permutation(4)
        shuffled = StratifiedRegressionSummary(
            tuple(summ.strata[i] for i in perm)
        )
        v2 = check_a_collapsibility(shuffled)
        assert v2.a_collapsible == v.a_collapsible
        assert v2.beta_marginal == pytest.approx(v.beta_marginal, abs=1e-12)


class TestRecordsIngestion:
    def test_exact_moments(self):
        y = [1.0, 3.0, 2.0, 4.0]
        x = [0.0, 1.0, 0.0, 2.0]
        a = ["u", "u", "v", "v"]
        summ = summary_from_records(y, x, a)
        u, v = summ.strata
        assert u.label == "u" and v.label == "v"
        assert u.pi == 0.5
        assert u.mu_x == 0.5
        assert u.beta == pytest.approx(2.0)  # cov = 0.5, var = 0.25... cov/var
        assert u.alpha == pytest.approx(1.0)
        assert v.beta == pytest.approx(1.0)

    def test_population_divisor(self):
        summ = summary_from_records([0.0, 1.0], [0.0, 1.0], ["g", "g"])
        assert summ.strata[0].s_xx == pytest.approx(0.25)

    def test_degenerate_x_rejected(self):
        with pytest.raises(DistributionError):
            summary_from_records([1.0, 2.0], [1.0, 1.0], ["g", "g"])

    def test_misaligned_rejected(self):
        with pytest.raises(DistributionError):
            summary_from_records([1.0], [1.0, 2.0], ["g", "g"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_records_rejected(self, bad):
        with pytest.raises(DistributionError, match="finite"):
            summary_from_records([1.0, bad, 0.0], [0.0, 1.0, 2.0], ["g", "g", "g"])
        with pytest.raises(DistributionError, match="finite"):
            summary_from_records([1.0, 0.0, 0.0], [0.0, bad, 2.0], ["g", "g", "g"])

    @pytest.mark.parametrize("seed, n, k", [(0, 7, 3), (1, 300, 5), (2, 5000, 50), (3, 2000, 2)])
    def test_bit_identical_to_per_stratum_masks(self, seed, n, k):
        rng = np.random.default_rng(seed)
        labels = [f"s{i}" for i in rng.permutation(k)]
        a = [labels[i] for i in rng.integers(0, k, n)]
        a[: k] = labels  # every stratum shows up, interleaved with the rest
        a[k : 2 * k] = labels[::-1]
        x = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)).tolist()
        y = (rng.normal(size=n) * 1e3 + 0.5 * np.array(x)).tolist()
        got = summary_from_records(y, x, a).strata
        want = _masked_moments(y, x, a)
        assert [s.label for s in got] == [w["label"] for w in want]
        for s, w in zip(got, want):
            for key in ("pi", "alpha", "beta", "mu_x", "s_xx", "s_yy"):
                assert getattr(s, key) == w[key], key

    def test_roundtrip_through_audit(self):
        rng = np.random.default_rng(10)
        n = 60
        a = rng.choice(["p", "q", "r"], n)
        x = rng.normal(size=n)
        y = 1.5 * x + rng.normal(size=n)
        summ = summary_from_records(y, x, a)
        assert sum(s.pi for s in summ.strata) == pytest.approx(1.0)
        v = check_a_collapsibility(summ)
        assert v.beta_gap == pytest.approx(v.identity_gap / (
            np.dot([s.pi for s in summ.strata], [s.s_xx for s in summ.strata])
            + np.cov(
                [s.mu_x for s in summ.strata],
                aweights=[s.pi for s in summ.strata],
                ddof=0,
            )
        ), rel=1e-6)


def _masked_moments(y, x, a) -> list[dict]:
    """Per-stratum moments by one boolean mask per first-appearance label."""
    ya, xa = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    order: list = []
    for lbl in a:
        if lbl not in order:
            order.append(lbl)
    out = []
    for lbl in order:
        sel = np.array([v == lbl for v in a])
        ys, xs = ya[sel], xa[sel]
        s_xx = float(xs.var())
        beta = float(((ys - ys.mean()) * (xs - xs.mean())).mean()) / s_xx
        mu_x = float(xs.mean())
        out.append(
            {
                "pi": float(sel.sum()) / len(ya),
                "alpha": float(ys.mean()) - beta * mu_x,
                "beta": beta,
                "mu_x": mu_x,
                "s_xx": s_xx,
                "s_yy": float(ys.var()),
                "label": str(lbl),
            }
        )
    return out
