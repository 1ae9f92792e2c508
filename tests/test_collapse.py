import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import collapse
from collapsekit.collapse import check_collapsibility, check_strict_collapsibility
from collapsekit.errors import RouteDisagreementError, SchemeError
from collapsekit.loglinear import decompose, interaction
from collapsekit.subsets import axes_of, mask_of, submasks
from collapsekit.tables import CategoricalScheme, ContingencyTable

from conftest import ci_constructed_table, max_abs, random_positive_table


def product_table(rng, shape=(2, 3, 2)):
    margins = []
    for m in shape:
        v = rng.uniform(0.2, 1.0, m)
        margins.append(v / v.sum())
    cells = margins[0][:, None, None] * margins[1][None, :, None] * margins[2][None, None, :]
    scheme = CategoricalScheme(
        tuple((f"x{j}", tuple(f"l{i}" for i in range(m))) for j, m in enumerate(shape))
    )
    return ContingencyTable(scheme, cells / cells.sum(), "probability")


class TestPlainCollapsibility:
    def test_ci_construction_collapsible(self):
        rng = np.random.default_rng(0)
        t = ci_constructed_table(rng)
        v = check_collapsibility(t, ["x1", "x2"], ["x1", "x2"])
        assert v.collapsible
        assert v.max_residual <= 1e-12

    def test_product_table_everything_collapsible(self):
        rng = np.random.default_rng(1)
        t = product_table(rng)
        for target, margin in ((["x0"], ["x0"]), (["x0"], ["x0", "x1"]), (["x0", "x1"], ["x0", "x1"])):
            v = check_collapsibility(t, target, margin)
            assert v.collapsible
            assert v.max_residual <= 1e-12

    def test_admission_not_collapsible(self, admission_table):
        v = check_collapsibility(admission_table.normalize(), ["A", "X"], ["A", "X"])
        assert not v.collapsible
        assert v.max_residual > 0.1

    def test_routes_agree_numerically(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = random_positive_table(rng, n=int(rng.integers(3, 5)), max_levels=3)
            n = t.scheme.n
            b_size = int(rng.integers(1, n))
            b = tuple(sorted(rng.permutation(n)[:b_size].tolist()))
            a_size = int(rng.integers(1, len(b) + 1))
            a = tuple(sorted(rng.permutation(np.array(b))[:a_size].tolist()))
            v = check_collapsibility(t, a, b)
            assert abs(v.max_residual - v.direct_gap) <= 1e-10

    def test_delta_consistency(self):
        # averaged residuals decompose into sums of per-subset differences:
        # dtilde_A = sum over Z inside A of (eta_Z - tau_Z)
        rng = np.random.default_rng(3)
        t = random_positive_table(rng, n=3, max_levels=3)
        b_axes = (0, 1)
        full = decompose(t)
        marg_table = t.marginalize(b_axes)
        marg = decompose(marg_table)
        ltilde_b = np.log(t.cells).mean(axis=2)
        d = np.log(marg_table.cells) - ltilde_b
        for a_mask in (0b01, 0b10, 0b11):
            a_axes = axes_of(a_mask)
            comp = tuple(x for x in range(2) if x not in a_axes)
            dtilde = d.mean(axis=comp) if comp else d
            total = np.zeros_like(np.asarray(dtilde, dtype=float))
            for z in submasks(a_mask):
                z_axes = axes_of(z)
                delta = np.asarray(marg.tau(z_axes)) - np.asarray(full.tau(z_axes))
                if z == a_mask:
                    total = total + delta
                else:
                    shape = tuple(
                        d.shape[x] if (z >> x) & 1 else 1 for x in a_axes
                    )
                    total = total + delta.reshape(shape)
            assert np.max(np.abs(np.asarray(dtilde) - total)) <= 1e-9

    def test_target_outside_margin(self, admission_table):
        with pytest.raises(SchemeError):
            check_collapsibility(admission_table.normalize(), ["A", "D"], ["A", "X"])

    def test_margin_full_set(self, admission_table):
        with pytest.raises(SchemeError):
            check_collapsibility(admission_table.normalize(), ["A"], ["A", "X", "D"])


class TestStrictCollapsibility:
    def test_ci_construction_strict(self):
        rng = np.random.default_rng(4)
        t = ci_constructed_table(rng)
        v = check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"])
        assert v.strict
        assert v.ci is not None and v.ci.holds
        # the verdict covers tau_{x1} and tau_{x1,x2}
        assert set(v.set_gaps) == {("x1",), ("x1", "x2")}
        assert all(g <= 1e-10 for g in v.set_gaps.values())

    def test_strict_implies_plain_for_every_set_member(self):
        rng = np.random.default_rng(5)
        t = ci_constructed_table(rng)
        assert check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"]).strict
        for target in (["x1"], ["x1", "x2"]):
            assert check_collapsibility(t, target, ["x1", "x2"]).collapsible

    def test_product_table_strict_everywhere(self):
        rng = np.random.default_rng(6)
        t = product_table(rng)
        names = t.scheme.names
        for a, b, c in (
            ((names[0],), (names[1],), (names[2],)),
            ((names[1],), (names[2],), (names[0],)),
            ((names[0], names[1]), (), (names[2],)),
        ):
            assert check_strict_collapsibility(t, a, b, c).strict

    def test_death_penalty_not_strict(self, death_penalty_table):
        p = death_penalty_table.normalize(smoothing=0.5)
        v = check_strict_collapsibility(p, ["A", "D"], [], ["V"])
        assert not v.strict
        assert not v.ci.holds

    def test_perturbation_flips_strictness(self):
        rng = np.random.default_rng(7)
        t = ci_constructed_table(rng)
        assert check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"]).strict
        cells = t.cells.copy()
        cells[(0,) * cells.ndim] += 0.01
        cells /= cells.sum()
        pert = ContingencyTable(t.scheme, cells, "probability")
        v = check_strict_collapsibility(pert, ["x1"], ["x2"], ["x3"])
        assert not v.strict
        assert v.zero_set_max > 1e-8 or max(v.set_gaps.values()) > 1e-8

    def test_partition_required(self, admission_table):
        p = admission_table.normalize()
        with pytest.raises(SchemeError):
            check_strict_collapsibility(p, ["A"], ["X"], ["X"])
        with pytest.raises(SchemeError):
            check_strict_collapsibility(p, ["A"], ["X"], [])

    def test_three_binary_iff_pattern(self):
        # strict collapsibility of a 3-way table over the third variable is
        # exactly the vanishing of the three-factor and the target-third terms
        rng = np.random.default_rng(8)
        t = ci_constructed_table(rng, 2, 2, 2)
        dec = decompose(t)
        assert max_abs(dec, [0, 1, 2]) <= 1e-10
        assert max_abs(dec, [0, 2]) <= 1e-10
        assert check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"]).strict


class TestWideTables:
    """Seven or more variables: the checks against the full decompositions.

    ``decompose`` of 7+ variables centers axis by axis while the checks ask
    for fewer masks, so the two agree to rounding, not bit for bit.
    """

    BOUND = 1e-12

    @pytest.fixture(scope="class")
    def bulk(self):
        # the bulk-desk shape: 7 binary and 3 ternary variables
        shape = (2,) * 7 + (3,) * 3
        cells = np.random.default_rng(21).uniform(0.05, 1.0, shape)
        scheme = CategoricalScheme(
            tuple((f"x{j}", tuple(f"l{i}" for i in range(m))) for j, m in enumerate(shape))
        )
        t = ContingencyTable(scheme, cells / cells.sum(), "probability")
        return t, decompose(t)

    def assert_close(self, got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= self.BOUND

    @pytest.mark.parametrize(
        "a, b", [((0, 7), (0, 1, 7, 8)), (tuple(range(7)), tuple(range(8)))]
    )
    def test_plain_collapse(self, bulk, a, b):
        t, full = bulk
        v = check_collapsibility(t, a, b)
        self.assert_close(v.tau_full, full.tau(a))
        marg = decompose(t.marginalize(b))
        self.assert_close(v.eta_marginal, marg.tau(tuple(b.index(x) for x in a)))

    @pytest.mark.parametrize(
        "a, g, c", [((0,), (1, 2), tuple(range(3, 10))), ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))]
    )
    def test_strict_collapse(self, bulk, a, g, c):
        t, full = bulk
        v = check_strict_collapsibility(t, a, g, c)
        margin = tuple(sorted(a + g))
        marg = decompose(t.marginalize(margin))
        self.assert_close(v.tau_full, full.tau(a))
        self.assert_close(v.eta_marginal, marg.tau(tuple(margin.index(x) for x in a)))
        assert len(v.set_gaps) == (1 << len(margin)) - (1 << len(g))
        for l_mask in submasks(mask_of(margin)):
            if l_mask & mask_of(a):
                l_axes = axes_of(l_mask)
                l_pos = tuple(margin.index(x) for x in l_axes)
                gap = float(np.max(np.abs(full.tau(l_axes) - marg.tau(l_pos))))
                assert abs(v.set_gaps[t.scheme.subset_names(l_axes)] - gap) <= self.BOUND
        zero = max(
            max_abs(full, axes_of(m))
            for m in range(1 << t.scheme.n)
            if m & mask_of(a) and m & mask_of(c)
        )
        assert abs(v.zero_set_max - zero) <= self.BOUND

    def test_interaction_over_seven_variables(self, bulk):
        t, full = bulk
        a = (0, 2, 4, 6, 7, 8, 9)
        self.assert_close(interaction(t, a), full.tau(a))


def _table(cells: np.ndarray) -> ContingencyTable:
    scheme = CategoricalScheme(
        tuple((f"x{j}", tuple(f"l{i}" for i in range(m))) for j, m in enumerate(cells.shape))
    )
    return ContingencyTable(scheme, cells / cells.sum(), "probability")


@st.composite
def _near_ci_tables(draw):
    """ln p = f(A, B) + g(B, C) + delta * noise over a random partition
    (A, B, C) of 2-4 variables, and a tol log-uniform in [1e-14, 10]."""
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    n = len(shape)
    order = draw(st.permutations(range(n)))
    n_a = draw(st.integers(1, n - 1))
    n_c = draw(st.integers(1, n - n_a))
    a, c, b = sorted(order[:n_a]), sorted(order[n_a:n_a + n_c]), sorted(order[n_a + n_c:])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def term(axes):
        return rng.normal(0.0, 2.0, [m if x in axes else 1 for x, m in enumerate(shape)])

    delta = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1.0]))
    logp = term(a + b) + term(b + c) + delta * rng.normal(size=shape)
    return _table(np.exp(logp)), a, b, c, 10.0 ** draw(st.floats(-14.0, 1.0))


def _log_ci_residual(p: np.ndarray, a, c) -> np.ndarray:
    """ln p + ln p_B - ln p_AB - ln p_BC, from the table's own margins."""
    def log_sum(axes):
        return np.log(p.sum(axis=tuple(axes), keepdims=True))

    return np.log(p) + log_sum(a + c) - log_sum(c) - log_sum(a)


def _around(x: float) -> list[float]:
    """x and its nextafter neighbours, the positive ones only."""
    return [t for t in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)) if t > 0.0]


class TestOneDecidingRoute:
    """Each verdict is decided by one route at tol; the other route is only
    held to a tol-free rounding bound, so no tol can make them disagree."""

    @settings(max_examples=60, deadline=None)
    @given(_near_ci_tables())
    def test_strict_is_the_tau_route_at_any_tol(self, case):
        t, a, b, c, tol = case
        v = check_strict_collapsibility(t, a, b, c, tol=tol)
        assert v.collapsible == (max(v.set_gaps.values()) <= tol)
        assert v.strict == (v.collapsible and v.zero_set_max <= tol)
        assert v.collapsible or not v.strict
        # every zero-set interaction is bounded by the log CI residual
        k = math.prod(2 - 2 / m for m in t.scheme.shape)
        r = _log_ci_residual(t.cells, a, c)
        slack = 2**t.scheme.n * np.finfo(float).eps * np.max(np.abs(np.log(t.cells)))
        assert v.zero_set_max <= k * np.max(np.abs(r)) + slack

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_plain_at_a_route_value(self, seed, data):
        rng = np.random.default_rng(seed)
        t = random_positive_table(rng)
        n = t.scheme.n
        margin = sorted(rng.choice(n, int(rng.integers(1, n)), replace=False).tolist())
        target = margin[: int(rng.integers(1, len(margin) + 1))]
        v = check_collapsibility(t, target, margin)
        tol = data.draw(st.sampled_from(_around(v.max_residual) + _around(v.direct_gap)))
        w = check_collapsibility(t, target, margin, tol=tol)
        assert w.collapsible == (w.max_residual <= tol)

    def test_zero_set_within_tol_is_not_enough(self):
        # ln p = g(c) + s_a (h s1 + h s2 + h s1 s2), g weighting c = (+, +):
        # the zero set is h = 0.01, but collapsing moves tau_{x0} by 0.029
        s = np.array([-1.0, 1.0])
        sa, s1, s2 = s[:, None, None], s[None, :, None], s[None, None, :]
        g = np.zeros((1, 2, 2))
        g[0, 1, 1] = 5.0
        t = _table(np.exp(g + sa * 0.01 * (s1 + s2 + s1 * s2)))
        v = check_strict_collapsibility(t, ["x0"], [], ["x1", "x2"], tol=0.02)
        assert v.zero_set_max <= 0.02 < v.set_gaps[("x0",)]
        assert not v.collapsible and not v.strict

    def test_loose_tol_is_strict_without_ci(self, death_penalty_table):
        # the set gap (0.44) and zero set (0.79) decide at tol 1; the CI
        # deviation (0.14 on the probability scale, over its own 1e-9) is
        # reported only
        p = death_penalty_table.normalize(smoothing=0.5)
        v = check_strict_collapsibility(p, ["A", "D"], [], ["V"], tol=1.0)
        assert v.strict and v.collapsible and not v.ci.holds


class TestBrokenRouteRaises:
    """A route off by far more than rounding is a bug, and raises."""

    def test_shifted_residual(self, monkeypatch):
        t = ci_constructed_table(np.random.default_rng(0))
        real = collapse.mobius
        calls = []

        def shifted(x, masks):
            # the routes ask for tau, then eta, then the residual
            calls.append(x)
            out = real(x, masks)
            return {m: a + 1e-6 for m, a in out.items()} if len(calls) % 3 == 0 else out

        monkeypatch.setattr(collapse, "mobius", shifted)
        with pytest.raises(RouteDisagreementError, match="residual route"):
            check_collapsibility(t, ["x1", "x2"], ["x1", "x2"])
        assert len(calls) == 3
        with pytest.raises(RouteDisagreementError, match="residual route"):
            check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"])

    @pytest.mark.parametrize("scale", [4.0, 1e6])
    def test_scaled_zero_set(self, monkeypatch, death_penalty_table, scale):
        # A = {A, D}, C = {V}: the interactions of ln p meeting V are the zero
        # set, 0.79 at most against max|r| = 2.63 (K = 1 on binary axes)
        p = death_penalty_table.normalize(smoothing=0.5)
        real = collapse.mobius
        v_mask = mask_of((1,))

        def scaled(x, masks):
            # only tau is asked for masks meeting V: the margin's and the
            # residual's masks lie inside {A, D}
            return {m: arr * scale if m & v_mask else arr for m, arr in real(x, masks).items()}

        assert check_strict_collapsibility(p, ["A", "D"], [], ["V"]).zero_set_max > 0.75
        monkeypatch.setattr(collapse, "mobius", scaled)
        with pytest.raises(RouteDisagreementError, match="zero set"):
            check_strict_collapsibility(p, ["A", "D"], [], ["V"])

    def test_scaled_zero_set_of_a_ci_table(self, monkeypatch):
        t = ci_constructed_table(np.random.default_rng(4))
        real = collapse.mobius
        x3 = mask_of((2,))
        monkeypatch.setattr(
            collapse, "mobius",
            lambda x, masks: {m: a + 1e-9 if m & x3 else a for m, a in real(x, masks).items()},
        )
        with pytest.raises(RouteDisagreementError, match="zero set"):
            check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"])
