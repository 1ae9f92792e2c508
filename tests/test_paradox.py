import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit.errors import SchemeError, TableError
from collapsekit.paradox import cornfield, detect_reversal, scan_strata
from collapsekit.tables import CategoricalScheme, ContingencyTable, build_table


class TestDetectReversalAdmission:
    def test_exact_fractions(self, admission_table):
        rep = detect_reversal(admission_table, ("A", "Y"), ("X", "M"), "D")
        assert rep.conditional_pairs == ((1 / 5, 2 / 8), (6 / 8, 4 / 5))
        assert rep.marginal_pair == (7 / 13, 6 / 13)
        assert rep.weights_exposed == (5 / 13, 8 / 13)
        assert rep.weights_unexposed == (8 / 13, 5 / 13)
        assert rep.reversal
        assert rep.stratum_signs == (-1, -1)
        assert rep.marginal_sign == 1

    def test_mixture_identity(self, admission_table):
        rep = detect_reversal(admission_table, ("A", "Y"), ("X", "M"), "D")
        assert rep.mixture_gap <= 1e-12

    def test_works_on_probability_form(self, admission_table):
        rep = detect_reversal(admission_table.normalize(), ("A", "Y"), ("X", "M"), "D")
        assert rep.reversal
        assert rep.marginal_pair[0] == pytest.approx(7 / 13, abs=1e-15)


class TestDetectReversalDeathPenalty:
    def test_fractions(self, death_penalty_table):
        rep = detect_reversal(death_penalty_table, ("D", "Y"), ("A", "W"), "V")
        assert rep.conditional_pairs == ((19 / 151, 11 / 63), (0.0, 6 / 103))
        assert rep.marginal_pair == (19 / 160, 17 / 166)
        assert rep.reversal

    def test_paper_rounding(self, death_penalty_table):
        rep = detect_reversal(death_penalty_table, ("D", "Y"), ("A", "W"), "V")
        assert rep.marginal_pair[0] == pytest.approx(0.12, abs=5e-3)
        assert rep.marginal_pair[1] == pytest.approx(0.10, abs=5e-3)
        assert rep.conditional_pairs[0][0] == pytest.approx(0.126, abs=5e-3)
        assert rep.conditional_pairs[0][1] == pytest.approx(0.175, abs=5e-3)


def independent_exposure_covariate_table(rng):
    """Exposure independent of the covariate: p(x) p(c) p(a | x, c)."""
    px = rng.uniform(0.2, 1.0, 2)
    px /= px.sum()
    pc = rng.uniform(0.2, 1.0, 3)
    pc /= pc.sum()
    pa = rng.uniform(0.05, 0.95, (2, 3))
    cells = np.zeros((2, 2, 3))
    for a in range(2):
        for x in range(2):
            for c in range(3):
                pr = pa[x, c] if a == 0 else 1.0 - pa[x, c]
                cells[a, x, c] = pr * px[x] * pc[c]
    scheme = CategoricalScheme(
        (("a", ("1", "0")), ("x", ("1", "0")), ("c", ("0", "1", "2")))
    )
    return ContingencyTable(scheme, cells / cells.sum(), "probability")


class TestNoReversalUnderIndependence:
    def test_equal_weights_no_reversal(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = independent_exposure_covariate_table(rng)
            assert t.check_ci(["x"], ["c"]).max_deviation <= 1e-12
            rep = detect_reversal(t, ("a", "1"), ("x", "1"), "c")
            assert not rep.reversal
            assert np.allclose(rep.weights_exposed, rep.weights_unexposed, atol=1e-12)


class TestBlythWeights:
    def test_admission_weights(self, admission_table):
        # the mixing weights P(c | exposure) and P(c | non-exposure)
        rep = detect_reversal(admission_table, ("A", "Y"), ("X", "M"), "D")
        assert rep.weights_exposed == (5 / 13, 8 / 13)
        assert rep.weights_unexposed == (8 / 13, 5 / 13)

    def test_mixture_reproduces_marginal_random(self):
        rng = np.random.default_rng(1)
        scheme = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1", "2")))
        )
        for _ in range(25):
            t = ContingencyTable(
                scheme, rng.uniform(0.05, 1.0, (2, 2, 3)), "counts"
            )
            rep = detect_reversal(t, ("a", "0"), ("b", "0"), "c")
            assert rep.mixture_gap <= 1e-12


class TestCornfield:
    def test_death_penalty_ratio_condition(self, death_penalty_table):
        d = cornfield(death_penalty_table, ("D", "Y"), ("A", "W"), ("V", "W"))
        assert d.ratio_lhs == pytest.approx((151 / 160) / (63 / 166), abs=1e-15)
        assert d.ratio_rhs == pytest.approx((19 / 160) / (17 / 166), abs=1e-15)
        assert d.ratio_condition is True
        assert d.ratio_lhs == pytest.approx(0.94 / 0.38, abs=2e-2)
        assert d.riskdiff_condition is True

    def test_independent_exposure_ratio_one(self):
        rng = np.random.default_rng(2)
        t = independent_exposure_covariate_table(rng)
        d = cornfield(t, ("a", "1"), ("x", "1"), ("c", "0"))
        assert d.ratio_lhs == pytest.approx(1.0, abs=1e-12)
        if d.ratio_rhs > 1.0:
            assert d.ratio_condition is False

    def test_hand_computed_conditionals(self):
        scheme = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
        )
        cells = np.arange(1.0, 9.0).reshape(2, 2, 2)
        t = ContingencyTable(scheme, cells, "counts")
        d = cornfield(t, ("a", "0"), ("b", "0"), ("c", "0"))
        # P(A|B) = (1+2)/(1+2+5+6), P(A|B^c) = (3+4)/(3+4+7+8)
        assert d.ratio_rhs == pytest.approx((3 / 14) / (7 / 22), abs=1e-12)
        # P(C|B) = (1+5)/14, P(C|B^c) = (3+7)/22
        assert d.ratio_lhs == pytest.approx((6 / 14) / (10 / 22), abs=1e-12)

    def test_zero_denominator_ratio_undefined(self):
        scheme = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
        )
        # response never happens without exposure
        cells = np.array([[[1.0, 2.0], [0.0, 0.0]], [[3.0, 4.0], [5.0, 6.0]]])
        t = ContingencyTable(scheme, cells, "counts")
        d = cornfield(t, ("a", "0"), ("b", "0"), ("c", "0"))
        assert d.ratio_condition is None
        assert isinstance(d.riskdiff_condition, bool)


class TestScanStrata:
    def test_admission_single_candidate(self, admission_table):
        scans = scan_strata(admission_table, ("A", "Y"), ("X", "M"))
        assert [s.covariate for s in scans] == ["D"]
        assert scans[0].report is not None and scans[0].report.reversal

    def test_product_table_no_reversals(self):
        rng = np.random.default_rng(4)
        margins = [rng.uniform(0.2, 1.0, m) for m in (2, 2, 3)]
        cells = (
            margins[0][:, None, None]
            * margins[1][None, :, None]
            * margins[2][None, None, :]
        )
        scheme = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1", "2")))
        )
        t = ContingencyTable(scheme, cells / cells.sum(), "probability")
        scans = scan_strata(t, ("a", "0"), ("b", "0"))
        assert all(s.report is not None and not s.report.reversal for s in scans)

    def test_four_variable_compositional(self):
        rng = np.random.default_rng(5)
        scheme = CategoricalScheme(
            (
                ("a", ("0", "1")),
                ("b", ("0", "1")),
                ("c", ("0", "1")),
                ("d", ("0", "1", "2")),
            )
        )
        t = ContingencyTable(scheme, rng.uniform(0.05, 1.0, (2, 2, 2, 3)), "counts")
        scans = scan_strata(t, ("a", "1"), ("b", "1"))
        assert [s.covariate for s in scans] == ["c", "d"]
        for s in scans:
            direct = detect_reversal(t, ("a", "1"), ("b", "1"), s.covariate)
            assert s.report.conditional_pairs == direct.conditional_pairs
            assert s.report.reversal == direct.reversal

    def test_per_candidate_error_captured(self):
        scheme = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
        )
        # exposure (b=0) never co-occurs with c=1: that stratum has zero mass
        cells = np.array([[[1.0, 0.0], [2.0, 3.0]], [[4.0, 0.0], [5.0, 6.0]]])
        t = ContingencyTable(scheme, cells, "counts")
        scans = scan_strata(t, ("a", "0"), ("b", "0"))
        assert scans[0].report is None
        assert "zero mass" in scans[0].error

    def test_needs_three_variables(self):
        scheme = CategoricalScheme((("a", ("0", "1")), ("b", ("0", "1"))))
        t = build_table(scheme, [1, 2, 3, 4], "counts")
        with pytest.raises(SchemeError):
            scan_strata(t, ("a", "0"), ("b", "0"))


class TestEventValidation:
    def test_distinct_variables_required(self, admission_table):
        with pytest.raises(SchemeError):
            detect_reversal(admission_table, ("A", "Y"), ("A", "N"), "D")

    def test_multilevel_variable_as_event(self):
        # a designated level versus the aggregated rest makes any variable
        # usable as a binary event
        rng = np.random.default_rng(9)
        scheme = CategoricalScheme(
            (("r", ("hi", "mid", "lo")), ("e", ("a", "b", "c")), ("c", ("0", "1")))
        )
        t = ContingencyTable(scheme, rng.uniform(0.5, 3.0, (3, 3, 2)), "counts")
        rep = detect_reversal(t, ("r", "hi"), ("e", "b"), "c")
        cells = t.cells
        exposed = cells[:, 1, 0].sum()
        expected = cells[0, 1, 0] / exposed
        assert rep.conditional_pairs[0][0] == pytest.approx(expected, abs=1e-15)
        unexposed = cells[:, [0, 2], 0].sum()
        assert rep.conditional_pairs[0][1] == pytest.approx(
            cells[0, [0, 2], 0].sum() / unexposed, abs=1e-15
        )

    def test_marginal_pair_matches_collapsed_table(self, admission_table):
        rep = detect_reversal(admission_table, ("A", "Y"), ("X", "M"), "D")
        m = admission_table.marginalize(["A", "X"])
        p_exposed = m.cells[0, 0] / m.cells[:, 0].sum()
        p_unexposed = m.cells[0, 1] / m.cells[:, 1].sum()
        assert rep.marginal_pair == (p_exposed, p_unexposed)


def _abd_table(cells):
    """2x2xK counts over A=(Y,N), X=(M,F), D=(0,1,..) from row-major cells."""
    k = len(cells) // 4
    scheme = CategoricalScheme(
        (("A", ("Y", "N")), ("X", ("M", "F")), ("D", tuple(str(i) for i in range(k))))
    )
    return build_table(scheme, cells, "counts")


class TestExactDecisions:
    # 333333331/1000000007 and 71428571/214285716 are one float but not one fraction
    NEAR_TIE = [333333331, 0, 71428571, 1, 666666676, 1, 142857145, 9999999999]

    def test_float_tied_stratum_reverses(self):
        rep = detect_reversal(_abd_table(self.NEAR_TIE), ("A", "Y"), ("X", "M"), "D")
        assert rep.conditional_pairs == (
            (333333331 / 1000000007, 71428571 / 214285716),
            (0.0, 1 / 10000000000),
        )
        assert rep.conditional_pairs[0][0] == rep.conditional_pairs[0][1]
        assert rep.stratum_signs == (-1, -1)
        assert rep.marginal_sign == 1
        assert rep.reversal

    def test_cornfield_riskdiff_follows_exact_order(self):
        # P(A|C) = P(A|B) as floats, P(A|C^c) = P(A|B^c) exactly, and the
        # exact risk difference on C is the smaller one
        scheme = CategoricalScheme(
            (("A", ("Y", "N")), ("B", ("1", "0")), ("C", ("1", "0")))
        )
        cells = [0, 71428571, 333333331, 190476189, 0, 142857145, 666666676, 380952386]
        d = cornfield(build_table(scheme, cells, "counts"), ("A", "Y"), ("B", "1"), ("C", "1"))
        assert d.riskdiff_lhs == d.riskdiff_rhs
        assert d.riskdiff_condition is False

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_cell_sums_are_an_input_error(self):
        scheme = CategoricalScheme(tuple((v, ("0", "1")) for v in "abcd"))
        t = build_table(scheme, [1e308] * 16, "counts")
        with pytest.raises(TableError, match="overflow"):
            detect_reversal(t, ("a", "0"), ("b", "0"), "c")

    @pytest.mark.parametrize(
        "response, exposure",
        [(("A", "nope"), ("X", "M")), (("A", "Y"), ("nope", "M")), (("A", "Y"), ("A", "N"))],
    )
    def test_scan_rejects_bad_events_up_front(self, admission_table, response, exposure):
        with pytest.raises(SchemeError):
            scan_strata(admission_table, response, exposure)


def _oracle(n):
    """Exact reversal and Cornfield verdicts of integer counts n[r][e][k]."""
    K = len(n[0][0])

    def mass(r=(0, 1), e=(0, 1), k=None):
        ks = range(K) if k is None else k
        return sum(n[i][j][c] for i in r for j in e for c in ks)

    def sign(a, b):
        return (a > b) - (a < b)

    pairs = [
        (Fraction(n[0][0][k], mass(e=(0,), k=(k,))), Fraction(n[0][1][k], mass(e=(1,), k=(k,))))
        for k in range(K)
    ]
    signs = tuple(sign(*p) for p in pairs)
    marg = sign(
        Fraction(mass(r=(0,), e=(0,)), mass(e=(0,))), Fraction(mass(r=(0,), e=(1,)), mass(e=(1,)))
    )
    reversal = signs[0] != 0 and len(set(signs)) == 1 and marg == -signs[0]
    # Cornfield with C = (D = level 0), B = (X = M), A = (A = Y)
    rest = range(1, K)
    p_a_b = Fraction(mass(r=(0,), e=(0,)), mass(e=(0,)))
    p_a_bc = Fraction(mass(r=(0,), e=(1,)), mass(e=(1,)))
    p_c_b = Fraction(mass(e=(0,), k=(0,)), mass(e=(0,)))
    p_c_bc = Fraction(mass(e=(1,), k=(0,)), mass(e=(1,)))
    p_a_c = Fraction(mass(r=(0,), k=(0,)), mass(k=(0,)))
    p_a_cc = Fraction(mass(r=(0,), k=rest), mass(k=rest))
    ratio = p_c_b / p_c_bc > p_a_b / p_a_bc if p_c_bc and p_a_bc else None
    return pairs, signs, reversal, ratio, p_a_c - p_a_cc >= p_a_b - p_a_bc


@st.composite
def _near_tie(draw):
    """(p, q, p2, q2) with p2*q - p*q2 = 1: p/q and p2/q2 are 1/(q*q2) apart."""
    q = draw(st.integers(2, 10**12))
    p = draw(st.integers(1, q - 1).filter(lambda v: math.gcd(v, q) == 1))
    q2 = (-pow(p, -1, q)) % q + q * draw(st.integers(0, 3))
    return p, q, (1 + p * q2) // q, q2


@st.composite
def _counts_2x2xk(draw):
    """Row-major counts n[r][e][k]; each stratum is random or a near tie."""
    k = draw(st.integers(2, 3))
    n = [[[0] * k for _ in range(2)] for _ in range(2)]
    for c in range(k):
        if draw(st.booleans()):
            p, q, p2, q2 = draw(_near_tie())
            (ye, ne), (yu, nu) = draw(st.permutations([(p, q - p), (p2, q2 - p2)]))
        else:
            ye, yu = (draw(st.integers(0, 10**12)) for _ in range(2))
            ne, nu = (draw(st.integers(1, 10**12)) for _ in range(2))
        n[0][0][c], n[1][0][c], n[0][1][c], n[1][1][c] = ye, ne, yu, nu
    return n


def _flat(n):
    return [v for plane in n for row in plane for v in row]


class TestExactOracle:
    @settings(max_examples=60, deadline=None)
    @given(_counts_2x2xk())
    def test_verdicts_match_fraction_oracle(self, n):
        t = _abd_table(_flat(n))
        pairs, signs, reversal, ratio, riskdiff = _oracle(n)
        rep = detect_reversal(t, ("A", "Y"), ("X", "M"), "D")
        assert rep.stratum_signs == signs
        assert rep.reversal == reversal
        assert rep.conditional_pairs == tuple((float(a), float(b)) for a, b in pairs)
        d = cornfield(t, ("A", "Y"), ("X", "M"), ("D", "0"))
        assert d.ratio_condition == ratio
        assert d.riskdiff_condition == riskdiff

    @settings(max_examples=40, deadline=None)
    @given(_counts_2x2xk(), st.data())
    def test_common_scaling_keeps_every_verdict(self, n, data):
        # keep every scaled sum an exact float
        c = data.draw(st.integers(1, max(1, 2**53 // sum(_flat(n)))))
        base, scaled = _abd_table(_flat(n)), _abd_table([c * v for v in _flat(n)])
        args = (("A", "Y"), ("X", "M"))
        r0, r1 = detect_reversal(base, *args, "D"), detect_reversal(scaled, *args, "D")
        assert (r1.stratum_signs, r1.marginal_sign, r1.reversal) == (
            r0.stratum_signs, r0.marginal_sign, r0.reversal
        )
        d0, d1 = cornfield(base, *args, ("D", "0")), cornfield(scaled, *args, ("D", "0"))
        assert (d1.ratio_condition, d1.riskdiff_condition) == (
            d0.ratio_condition, d0.riskdiff_condition
        )


def fraction_report(k, l, K, L, m, n, M, N):
    """detect_reversal on k/l and m/n (exposed, strata 0 and 1) against K/L
    and M/N (unexposed): the raw fraction-reversal question as counts."""
    table = _abd_table([k, m, K, M, l - k, n - m, L - K, N - M])
    return detect_reversal(table, ("A", "Y"), ("X", "M"), "D")


def _fraction_oracle(k, l, K, L, m, n, M, N):
    """Exact reversal of the fractions, in either direction."""
    a, b, c, d = Fraction(k, l), Fraction(K, L), Fraction(m, n), Fraction(M, N)
    pooled, pooled_rest = Fraction(k + m, l + n), Fraction(K + M, L + N)
    return (a < b and c < d and pooled > pooled_rest) or (
        a > b and c > d and pooled < pooled_rest
    )


def _random_fractions(rng, hi=10):
    """(k, l, K, L, m, n, M, N) with 1 <= denominator < hi, 0 <= numerator <= it."""
    out = []
    for _ in range(4):
        den = int(rng.integers(1, hi))
        out += [int(rng.integers(0, den + 1)), den]
    return out


class TestFractionReversal:
    def test_textbook_instance(self):
        rep = fraction_report(1, 6, 2, 9, 5, 7, 3, 4)
        assert rep.reversal
        assert rep.stratum_signs == (-1, -1)
        assert rep.marginal_sign == 1
        assert rep.conditional_pairs == ((1 / 6, 2 / 9), (5 / 7, 3 / 4))
        assert rep.marginal_pair == (6 / 13, 5 / 13)

    def test_equal_fractions(self):
        rep = fraction_report(1, 2, 1, 2, 1, 2, 1, 2)
        assert not rep.reversal
        assert rep.stratum_signs == (0, 0)
        assert rep.marginal_sign == 0

    def test_zero_denominator(self):
        with pytest.raises(TableError, match="zero mass"):
            fraction_report(0, 0, 2, 9, 5, 7, 3, 4)

    def test_half_counts_compare_exactly(self):
        # non-integer counts reduce on one power-of-two scale: halving every
        # count changes no ratio, so the report is the same bit for bit
        for cells in ([1, 5, 2, 3, 5, 2, 7, 1], TestExactDecisions.NEAR_TIE):
            args = (("A", "Y"), ("X", "M"), "D")
            whole = detect_reversal(_abd_table(cells), *args)
            half = detect_reversal(_abd_table([v / 2 for v in cells]), *args)
            assert half == whole

    def test_agrees_with_fraction_oracle_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            args = _random_fractions(rng)
            assert fraction_report(*args).reversal == _fraction_oracle(*args)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=8, max_size=8), st.integers(1, 7))
    def test_invariant_under_common_scaling(self, draws, c):
        # scaling one fraction alone moves the pooled fractions, so the only
        # scaling the verdict is invariant under is a common one
        args = [v for den, num in zip(draws[::2], draws[1::2]) for v in (num % (den + 1), den)]
        base = fraction_report(*args)
        scaled = fraction_report(*(c * v for v in args))
        assert (scaled.stratum_signs, scaled.marginal_sign, scaled.reversal) == (
            base.stratum_signs, base.marginal_sign, base.reversal
        )

    def test_not_invariant_under_single_fraction_scaling(self):
        # pooling breaks per-fraction scale invariance; keep a concrete witness
        assert fraction_report(1, 6, 2, 9, 5, 7, 3, 4).reversal
        assert not fraction_report(4, 24, 2, 9, 5, 7, 3, 4).reversal

    def test_stratum_order_irrelevant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            args = _random_fractions(rng)
            rep = fraction_report(*args)
            swapped = fraction_report(*args[4:], *args[:4])
            assert swapped.reversal == rep.reversal
            assert swapped.stratum_signs == rep.stratum_signs[::-1]
            assert swapped.conditional_pairs == rep.conditional_pairs[::-1]
            assert swapped.marginal_pair == rep.marginal_pair

    @pytest.mark.parametrize("flip", ["response", "exposure"])
    def test_complement_event_mirrors_signs(self, flip):
        # naming the other level of the response or of the exposure negates
        # every comparison, so a reversal stays a reversal
        rng = np.random.default_rng(5)
        response, exposure = ("A", "N" if flip == "response" else "Y"), (
            "X", "F" if flip == "exposure" else "M"
        )
        for trial in range(100):
            args = [1, 6, 2, 9, 5, 7, 3, 4] if trial == 0 else _random_fractions(rng)
            k, l, K, L, m, n, M, N = args
            table = _abd_table([k, m, K, M, l - k, n - m, L - K, N - M])
            rep = detect_reversal(table, ("A", "Y"), ("X", "M"), "D")
            other = detect_reversal(table, response, exposure, "D")
            assert other.reversal == rep.reversal
            assert other.stratum_signs == tuple(-s for s in rep.stratum_signs)
            assert other.marginal_sign == -rep.marginal_sign
            if flip == "exposure":
                assert other.conditional_pairs == tuple(p[::-1] for p in rep.conditional_pairs)
                assert other.weights_exposed == rep.weights_unexposed
