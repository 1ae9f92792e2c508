import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit.errors import SchemeError, TableError
from collapsekit.tables import (
    CategoricalScheme,
    ContingencyTable,
    build_table,
    ci_deviation,
    probabilities,
)

from conftest import ci_constructed_table, random_positive_table


def scheme2x2():
    return CategoricalScheme((("a", ("0", "1")), ("b", ("0", "1"))))


class TestSchemeValidation:
    def test_duplicate_names(self):
        with pytest.raises(SchemeError):
            CategoricalScheme((("a", ("0", "1")), ("a", ("0", "1"))))

    def test_duplicate_levels(self):
        with pytest.raises(SchemeError):
            CategoricalScheme((("a", ("0", "0")),))

    def test_single_level(self):
        with pytest.raises(SchemeError):
            CategoricalScheme((("a", ("only",)),))

    def test_unknown_variable(self):
        with pytest.raises(SchemeError):
            scheme2x2().axis("zz")

    def test_subset_canonical_order(self):
        s = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1")))
        )
        assert s.resolve_subset(["c", "a"]) == (0, 2)
        assert s.resolve_subset([2, 0, 0]) == (0, 2)


class TestBuildTable:
    def test_admission_marginal_counts(self):
        t = build_table(scheme2x2(), [7, 6, 6, 7], "counts")
        assert t.total == 26.0

    def test_uniform_probability(self):
        t = build_table(scheme2x2(), [0.25, 0.25, 0.25, 0.25], "probability")
        assert t.cells.sum() == 1.0

    def test_zero_cell_probability_rejected(self):
        with pytest.raises(TableError, match="zero cell"):
            build_table(scheme2x2(), [0.5, 0.5, 0.0, 0.0], "probability")

    def test_dimension_mismatch(self):
        with pytest.raises(TableError):
            build_table(scheme2x2(), [1, 2, 3], "counts")

    def test_negative_cell(self):
        with pytest.raises(TableError):
            build_table(scheme2x2(), [1, 2, 3, -1], "counts")

    def test_wrong_shape(self):
        with pytest.raises(TableError, match=r"cell array shape \(4,\) does not match scheme shape \(2, 2\)"):
            ContingencyTable(scheme2x2(), np.full(4, 0.25), "probability")
        with pytest.raises(TableError, match=r"joint has shape \(4,\), not \(2, 2\)"):
            probabilities(np.full(4, 0.25), TableError, "joint", (2, 2))

    def test_bad_sum(self):
        with pytest.raises(TableError):
            build_table(scheme2x2(), [0.3, 0.3, 0.3, 0.3], "probability")

    def test_unknown_form(self):
        with pytest.raises(TableError):
            build_table(scheme2x2(), [1, 2, 3, 4], "weights")

    def test_cells_immutable(self):
        t = build_table(scheme2x2(), [1, 2, 3, 4], "counts")
        with pytest.raises(ValueError):
            t.cells[0, 0] = 5.0


class TestNormalize:
    def test_admission_cell(self, admission_table):
        p = admission_table.normalize()
        assert p.cells[0, 0, 0] == 1.0 / 26.0  # A=Y, X=M, D=H
        assert abs(p.cells.sum() - 1.0) <= 1e-12

    def test_two_cells(self):
        s = CategoricalScheme((("a", ("0", "1")),))
        assert build_table(s, [1, 1], "counts").normalize().cells.tolist() == [0.5, 0.5]

    def test_smoothing_arithmetic(self):
        t = build_table(scheme2x2(), [0, 1, 2, 3], "counts")
        p = t.normalize(smoothing=0.5)
        total = 6.0 + 0.5 * 4
        expected = np.array([0.5, 1.5, 2.5, 3.5]) / total
        assert np.allclose(p.cells.reshape(-1), expected, atol=1e-15)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.5, 0.0])
    def test_smoothing_must_be_finite_and_positive(self, lam):
        t = build_table(scheme2x2(), [0, 1, 2, 3], "counts")
        with pytest.raises(TableError, match="^smoothing must be finite and positive$"):
            t.normalize(smoothing=lam)

    def test_zero_cell_no_smoothing(self):
        with pytest.raises(TableError, match="zero cell"):
            build_table(scheme2x2(), [0, 1, 2, 3], "counts").normalize()

    def test_zero_total(self):
        with pytest.raises(TableError, match="zero total"):
            build_table(scheme2x2(), [0, 0, 0, 0], "counts").normalize()

    def test_probability_input_rejected(self):
        t = build_table(scheme2x2(), [0.25] * 4, "probability")
        with pytest.raises(TableError):
            t.normalize()

    def test_commutes_with_marginalize(self):
        rng = np.random.default_rng(1)
        scheme = CategoricalScheme(tuple((f"x{j}", ("0", "1", "2")) for j in range(3)))
        for _ in range(10):
            t = build_table(scheme, rng.uniform(0.5, 5.0, 27), "counts")
            keep = sorted(rng.permutation(3)[: int(rng.integers(1, 3))])
            a = t.normalize().marginalize([scheme.names[i] for i in keep])
            b = t.marginalize([scheme.names[i] for i in keep]).normalize()
            assert a.scheme == b.scheme
            assert np.max(np.abs(a.cells - b.cells)) <= 1e-15

    def test_preserves_ratios(self):
        rng = np.random.default_rng(0)
        cells = rng.uniform(0.5, 5.0, 4)
        t = build_table(scheme2x2(), cells, "counts")
        p = t.normalize()
        assert np.allclose(
            p.cells.reshape(-1) / p.cells.reshape(-1)[0],
            cells / cells[0],
            rtol=1e-12,
        )


class TestMarginalize:
    def test_admission_keep_outcome_sex(self, admission_table):
        m = admission_table.marginalize(["A", "X"])
        assert m.cells.tolist() == [[7.0, 6.0], [6.0, 7.0]]

    def test_keep_all_identity(self, admission_table):
        m = admission_table.marginalize(["A", "X", "D"])
        assert np.array_equal(m.cells, admission_table.cells)

    def test_death_penalty_keep_races(self, death_penalty_table):
        m = death_penalty_table.marginalize(["A", "V"])
        assert m.cells.tolist() == [[151.0, 9.0], [63.0, 103.0]]

    def test_empty_keep(self, admission_table):
        with pytest.raises(SchemeError):
            admission_table.marginalize([])

    def test_unknown_variable(self, admission_table):
        with pytest.raises(SchemeError):
            admission_table.marginalize(["Q"])

    def test_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = random_positive_table(rng, n=4)
            big = rng.permutation(4)[:3]
            small = rng.permutation(big)[:2]
            once = t.marginalize(small)
            twice = t.marginalize(big).marginalize(
                [t.scheme.names[i] for i in sorted(small)]
            )
            assert np.max(np.abs(once.cells - twice.cells)) <= 1e-12

    def test_mass_preserved(self, admission_table):
        assert admission_table.marginalize(["D"]).total == admission_table.total


def brute_ci_deviation(p, a_axes, c_axes, b_axes):
    """Direct enumeration over all cells of |p(ac|b) - p(a|b)p(c|b)|."""
    worst = 0.0
    for idx in np.ndindex(p.shape):
        b_idx = tuple(idx[x] for x in b_axes)
        mask_b = np.ones(p.shape, dtype=bool)
        for x, i in zip(b_axes, b_idx):
            mask_b &= np.indices(p.shape)[x] == i
        pb = p[mask_b].sum()
        mask_ab = mask_b.copy()
        for x in a_axes:
            mask_ab &= np.indices(p.shape)[x] == idx[x]
        mask_cb = mask_b.copy()
        for x in c_axes:
            mask_cb &= np.indices(p.shape)[x] == idx[x]
        mask_acb = mask_ab.copy()
        for x in c_axes:
            mask_acb &= np.indices(p.shape)[x] == idx[x]
        dev = abs(p[mask_acb].sum() / pb - (p[mask_ab].sum() / pb) * (p[mask_cb].sum() / pb))
        worst = max(worst, dev)
    return worst


class TestCheckCi:
    def test_factorized_construction_holds(self):
        rng = np.random.default_rng(3)
        t = ci_constructed_table(rng)
        assert t.check_ci(["x1"], ["x3"], ["x2"]).holds

    def test_death_penalty_marginal_dependence(self, death_penalty_table):
        p = death_penalty_table.normalize(smoothing=0.5)
        v = p.check_ci(["A"], ["V"])
        assert not v.holds
        assert v.max_deviation > 0.1

    def test_against_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = random_positive_table(rng, n=3, max_levels=3)
            v = t.check_ci(["x0"], ["x2"], ["x1"])
            brute = brute_ci_deviation(t.cells, (0,), (2,), (1,))
            assert abs(v.max_deviation - brute) <= 1e-12

    def test_symmetric_in_a_and_c(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = random_positive_table(rng, n=3, max_levels=3)
            ac = t.check_ci(["x0"], ["x2"], ["x1"])
            ca = t.check_ci(["x2"], ["x0"], ["x1"])
            assert ca.max_deviation == pytest.approx(ac.max_deviation, abs=1e-15)
            assert dict(ca.witness) == dict(ac.witness)

    def test_marginal_independence_product(self):
        p = np.outer([0.3, 0.7], [0.2, 0.8])
        t = ContingencyTable(scheme2x2(), p, "probability")
        assert t.check_ci(["a"], ["b"]).holds

    def test_uniform_conditional_construction(self):
        rng = np.random.default_rng(5)
        pb = rng.uniform(0.2, 1.0, 3)
        pb /= pb.sum()
        cells = np.ones((2, 3, 2)) / 4.0 * pb[None, :, None]
        scheme = CategoricalScheme(
            (("a", ("0", "1")), ("b", ("0", "1", "2")), ("c", ("0", "1")))
        )
        t = ContingencyTable(scheme, cells / cells.sum(), "probability")
        v = t.check_ci(["a"], ["c"], ["b"], tol=1e-10)
        assert v.holds

    def test_overlapping_subsets(self, admission_table):
        p = admission_table.normalize()
        with pytest.raises(SchemeError):
            p.check_ci(["A"], ["A"], ["D"])

    @pytest.mark.parametrize("a, c, b", [(["A"], ["X"], ["X"]), ([], ["X"], ["D"]), ([], [], [])])
    def test_overlapping_or_empty_subsets(self, admission_table, a, c, b):
        p = admission_table.normalize()
        with pytest.raises(SchemeError):
            p.check_ci(a, c, b)

    def test_counts_form_rejected(self, admission_table):
        with pytest.raises(TableError):
            admission_table.check_ci(["A"], ["X"])

    def test_extra_variables_marginalized(self):
        rng = np.random.default_rng(6)
        t = random_positive_table(rng, n=4, max_levels=3)
        names = t.scheme.names
        v_full = t.check_ci([names[0]], [names[2]], [names[1]])
        reduced = t.marginalize(names[:3])
        v_red = reduced.check_ci([names[0]], [names[2]], [names[1]])
        assert abs(v_full.max_deviation - v_red.max_deviation) <= 1e-12

    def test_ci_deviation_rejects_extra_axes(self):
        with pytest.raises(SchemeError):
            ci_deviation(np.ones((2, 2, 2)) / 8.0, (0,), (1,), ())


class TestJsonRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(7)
        t = random_positive_table(rng, n=3)
        back = ContingencyTable.from_json(t.to_json())
        assert back.scheme == t.scheme
        assert back.form == t.form
        assert back.cells.tobytes() == t.cells.tobytes()

    def test_counts_roundtrip(self, admission_table):
        back = ContingencyTable.from_json(admission_table.to_json())
        assert np.array_equal(back.cells, admission_table.cells)

    def test_malformed_payload(self):
        with pytest.raises(TableError):
            ContingencyTable.from_json(json.dumps({"cells": [1, 2]}))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_marginal_scaling_property(cells, c):
    """Scaling counts scales marginals; normalized tables are scale-free."""
    t1 = build_table(scheme2x2(), cells, "counts")
    t2 = build_table(scheme2x2(), [c * v for v in cells], "counts")
    assert np.allclose(
        t1.normalize().cells, t2.normalize().cells, rtol=1e-12, atol=1e-15
    )
