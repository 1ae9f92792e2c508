import math
import tracemalloc
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit.errors import SchemeError, TableError
from collapsekit.loglinear import (
    decompose,
    interaction,
    is_hierarchical,
    mobius,
)
from collapsekit.subsets import axes_of, masks_by_size, submasks
from collapsekit.tables import CategoricalScheme, ContingencyTable, build_table

from conftest import ci_constructed_table, max_abs, random_positive_table


def scheme2x2():
    return CategoricalScheme((("u", ("0", "1")), ("v", ("0", "1"))))


class TestInteraction:
    def test_product_table_two_factor_zero(self):
        p = np.outer([0.3, 0.7], [0.2, 0.8])
        t = ContingencyTable(scheme2x2(), p, "probability")
        assert np.max(np.abs(interaction(t, ["u", "v"]))) <= 1e-14

    def test_generic_2x2_log_odds_quarter(self):
        t = build_table(scheme2x2(), [0.4, 0.1, 0.2, 0.3], "probability")
        tau = interaction(t, ["u", "v"])
        expected = 0.25 * math.log(0.4 * 0.3 / (0.1 * 0.2))
        assert tau[0, 0] == pytest.approx(expected, abs=1e-12)
        # sign pattern of a 2x2 interaction: +-/-+
        assert tau[0, 1] == pytest.approx(-expected, abs=1e-12)
        assert tau[1, 0] == pytest.approx(-expected, abs=1e-12)
        assert tau[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_empty_subset_scalar(self):
        # tau of the empty set is the grand mean of the log cells
        t = build_table(scheme2x2(), [0.4, 0.1, 0.2, 0.3], "probability")
        expected = sum(math.log(v) for v in (0.4, 0.1, 0.2, 0.3)) / 4.0
        assert float(interaction(t, [])) == pytest.approx(expected, abs=1e-15)

    def test_product_table_main_effect(self):
        # p(u, v) = a(u) b(v): tau_u is ln a centered over u's levels
        a, b = np.array([0.3, 0.7]), np.array([0.2, 0.8])
        t = ContingencyTable(scheme2x2(), np.outer(a, b), "probability")
        expected = np.log(a) - np.log(a).mean()
        assert np.max(np.abs(interaction(t, ["u"]) - expected)) <= 1e-15

    def test_counts_rejected(self):
        t = build_table(scheme2x2(), [1, 2, 3, 4], "counts")
        with pytest.raises(TableError):
            interaction(t, ["u"])
        with pytest.raises(TableError):
            decompose(t)


class TestDecompose:
    def test_ci_construction_kills_linking_interactions(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = ci_constructed_table(rng)
            dec = decompose(t)
            assert max_abs(dec, ["x1", "x2", "x3"]) <= 1e-10
            assert max_abs(dec, ["x1", "x3"]) <= 1e-10
            # the linked interactions generically survive
            assert max_abs(dec, ["x1", "x2"]) > 1e-6

    def test_uniform_all_zero(self):
        t = build_table(scheme2x2(), [0.25] * 4, "probability")
        dec = decompose(t)
        for subset in dec.subsets():
            if subset:
                assert max_abs(dec, subset) <= 1e-14

    def test_centering(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = random_positive_table(rng, n=3, max_levels=4)
            dec = decompose(t)
            for subset in dec.subsets():
                if not subset:
                    continue
                tau = dec.tau(subset)
                for pos in range(tau.ndim):
                    assert np.max(np.abs(tau.sum(axis=pos))) <= 1e-9

    def test_zero_pattern_invariant_under_level_permutation(self):
        rng = np.random.default_rng(3)
        t = ci_constructed_table(rng, 2, 3, 2)
        perm = rng.permutation(3)
        cells = t.cells[:, perm, :]
        t2 = ContingencyTable(t.scheme, cells, "probability")
        dec = decompose(t2)
        assert max_abs(dec, ["x1", "x2", "x3"]) <= 1e-10
        assert max_abs(dec, ["x1", "x3"]) <= 1e-10

    def test_factor_on_a_subset_moves_only_its_subsets(self):
        # ln p gains ln f(x0, x1) less a constant, whose centred parts land
        # on the subsets of {x0, x1} alone
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = random_positive_table(rng, n=3, max_levels=3)
            f = rng.uniform(0.2, 5.0, t.cells.shape[:2] + (1,))
            cells = t.cells * f
            dec = decompose(t)
            moved = decompose(ContingencyTable(t.scheme, cells / cells.sum(), "probability"))
            for subset in dec.subsets():
                gap = np.max(np.abs(moved.tau(subset) - dec.tau(subset)))
                if not set(subset) <= {0, 1}:
                    assert gap <= 1e-12
                elif len(subset) == 2:
                    assert gap > 1e-3

    def test_level_permutation_permutes_tau(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = random_positive_table(rng, n=3, max_levels=4)
            perm = rng.permutation(t.cells.shape[1])
            dec = decompose(t)
            permuted = decompose(ContingencyTable(t.scheme, t.cells[:, perm, :], "probability"))
            for subset in dec.subsets():
                expect = dec.tau(subset)
                if 1 in subset:
                    expect = np.take(expect, perm, axis=subset.index(1))
                assert np.max(np.abs(permuted.tau(subset) - expect)) <= 1e-12

    def test_guard_on_too_many_variables(self):
        # 16 binary axes span 3^16 subset-mean floats, over the budget; the
        # guard fires before any mean is taken
        with pytest.raises(SchemeError):
            mobius(np.zeros((2,) * 16), [(1 << 16) - 1])
        # the budget counts only the axes the requested masks span
        assert set(mobius(np.zeros((2,) * 16), [0b11])) == {0b11}


def per_pair_mobius(x, masks):
    """Reference transform: one broadcast add or subtract per (mask, submask)."""
    means, out = {}, {}
    for mask in masks:
        parity = mask.bit_count() & 1
        first = acc = None
        for sub in submasks(mask):
            if sub not in means:
                comp = tuple(a for a in range(x.ndim) if not sub & (1 << a))
                means[sub] = x.mean(axis=comp, keepdims=True) if comp else x
            mean = means[sub]
            plus = (sub.bit_count() & 1) == parity
            if first is None:
                first = acc = mean
            elif acc is first:
                acc = acc + mean if plus else acc - mean
            elif plus:
                acc += mean
            else:
                acc -= mean
        out[mask] = acc
    return out


def assert_bitwise_equal(got, ref):
    assert list(got) == list(ref)
    for mask, arr in ref.items():
        assert got[mask].shape == arr.shape and got[mask].dtype == arr.dtype
        assert np.array_equal(got[mask].view(np.uint64), arr.view(np.uint64)), axes_of(mask)


def assert_within(got, ref, bound):
    assert list(got) == list(ref)
    for mask, arr in ref.items():
        assert got[mask].shape == arr.shape and got[mask].dtype == arr.dtype
        assert np.max(np.abs(got[mask] - arr)) <= bound, axes_of(mask)


def assert_matches_per_pair(x, masks):
    """Bit equality below 7 spanned axes; from 7 on, the per-axis form's bound."""
    ref = per_pair_mobius(x, masks)
    if reduce(or_, masks, 0).bit_count() < 7:
        assert_bitwise_equal(mobius(x, masks), ref)
    else:
        assert_within(mobius(x, masks), ref, 1e-12 * max(1.0, float(np.max(np.abs(x)))))


@st.composite
def _arrays_and_requests(draw):
    # half the draws span 7 or 8 axes, where mobius centers axis by axis;
    # size-1 axes are legal for the transform even though tables need two
    # levels
    n = draw(st.integers(1, 6) | st.integers(7, 8))
    shape = tuple(draw(st.lists(st.sampled_from([1, 2, 2, 3]), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), shape)
    everything = list(range(1 << n))
    kind = draw(st.sampled_from(["all", "shuffled", "subset"]))
    if kind == "all":
        masks = everything
    elif kind == "shuffled":
        masks = draw(st.permutations(everything))
    else:  # any order, duplicates allowed
        masks = draw(st.lists(st.sampled_from(everything), min_size=1, max_size=3 << n))
    return x, masks


class TestStackedTransform:
    @settings(max_examples=40, deadline=None)
    @given(_arrays_and_requests())
    def test_matches_the_per_pair_sum_bit_for_bit(self, case):
        assert_matches_per_pair(*case)

    def test_strict_request_on_the_bulk_shape(self):
        # 7 binary and 3 ternary variables, --target v0 --given v1,v2: the
        # parameter set and the zero set of the strict collapse check
        n = 10
        x = np.log(np.random.default_rng(7).uniform(0.05, 1.0, (2,) * 7 + (3,) * 3))
        target, collapsed = 0b1, ((1 << n) - 1) & ~0b111
        masks = [m for m in submasks(0b111) if m & target]
        masks += [m for m in range(1 << n) if m & target and m & collapsed]
        assert_matches_per_pair(x, masks)

    def test_wide_request_peaks_below_the_array(self):
        # the 12 axes outside the span are averaged before any centering, so
        # the partial arrays stay over 7 axes: 2^19 floats in, 3^7 at most
        x = np.random.default_rng(3).normal(size=(2,) * 19)
        tracemalloc.start()
        try:
            out = mobius(x, range(1 << 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 128 and peak < x.nbytes

    def test_mask_outside_the_array_is_rejected(self):
        with pytest.raises(SchemeError, match="outside shape"):
            mobius(np.zeros((2, 2)), [0b100])


class TestUnnormalizedArrays:
    def test_scaling_shifts_only_the_constant(self):
        # the lattice transform applies to any positive array's logs:
        # scaling every cell by c moves the empty-set term by ln c only
        rng = np.random.default_rng(4)
        arr = rng.uniform(0.5, 3.0, (2, 3, 2))
        c = 7.5
        tau1 = mobius(np.log(arr), masks_by_size(3))
        tau2 = mobius(np.log(c * arr), masks_by_size(3))
        for mask in masks_by_size(3):
            t1 = tau1[mask]
            t2 = tau2[mask]
            if mask == 0:
                assert np.allclose(t2 - t1, math.log(c), atol=1e-12)
            else:
                assert np.max(np.abs(t2 - t1)) <= 1e-12


class TestHierarchy:
    def test_generic_random_table_is_hierarchical(self):
        rng = np.random.default_rng(5)
        t = random_positive_table(rng, n=3, max_levels=3)
        assert is_hierarchical(decompose(t)).hierarchical

    def test_crafted_violation(self):
        # exponentiate a two-factor interaction with no main effects
        c = 0.7
        tau12 = np.array([[c, -c], [-c, c]])
        cells = np.exp(tau12)
        cells /= cells.sum()
        t = ContingencyTable(scheme2x2(), cells, "probability")
        verdict = is_hierarchical(decompose(t))
        assert not verdict.hierarchical
        pairs = set(verdict.violations)
        assert (("u", "v"), ("u",)) in pairs
        assert (("u", "v"), ("v",)) in pairs

    def test_uniform_vacuously_hierarchical(self):
        t = build_table(scheme2x2(), [0.25] * 4, "probability")
        assert is_hierarchical(decompose(t)).hierarchical

    @pytest.mark.parametrize(
        "terms",
        [
            ((0, 1, 2), (2, 3)),
            ((0, 1), (1, 2, 3), (0, 4)),
            ((0, 1, 2, 3, 4),),
        ],
    )
    def test_violation_order(self, terms):
        # ln p is a sum of centered product terms, one per listed subset:
        # every other interaction, main effects included, vanishes
        n = max(map(max, terms)) + 1
        rng = np.random.default_rng(len(terms))
        grids = np.meshgrid(*[np.array([-1.0, 1.0])] * n, indexing="ij")
        logp = sum(rng.uniform(0.2, 0.8) * np.prod([grids[a] for a in axes], axis=0) for axes in terms)
        cells = np.exp(logp)
        scheme = CategoricalScheme(tuple((f"x{a}", ("0", "1")) for a in range(n)))
        dec = decompose(ContingencyTable(scheme, cells / cells.sum(), "probability"))
        verdict = is_hierarchical(dec)
        assert not verdict.hierarchical
        assert list(verdict.violations) == full_walk_violations(dec, verdict.tol)
        # the smallest term comes first, with its largest proper submask
        first = min(terms, key=lambda axes: (len(axes), sum(1 << a for a in axes)))
        assert verdict.violations[0] == (
            tuple(f"x{a}" for a in first), tuple(f"x{a}" for a in first[1:])
        )


def full_walk_violations(dec, tol):
    """Every (mask, submask) pair in the lattice, walked as ``is_hierarchical``
    always did: supersets by size then mask, subsets in ``submasks`` order."""
    n = dec.scheme.n
    nonzero = {mask: max_abs(dec, axes_of(mask)) > tol for mask in range(1 << n)}
    out = []
    for mask in masks_by_size(n):
        if not nonzero[mask] or mask == 0:
            continue
        for sub in submasks(mask):
            if sub != mask and not nonzero[sub]:
                out.append((dec.scheme.subset_names(axes_of(mask)), dec.scheme.subset_names(axes_of(sub))))
    return out


class TestJsonExport:
    def test_subset_listing(self):
        t = build_table(scheme2x2(), [0.4, 0.1, 0.2, 0.3], "probability")
        payload = decompose(t).to_json_dict()
        names = [tuple(e["vars"]) for e in payload["subsets"]]
        assert names == [(), ("u",), ("v",), ("u", "v")]
        grand = payload["subsets"][0]["tau"][0]
        assert grand == pytest.approx(float(np.log(t.cells).mean()))
