import json

import numpy as np
import pytest

from collapsekit.assoc import (
    BivariateJoint,
    FiniteJoint,
    covariance,
    detect_assoc_reversal,
    double_linkage,
    holds_relation,
)
from collapsekit.errors import DistributionError


def rand_probs(rng, shape, lo=0.05):
    a = rng.uniform(lo, 1.0, shape)
    return a / a.sum()


def rand_cond(rng, shape, axis, lo=0.05):
    a = rng.uniform(lo, 1.0, shape)
    return a / a.sum(axis=axis, keepdims=True)


def protected_construction(rng, kind, ny=3, nx=2, nw=2):
    """Random joint satisfying one of the four independence conditions."""
    if kind == "a":  # W indep Y
        p = (
            rand_probs(rng, ny)[:, None, None]
            * rand_probs(rng, nw)[None, None, :]
            * rand_cond(rng, (ny, nx, nw), axis=1)
        )
    elif kind == "b":  # W indep X
        p = (
            rand_probs(rng, nx)[None, :, None]
            * rand_probs(rng, nw)[None, None, :]
            * rand_cond(rng, (ny, nx, nw), axis=0)
        )
    elif kind == "c":  # W indep Y given X
        px = rand_probs(rng, nx)
        pygx = rand_cond(rng, (ny, nx), axis=0)
        pwgx = rand_cond(rng, (nw, nx), axis=0)
        p = px[None, :, None] * pygx[:, :, None] * pwgx.T[None, :, :]
    elif kind == "d":  # W indep X given Y
        py = rand_probs(rng, ny)
        pxgy = rand_cond(rng, (nx, ny), axis=0)
        pwgy = rand_cond(rng, (nw, ny), axis=0)
        p = py[:, None, None] * pxgy.T[:, :, None] * pwgy.T[:, None, :]
    else:
        raise ValueError(kind)
    p = p / p.sum()
    return FiniteJoint(
        tuple(float(i) for i in range(ny)),
        tuple(float(i) for i in range(nx)),
        tuple(float(i) for i in range(nw)),
        p,
    )


def covariance_flip_witness():
    """Joint with W indep X given Y whose covariance sign flips marginally.

    Frozen from a seeded search: Y in {0,1,2} with weights (1/8, 3/8, 1/2),
    P(X=1|Y) = (9/10, 1/10, 2/3), P(W=1|Y) = (1/2, 9/10, 1/10).  The
    marginal Cov(X, Y) is +19/480 while both conditional covariances are
    negative (about -0.018 and -0.043).
    """
    py = np.array([1 / 8, 3 / 8, 1 / 2])
    bx = np.array([9 / 10, 1 / 10, 2 / 3])
    aw = np.array([1 / 2, 9 / 10, 1 / 10])
    p = np.zeros((3, 2, 2))
    for yi in range(3):
        for xi in range(2):
            for wi in range(2):
                p[yi, xi, wi] = (
                    py[yi]
                    * (bx[yi] if xi else 1.0 - bx[yi])
                    * (aw[yi] if wi else 1.0 - aw[yi])
                )
    return FiniteJoint((0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0), p)


class TestValidation:
    def test_levels_must_increase(self):
        with pytest.raises(DistributionError):
            BivariateJoint((1.0, 0.0), (0.0, 1.0), np.full((2, 2), 0.25))

    def test_positive_cells(self):
        with pytest.raises(DistributionError):
            BivariateJoint((0.0, 1.0), (0.0, 1.0), np.array([[0.5, 0.5], [0.0, 0.0]]))

    def test_unit_sum(self):
        with pytest.raises(DistributionError):
            FiniteJoint((0, 1), (0, 1), (0, 1), np.full((2, 2, 2), 0.2))

    def test_non_finite_cells(self):
        # NaN passes both "<= 0" and "|sum - 1| > tol" comparisons
        for bad in (np.nan, np.inf):
            p = np.full((2, 2), 0.25)
            p[0, 0] = bad
            with pytest.raises(DistributionError, match="finite"):
                BivariateJoint((0.0, 1.0), (0.0, 1.0), p)
            with pytest.raises(DistributionError, match="finite"):
                FiniteJoint((0, 1), (0, 1), (0, 1), np.stack([p, p], axis=2) / 2)

    def test_non_numeric_or_non_finite_levels(self):
        for levels in (("a", 1.0), (None, 1.0), (0.0, float("nan")), (0.0, float("inf"))):
            with pytest.raises(DistributionError):
                BivariateJoint(levels, (0.0, 1.0), np.full((2, 2), 0.25))

    def test_unknown_direction(self):
        b = BivariateJoint((0.0, 1.0), (0.0, 1.0), np.full((2, 2), 0.25))
        with pytest.raises(DistributionError, match="direction must be 'up' or 'down'"):
            holds_relation(b, "r1", direction="sideways")

    def test_json_roundtrip(self):
        j = covariance_flip_witness()
        back = FiniteJoint.from_json(j.to_json())
        assert back.y_levels == j.y_levels
        assert np.array_equal(back.p, j.p)


class TestRelations:
    def test_near_comonotone_all_hold(self):
        b = BivariateJoint(
            (0.0, 1.0), (0.0, 1.0), np.array([[0.499, 0.001], [0.001, 0.499]])
        )
        for rel in ("r1", "r2", "r3", "r4"):
            assert holds_relation(b, rel, "up")
            assert not holds_relation(b, rel, "down")

    def test_product_r3_weak_equality_r4_fails(self):
        b = BivariateJoint(
            (0.0, 1.0), (0.0, 1.0), np.outer([0.3, 0.7], [0.4, 0.6])
        )
        assert holds_relation(b, "r3", "up")
        assert holds_relation(b, "r3", "down")
        assert not holds_relation(b, "r3", "up", strict=True)
        assert not holds_relation(b, "r4", "up")
        assert not holds_relation(b, "r4", "down")

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(0)
        yv = (-1.0, 0.5, 2.0)
        xv = (0.0, 1.5, 3.0)
        for _ in range(20):
            p = rand_probs(rng, (3, 3))
            b = BivariateJoint(yv, xv, p)
            # brute force each defining inequality
            px = p.sum(axis=0)
            cond = p / px
            surv = {
                (k, j): cond[k + 1 :, j].sum() for k in range(2) for j in range(3)
            }
            r1_up = all(
                surv[(k, j + 1)] >= surv[(k, j)] - 1e-9 for k in range(2) for j in range(2)
            )
            means = [sum(yv[i] * cond[i, j] for i in range(3)) for j in range(3)]
            r2_up = all(means[j + 1] >= means[j] - 1e-9 for j in range(2))
            cdf = p.cumsum(axis=0).cumsum(axis=1)
            r3_up = all(
                cdf[i, j] >= cdf[i, 2] * cdf[2, j] - 1e-9
                for i in range(3)
                for j in range(3)
            )
            ex = sum(xv[j] * px[j] for j in range(3))
            ey = sum(yv[i] * p[i, :].sum() for i in range(3))
            exy = sum(yv[i] * xv[j] * p[i, j] for i in range(3) for j in range(3))
            r4_up = (exy - ex * ey) > 1e-9
            assert holds_relation(b, "r1", "up") == r1_up
            assert holds_relation(b, "r2", "up") == r2_up
            assert holds_relation(b, "r3", "up") == r3_up
            assert holds_relation(b, "r4", "up") == r4_up

    def test_r1_implies_r2(self):
        # construct stochastically increasing columns by moving mass upward
        rng = np.random.default_rng(1)
        for _ in range(50):
            base = rand_probs(rng, 4)
            cols = [base.copy()]
            for _ in range(2):
                col = cols[-1].copy()
                i = int(rng.integers(0, 3))
                shift = rng.uniform(0.0, col[i] * 0.9)
                col[i] -= shift
                col[i + 1] += shift
                cols.append(col)
            px = rand_probs(rng, 3)
            p = np.stack(cols, axis=1) * px[None, :]
            b = BivariateJoint((0.0, 1.0, 2.5, 4.0), (0.0, 1.0, 2.0), p / p.sum())
            assert holds_relation(b, "r1", "up")
            assert holds_relation(b, "r2", "up")

    def test_r3_r4_symmetric_in_y_x(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = BivariateJoint(
                (0.0, 1.0, 2.0), (-1.0, 0.5), rand_probs(rng, (3, 2))
            )
            for rel in ("r3", "r4"):
                for direction in ("up", "down"):
                    swapped = BivariateJoint(b.x_levels, b.y_levels, b.p.T)
                    assert holds_relation(b, rel, direction) == holds_relation(
                        swapped, rel, direction
                    )

    def test_single_x_level_rejected(self):
        with pytest.raises(DistributionError):
            BivariateJoint((0.0, 1.0), (0.0,), np.array([[0.5], [0.5]]))

    def test_unknown_relation(self):
        b = BivariateJoint((0.0, 1.0), (0.0, 1.0), np.full((2, 2), 0.25))
        with pytest.raises(DistributionError):
            holds_relation(b, "r9")


class TestDoubleLinkage:
    def test_w_independent_of_pair(self):
        rng = np.random.default_rng(3)
        pyx = rand_probs(rng, (3, 2))
        qw = rand_probs(rng, 2)
        j = FiniteJoint(
            (0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0), pyx[:, :, None] * qw[None, None, :]
        )
        prof = double_linkage(j)
        assert prof.w_indep_y and prof.w_indep_x
        assert prof.w_indep_y_given_x and prof.w_indep_x_given_y
        assert not prof.doubly_linked

    def test_condition_d_construction(self):
        rng = np.random.default_rng(4)
        j = protected_construction(rng, "d")
        prof = double_linkage(j)
        assert prof.w_indep_x_given_y
        assert not prof.doubly_linked

    def test_generic_distribution_doubly_linked(self):
        rng = np.random.default_rng(5)
        j = FiniteJoint(
            (0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0), rand_probs(rng, (3, 2, 2))
        )
        prof = double_linkage(j)
        assert prof.doubly_linked
        assert all(d > 1e-6 for d in prof.deviations)


class TestReversalDetection:
    def test_admission_r4_reversal(self, admission_table):
        cells = admission_table.cells / admission_table.total
        # recode to numeric levels increasing: y: N=0, Y=1; x: F=0, M=1; w: H, G
        p = np.zeros((2, 2, 2))
        for a in range(2):
            for x in range(2):
                for d in range(2):
                    p[1 - a, 1 - x, d] = cells[a, x, d]
        j = FiniteJoint((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), p)
        rep = detect_assoc_reversal(j, "r4")
        assert rep.reversal
        assert rep.conditional_down and rep.marginal_up_strict

    def test_product_no_reversal_any_relation(self):
        rng = np.random.default_rng(6)
        p = (
            rand_probs(rng, 3)[:, None, None]
            * rand_probs(rng, 2)[None, :, None]
            * rand_probs(rng, 2)[None, None, :]
        )
        j = FiniteJoint((0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0), p / p.sum())
        for rel in ("r1", "r2", "r3", "r4"):
            assert not detect_assoc_reversal(j, rel).reversal

    def test_r3_protection_sampled(self):
        rng = np.random.default_rng(7)
        for i in range(200):
            j = protected_construction(rng, "abcd"[i % 4])
            assert not detect_assoc_reversal(j, "r3").reversal

    def test_frozen_witness_r4_reversal_detected(self):
        j = covariance_flip_witness()
        prof = double_linkage(j, tol=1e-10)
        assert prof.w_indep_x_given_y  # condition (d) holds exactly
        rep = detect_assoc_reversal(j, "r4")
        assert rep.reversal
        assert covariance(j) == pytest.approx(19 / 480, abs=1e-12)
        for k in range(2):
            assert covariance(j.conditional_yx(k)) < -0.01
