"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[PASS] criterion-name`` line on success (run
with ``-s`` to see them); a failing criterion prints ``[FAIL]`` with the
offending detail before the assertion fires.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from collapsekit.assoc import (
    covariance,
    detect_assoc_reversal,
    double_linkage,
)
from collapsekit.collapse import check_collapsibility, check_strict_collapsibility
from collapsekit.depfun import (
    GaussianLinearInteraction,
    UniformQuadratic,
    check_avg_collapsibility,
)
from collapsekit.loglinear import decompose
from collapsekit.paradox import cornfield, detect_reversal
from collapsekit.regress import (
    RegressionStratum,
    StratifiedRegressionSummary,
    check_a_collapsibility,
    check_parallel_collapsibility,
)
from collapsekit.survival import SurvivalSpec, check_condition, verify_numeric
from collapsekit.tables import ContingencyTable

from conftest import ci_constructed_table, random_positive_table
from test_assoc import covariance_flip_witness, protected_construction
from test_paradox import fraction_report
from test_regress import brute_force_slope, random_summary


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_admission_data_reproduction(admission_table):
    t0 = time.perf_counter()
    rep = detect_reversal(admission_table, ("A", "Y"), ("X", "M"), "D")
    elapsed = time.perf_counter() - t0
    ok = (
        rep.conditional_pairs == ((1 / 5, 2 / 8), (6 / 8, 4 / 5))
        and rep.marginal_pair == (7 / 13, 6 / 13)
        and rep.weights_exposed == (5 / 13, 8 / 13)
        and rep.reversal is True
        and elapsed < 0.1
    )
    report("admission-data-reproduction", ok, f"elapsed={elapsed:.4f}s report={rep.marginal_pair}")


def test_death_penalty_data_reproduction(death_penalty_table):
    rep = detect_reversal(death_penalty_table, ("D", "Y"), ("A", "W"), "V")
    diag = cornfield(death_penalty_table, ("D", "Y"), ("A", "W"), ("V", "W"))
    exact = (
        rep.marginal_pair == (19 / 160, 17 / 166)
        and rep.conditional_pairs == ((19 / 151, 11 / 63), (0.0, 6 / 103))
        and rep.reversal is True
        and diag.ratio_condition is True
    )
    rounded = (
        abs(rep.marginal_pair[0] - 0.12) <= 5e-3
        and abs(rep.marginal_pair[1] - 0.10) <= 5e-3
        and abs(rep.conditional_pairs[0][0] - 0.126) <= 5e-3
        and abs(rep.conditional_pairs[0][1] - 0.175) <= 5e-3
        and abs(151 / 160 - 0.94) <= 5e-3
        and abs(63 / 166 - 0.38) <= 5e-3
    )
    report("death-penalty-data-reproduction", exact and rounded, f"marginal={rep.marginal_pair}")


def test_fraction_reversal_exhaustive():
    # proportions k/l with l <= 4: k/l and m/n among the exposed (X=M), K/L
    # and M/N among the rest, in strata D=0 and D=1.  The exact Fraction
    # oracle runs on every such table; the verb runs on the 10^4 tables with
    # every numerator >= 1, none of which reverses, and on each of the 28
    # reversals, all of which need a zero numerator
    def verdict(*args):
        return fraction_report(*args).reversal

    ok = verdict(1, 6, 2, 9, 5, 7, 3, 4) is True
    pairs = [(k, l) for l in range(1, 5) for k in range(l + 1)]
    found = {"up": 0, "down": 0}
    mismatches = 0
    checked = 0
    for (k, l), (K, L), (m, n), (M, N) in itertools.product(pairs, repeat=4):
        a, b, c, d = Fraction(k, l), Fraction(K, L), Fraction(m, n), Fraction(M, N)
        pooled, pooled_rest = Fraction(k + m, l + n), Fraction(K + M, L + N)
        # the exposed lose in both strata and win pooled, or the other way round
        up = a < b and c < d and pooled > pooled_rest
        down = a > b and c > d and pooled < pooled_rest
        if up or down or min(k, K, m, M) >= 1:
            found["up"] += up
            found["down"] += down
            mismatches += verdict(k, l, K, L, m, n, M, N) != (up or down)
            checked += 1
    report(
        "fraction-reversal-exhaustive",
        ok and mismatches == 0 and checked == 10**4 + 28 and found == {"up": 14, "down": 14},
        f"checked={checked} mismatches={mismatches} reversals={found}",
    )


def tilde_l(t, axes):
    """ltilde_A: ln p averaged over the axes outside A, keepdims."""
    comp = tuple(a for a in range(t.scheme.n) if a not in axes)
    return np.log(t.cells).mean(axis=comp, keepdims=True)


def keepdims_taus(dec):
    """Every tau_A of a decomposition, shaped over all axes with singletons outside A."""
    shape = dec.scheme.shape
    return {
        axes: dec.tau(axes).reshape([m if a in axes else 1 for a, m in enumerate(shape)])
        for axes in dec.subsets()
    }


def forward_tilde(taus, axes):
    """ltilde_A rebuilt as the sum of tau_Z over Z inside A (the inversion pair)."""
    return sum(tau for z, tau in taus.items() if set(z) <= set(axes))


def reconstruct_log(taus):
    """The sum of every interaction array, cell by cell: ln p."""
    return sum(taus.values())


def test_mobius_roundtrip():
    rng = np.random.default_rng(42)
    worst_recon = 0.0
    worst_tilde = 0.0
    worst_center = 0.0
    for _ in range(500):
        t = random_positive_table(rng, n=int(rng.integers(2, 5)), max_levels=4)
        dec = decompose(t)
        taus = keepdims_taus(dec)
        logp = np.log(t.cells)
        worst_recon = max(worst_recon, float(np.max(np.abs(reconstruct_log(taus) - logp))))
        for subset in dec.subsets():
            gap = np.max(np.abs(forward_tilde(taus, subset) - tilde_l(t, subset)))
            worst_tilde = max(worst_tilde, float(gap))
            if subset:
                tau = dec.tau(subset)
                for pos in range(tau.ndim):
                    worst_center = max(worst_center, float(np.max(np.abs(tau.sum(axis=pos)))))
    ok = worst_recon <= 1e-9 and worst_tilde <= 1e-9 and worst_center <= 1e-9
    report(
        "mobius-roundtrip",
        ok,
        f"recon={worst_recon:.2e} tilde={worst_tilde:.2e} centering={worst_center:.2e}",
    )


def test_collapse_route_agreement():
    rng = np.random.default_rng(43)
    disagreements = 0
    worst_gap = 0.0
    for _ in range(500):
        t = random_positive_table(rng, n=int(rng.integers(3, 5)), max_levels=3)
        n = t.scheme.n
        b = tuple(sorted(int(v) for v in rng.permutation(n)[: int(rng.integers(1, n))]))
        a = tuple(sorted(int(v) for v in rng.permutation(np.array(b))[: int(rng.integers(1, len(b) + 1))]))
        v = check_collapsibility(t, a, b, tol=1e-8)  # raises on route disagreement
        if (v.max_residual <= 1e-8) != (v.direct_gap <= 1e-8):
            disagreements += 1
        worst_gap = max(worst_gap, abs(v.max_residual - v.direct_gap))
    report(
        "collapse-route-agreement",
        disagreements == 0,
        f"disagreements={disagreements} max |residual - direct|={worst_gap:.2e}",
    )


def test_strict_collapse_ci_equivalence():
    rng = np.random.default_rng(44)
    failures = []
    for trial in range(100):
        t = ci_constructed_table(rng)
        v = check_strict_collapsibility(t, ["x1"], ["x2"], ["x3"])
        if not v.strict:
            failures.append(f"trial {trial}: exact construction not strict")
        cells = t.cells.copy()
        idx = tuple(int(rng.integers(0, m)) for m in cells.shape)
        cells[idx] += 0.01
        cells = cells / cells.sum()
        pert = ContingencyTable(t.scheme, cells, "probability")
        v2 = check_strict_collapsibility(pert, ["x1"], ["x2"], ["x3"])
        if v2.strict:
            failures.append(f"trial {trial}: perturbed table still strict")
    report("strict-collapse-ci-equivalence", not failures, "; ".join(failures[:3]))


def test_regression_route_agreement():
    rng = np.random.default_rng(45)
    disagreements = 0
    for i in range(1000):
        parallel = i % 2 == 0
        if i % 4 < 2:
            summ = random_summary(rng, parallel=parallel)
        elif parallel:
            # constructed collapsible: constant intercepts
            base = random_summary(rng, parallel=True)
            summ = StratifiedRegressionSummary(
                tuple(
                    RegressionStratum(s.pi, 1.25, s.beta, s.mu_x, s.s_xx, s.s_yy + 10.0)
                    for s in base.strata
                )
            )
        else:
            # constructed A-collapsible: constant mu_x and s_xx
            base = random_summary(rng)
            summ = StratifiedRegressionSummary(
                tuple(
                    RegressionStratum(s.pi, s.alpha, s.beta, 0.4, 1.3, s.s_yy + 10.0)
                    for s in base.strata
                )
            )
        if parallel:
            v = check_parallel_collapsibility(summ, tol=1e-9)
            if v.collapsible != (v.beta_gap <= 1e-9):
                disagreements += 1
        else:
            v = check_a_collapsibility(summ, tol=1e-9)
            if v.a_collapsible != (v.beta_gap <= 1e-9):
                disagreements += 1

    worst_oracle = 0.0
    for _ in range(100):
        summ = random_summary(rng)
        beta = check_a_collapsibility(summ).beta_marginal
        worst_oracle = max(worst_oracle, abs(beta - brute_force_slope(summ)))
    ok = disagreements == 0 and worst_oracle <= 1e-9
    report(
        "regression-route-agreement",
        ok,
        f"disagreements={disagreements} oracle gap={worst_oracle:.2e}",
    )


def test_r3_reversal_protection():
    rng = np.random.default_rng(46)
    reversals = 0
    for i in range(1000):
        kind = "abcd"[i % 4]
        j = protected_construction(
            rng, kind, ny=int(rng.integers(2, 4)), nx=int(rng.integers(2, 4)), nw=int(rng.integers(2, 4))
        )
        if detect_assoc_reversal(j, "r3").reversal:
            reversals += 1

    witness = covariance_flip_witness()
    prof = double_linkage(witness, tol=1e-10)
    witness_ok = (
        prof.w_indep_x_given_y
        and detect_assoc_reversal(witness, "r4").reversal
        and covariance(witness) > 0
    )
    report(
        "r3-reversal-protection",
        reversals == 0 and witness_ok,
        f"r3 reversals={reversals} witness detected={witness_ok}",
    )


def test_dependence_function_examples():
    # at each grid point the two integrals sum to the marginal dependence
    # function, so the worst |E - marginal| is the worst |mixing correction|
    t0 = time.perf_counter()
    gauss = GaussianLinearInteraction(1.0, 0.5, 0.8, 1.0, rho=0.0)
    v3 = check_avg_collapsibility(gauss, tol=1e-6)
    mixing_gap = abs(v3.max_residual - v3.integral_residual)
    elapsed3 = time.perf_counter() - t0

    t0 = time.perf_counter()
    uni = UniformQuadratic()
    v4 = check_avg_collapsibility(uni, tol=1e-6)
    mixing_gap_u = abs(v4.max_residual - v4.integral_residual)
    elapsed4 = time.perf_counter() - t0

    ok = (
        v3.avg_collapsible
        and v3.max_residual <= 1e-6
        and v3.quadrature_ok
        and v4.quadrature_ok
        and mixing_gap <= 1e-9
        and mixing_gap_u <= 1e-9
        and v4.integral_residual <= 1e-6
        and not uni.x_w_independent
        and not uni.y_w_cond_independent
        and elapsed3 < 5.0
        and elapsed4 < 5.0
    )
    report(
        "dependence-function-examples",
        ok,
        f"gauss residual={v3.max_residual:.2e} uniform integral={v4.integral_residual:.2e} "
        f"times=({elapsed3:.2f}s, {elapsed4:.2f}s)",
    )


def test_survival_gaussian_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    mismatches = 0
    for _ in range(10000):
        bx, by, rho = rng.uniform(-3.0, 3.0, 3)
        v = check_condition(SurvivalSpec(beta_x=float(bx), beta_y=float(by), eta_rho=float(rho)))
        if v.condition != v.gaussian_equiv:
            mismatches += 1

    v_pos = verify_numeric(SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8))
    v_neg = verify_numeric(SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.4))
    elapsed = time.perf_counter() - t0
    ok = (
        mismatches == 0
        and v_pos.reversal_on_grid is True
        and all(p.reversal for p in v_pos.probes)
        and v_neg.reversal_on_grid is False
        and not any(p.reversal for p in v_neg.probes)
        and elapsed < 30.0
    )
    report(
        "survival-gaussian-equivalence",
        ok,
        f"mismatches={mismatches} elapsed={elapsed:.2f}s",
    )


def test_dep_fn_finite_differences():
    rng = np.random.default_rng(48)
    h = 1e-5
    worst = 0.0
    gauss = GaussianLinearInteraction(1.0, 0.7, 0.4, 0.8, rho=0.3)
    for _ in range(100):
        y, x, w = rng.uniform(-2.0, 2.0, 3)
        fd = (gauss.cdf(y, x + h, w) - gauss.cdf(y, x - h, w)) / (2 * h)
        worst = max(worst, abs(fd - gauss.dep(y, x, w)))
    uni = UniformQuadratic()
    done = 0
    while done < 100:
        x, w = rng.uniform(-2.0, 2.0, 2)
        s = x * x + (w - x) ** 2
        if s < 1e-3:
            continue
        y = float(rng.uniform(0.05, 0.9)) / s
        fd = (uni.cdf(y, x + h, w) - uni.cdf(y, x - h, w)) / (2 * h)
        worst = max(worst, abs(fd - uni.dep(y, x, w)))
        done += 1
    report("dep-fn-finite-differences", worst <= 1e-6, f"worst={worst:.2e}")
