"""Output checks that recompute each verdict a second, independent way.

Each check raises ``WrongOutput`` on a mismatch.  Verdict booleans are
compared only where the exact or independently computed value lies
clearly on one side of the decision boundary; near a boundary the float
verdict is not defined by the inputs alone.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from harness import expect

BOUNDARY = 1e-10  # margin around a decision threshold inside which verdicts are not compared


def _sign(a, b) -> int:
    return (a > b) - (a < b)


# -- paradox: exact rationals on integer counts -----------------------------------


def _frac_tables(counts: np.ndarray):
    """Exact A=Y counts and totals per (exposure, stratum) of a 2x2xK table."""
    n = [[[int(v) for v in row] for row in plane] for plane in counts]  # [a][x][d]
    k = len(n[0][0])
    yes = [[n[0][x][d] for d in range(k)] for x in range(2)]
    tot = [[n[0][x][d] + n[1][x][d] for d in range(k)] for x in range(2)]
    return yes, tot, k


def check_reversal(report, counts: np.ndarray) -> None:
    """detect_reversal on a 2x2xK counts table (response A=Y, exposure X=M, covariate D)."""
    yes, tot, k = _frac_tables(counts)
    signs = []
    for d in range(k):
        pe, pu = Fraction(yes[0][d], tot[0][d]), Fraction(yes[1][d], tot[1][d])
        expect(report.conditional_pairs[d] == (float(pe), float(pu)), f"stratum {d} probabilities")
        signs.append(_sign(pe, pu))
    me = Fraction(sum(yes[0]), sum(tot[0]))
    mu = Fraction(sum(yes[1]), sum(tot[1]))
    marginal = _sign(me, mu)
    reversal = signs[0] != 0 and all(s == signs[0] for s in signs) and marginal == -signs[0]
    expect(tuple(report.stratum_signs) == tuple(signs), "stratum signs")
    expect(report.marginal_sign == marginal, "marginal sign")
    expect(report.reversal == reversal, "reversal flag")


def check_cornfield(diag, counts: np.ndarray) -> None:
    """cornfield on a 2x2xK counts table with confounder event D=d0."""
    yes, tot, k = _frac_tables(counts)
    p_a_b = Fraction(sum(yes[0]), sum(tot[0]))
    p_a_bc = Fraction(sum(yes[1]), sum(tot[1]))
    p_c_b = Fraction(tot[0][0], sum(tot[0]))
    p_c_bc = Fraction(tot[1][0], sum(tot[1]))
    p_a_c = Fraction(yes[0][0] + yes[1][0], tot[0][0] + tot[1][0])
    rest_yes = sum(yes[0][1:]) + sum(yes[1][1:])
    rest_tot = sum(tot[0][1:]) + sum(tot[1][1:])
    p_a_cc = Fraction(rest_yes, rest_tot)
    rd_lhs, rd_rhs = p_a_c - p_a_cc, p_a_b - p_a_bc
    ratio_lhs, ratio_rhs = p_c_b / p_c_bc, p_a_b / p_a_bc
    for got, want, what in (
        (diag.riskdiff_lhs, rd_lhs, "riskdiff lhs"),
        (diag.riskdiff_rhs, rd_rhs, "riskdiff rhs"),
        (diag.ratio_lhs, ratio_lhs, "ratio lhs"),
        (diag.ratio_rhs, ratio_rhs, "ratio rhs"),
    ):
        expect(abs(Fraction(got) - want) <= Fraction(1, 10**12) * max(1, abs(want)), what)
    if abs(rd_lhs - rd_rhs) > BOUNDARY:
        expect(diag.riskdiff_condition == (rd_lhs >= rd_rhs), "riskdiff condition")
    if abs(ratio_lhs - ratio_rhs) > BOUNDARY:
        expect(diag.ratio_condition == (ratio_lhs > ratio_rhs), "ratio condition")


def check_normalize(probs: np.ndarray, counts: np.ndarray, lam: float) -> None:
    want = (counts + lam) / (counts.sum() + lam * counts.size)
    expect(float(np.max(np.abs(probs - want))) <= 1e-15, "smoothed probabilities")


# -- cross-tabulation and grouped moments ----------------------------------------


def check_crosstab(names, levels, cells, obs) -> None:
    """An ingested table against np.bincount over the generated codes."""
    expect(tuple(names) == obs.names, "variable names")
    shape = tuple(len(lv) for lv in levels)
    index = []
    for j, lv in enumerate(levels):
        pos = {label: i for i, label in enumerate(lv)}
        expect(set(pos) == set(obs.labels[j]), f"levels of {names[j]}")
        remap = np.array([pos[label] for label in obs.labels[j]])
        index.append(remap[obs.codes[:, j]])
    flat = np.ravel_multi_index(index, shape)
    want = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
    got = np.asarray(cells, dtype=float).reshape(shape)
    expect(float(got.sum()) == float(len(obs.codes)), "total equals the row count")
    expect(np.array_equal(got, want), "cell counts")


def check_moments(levels, rec, rel: float = 1e-12) -> None:
    """Per-stratum summaries (mappings with pi, alpha, beta, mu_x, s_xx, s_yy, label).

    Compared with grouped two-pass moments, relative tolerance ``rel``.
    """
    k = len(rec.labels)
    n = np.bincount(rec.a, minlength=k).astype(float)
    mx = np.bincount(rec.a, rec.x, k) / n
    my = np.bincount(rec.a, rec.y, k) / n
    dx = rec.x - mx[rec.a]
    dy = rec.y - my[rec.a]
    sxx = np.bincount(rec.a, dx * dx, k) / n
    syy = np.bincount(rec.a, dy * dy, k) / n
    syx = np.bincount(rec.a, dx * dy, k) / n
    beta = syx / sxx
    want = {
        "pi": n / n.sum(),
        "alpha": my - beta * mx,
        "beta": beta,
        "mu_x": mx,
        "s_xx": sxx,
        "s_yy": syy,
    }
    expect(sorted(lv["label"] for lv in levels) == sorted(rec.labels), "stratum labels")
    code = {label: i for i, label in enumerate(rec.labels)}
    for lv in levels:
        i = code[lv["label"]]
        for key, arr in want.items():
            w = float(arr[i])
            expect(abs(lv[key] - w) <= rel * abs(w), f"{key} of stratum {lv['label']}")


def summary_levels(summary) -> list[dict]:
    return [
        {"pi": s.pi, "alpha": s.alpha, "beta": s.beta, "mu_x": s.mu_x, "s_xx": s.s_xx, "s_yy": s.s_yy, "label": s.label}
        for s in summary.strata
    ]


# -- log-linear: per-axis centering ----------------------------------------------


def tau(logp: np.ndarray, axes) -> np.ndarray:
    """tau_A = prod_{a in A}(I - M_a) prod_{a not in A} M_a ln p, shaped over A."""
    out = logp
    for a in range(logp.ndim):
        mean = out.mean(axis=a, keepdims=True)
        out = out - mean if a in axes else mean
    return np.squeeze(out, axis=tuple(a for a in range(logp.ndim) if a not in axes))


def check_roundtrip(subsets, shape, logp: np.ndarray, tol: float = 1e-9) -> None:
    """Summing every interaction array cell by cell must give back ln p.

    ``subsets`` holds (axes, flat tau values) pairs.
    """
    total = np.zeros(shape)
    for axes, values in subsets:
        sub = tuple(m if a in axes else 1 for a, m in enumerate(shape))
        total = total + np.asarray(values, dtype=float).reshape(sub)
    expect(float(np.max(np.abs(total - logp))) <= tol, "reconstructed ln p")


def check_collapse(direct_gap: float, collapsible: bool, tol: float, cells: np.ndarray, a_axes, b_axes) -> None:
    """Plain collapsibility: tau_A of the table against eta_A of its B-margin."""
    logp = np.log(cells)
    full = tau(logp, a_axes)
    drop = tuple(x for x in range(cells.ndim) if x not in b_axes)
    a_pos = tuple(b_axes.index(x) for x in a_axes)
    marg = tau(np.log(cells.sum(axis=drop)), a_pos)
    gap = float(np.max(np.abs(full - marg)))
    expect(abs(direct_gap - gap) <= 1e-9, "direct gap")
    if abs(gap - tol) > BOUNDARY:
        expect(collapsible == (gap <= tol), "collapsible flag")


def ci_deviation(cells: np.ndarray, a_axes, c_axes, b_axes) -> float:
    """max |p(a,c|b) - p(a|b) p(c|b)| for a table over exactly A, C and B."""
    p_b = cells.sum(axis=tuple(a_axes) + tuple(c_axes), keepdims=True)
    p_ab = cells.sum(axis=tuple(c_axes), keepdims=True)
    p_cb = cells.sum(axis=tuple(a_axes), keepdims=True)
    return float(np.max(np.abs(cells / p_b - (p_ab / p_b) * (p_cb / p_b))))


def check_strict(strict: bool, ci_dev: float, cells: np.ndarray, a_axes, b_axes, c_axes, ci_tol: float = 1e-9) -> None:
    """Strict collapsibility over C against the CI deviation of A and C given B."""
    dev = ci_deviation(cells, a_axes, c_axes, b_axes)
    expect(abs(ci_dev - dev) <= 1e-12, "CI deviation")
    if abs(dev - ci_tol) > BOUNDARY:
        expect(strict == (dev <= ci_tol), "strict flag")


# -- association relations ---------------------------------------------------------


def relation_values(p: np.ndarray, ys, xs, rel: str) -> np.ndarray:
    """The quantities whose sign decides relation ``rel`` for a joint p[y, x]."""
    if rel == "r4":
        y = np.asarray(ys)[:, None]
        x = np.asarray(xs)[None, :]
        return np.array([(y * x * p).sum() - (y * p).sum() * (x * p).sum()])
    p_x = p.sum(axis=0)
    if rel == "r2":
        means = [sum(ys[i] * p[i, j] for i in range(len(ys))) / p_x[j] for j in range(len(xs))]
        return np.diff(means)
    if rel == "r1":
        steps = []
        for k in range(len(ys) - 1):
            exceed = [p[k + 1 :, j].sum() / p_x[j] for j in range(len(xs))]
            steps.extend(np.diff(exceed))
        return np.array(steps)
    cdf = np.array(
        [[p[: i + 1, : j + 1].sum() for j in range(len(xs))] for i in range(len(ys))]
    )
    return (cdf - np.outer(cdf[:, -1], cdf[-1, :])).reshape(-1)


def holds(p: np.ndarray, ys, xs, rel: str, direction: str, tol: float, strict: bool = False):
    """Relation verdict, or None when a value sits within BOUNDARY of the tolerance."""
    vals = relation_values(p, ys, xs, rel) * (1.0 if direction == "up" else -1.0)
    if np.any(np.abs(np.abs(vals) - tol) <= BOUNDARY):
        return None
    if rel == "r4":
        return bool(vals[0] > tol)
    weak = bool(np.all(vals >= -tol))
    return weak and bool(np.any(vals > tol)) if strict else weak


def check_holds(got: bool, joint, rel: str, direction: str, tol: float) -> None:
    want = holds(joint.p.sum(axis=2), joint.y_levels, joint.x_levels, rel, direction, tol)
    if want is not None:
        expect(got == want, f"{rel} {direction}")


def check_assoc_reversal(report, joint, rel: str, tol: float) -> None:
    per_w = []
    for k in range(len(joint.w_levels)):
        sl = joint.p[:, :, k] / joint.p[:, :, k].sum()
        per_w.append(tuple(holds(sl, joint.y_levels, joint.x_levels, rel, d, tol) for d in ("up", "down")))
    marg = joint.p.sum(axis=2)
    m_up = holds(marg, joint.y_levels, joint.x_levels, rel, "up", tol, strict=True)
    m_down = holds(marg, joint.y_levels, joint.x_levels, rel, "down", tol, strict=True)
    if None in (m_up, m_down) or any(None in pair for pair in per_w):
        return
    expect(tuple(tuple(pair) for pair in report.per_w) == tuple(per_w), "per-stratum relations")
    cond_up = all(u for u, _ in per_w)
    cond_down = all(d for _, d in per_w)
    expect(report.reversal == ((cond_up and m_down) or (cond_down and m_up)), "reversal flag")


def check_linkage(profile, joint) -> None:
    p = joint.p
    want = (
        ci_deviation(p.sum(axis=1), (1,), (0,), ()),
        ci_deviation(p.sum(axis=0), (1,), (0,), ()),
        ci_deviation(p, (2,), (0,), (1,)),
        ci_deviation(p, (2,), (1,), (0,)),
    )
    for got, w in zip(profile.deviations, want):
        expect(abs(got - w) <= 1e-12, "linkage deviation")


# -- regression summaries ----------------------------------------------------------


def check_regress(verdict, summary) -> None:
    """Marginal slope from the law of total covariance, and the verdict it implies."""
    pi = np.array([s.pi for s in summary.strata])
    beta = np.array([s.beta for s in summary.strata])
    mu_x = np.array([s.mu_x for s in summary.strata])
    mu_y = np.array([s.alpha + s.beta * s.mu_x for s in summary.strata])
    s_xx = np.array([s.s_xx for s in summary.strata])
    e_mx, e_my = pi @ mu_x, pi @ mu_y
    var_mx = pi @ (mu_x - e_mx) ** 2
    cov = pi @ ((mu_y - e_my) * (mu_x - e_mx))
    b_marg = float((pi @ (beta * s_xx) + cov) / (pi @ s_xx + var_mx))
    expect(abs(verdict.beta_marginal - b_marg) <= 1e-9 * max(1.0, abs(b_marg)), "marginal slope")
    gap = abs(b_marg - verdict.beta_reference)
    if abs(gap - verdict.tol) > 1e-8:
        expect(verdict.a_collapsible == (gap <= verdict.tol), "collapsibility flag")


# -- dependence functions ------------------------------------------------------------


def check_gaussian_avg(verdict, model) -> None:
    """W independent of X leaves the mixing law fixed, so the check must pass."""
    expect(verdict.avg_collapsible == (model.rho == 0.0), "gaussian average collapsibility")


def check_avg_consistent(verdict) -> None:
    expect(verdict.avg_collapsible == (verdict.max_residual <= verdict.tol), "verdict against its residual")
    expect(np.isfinite(verdict.integral_residual), "finite integral residual")


def check_homogeneity(verdict, model, grid, w_probes) -> None:
    gap = 0.0
    for y, x in grid:
        vals = [model.dep(y, x, w) for w in w_probes]
        gap = max(gap, max(vals) - min(vals))
    expect(abs(verdict.max_gap - gap) <= 1e-12, "homogeneity gap")
    expect(verdict.homogeneous == (gap <= verdict.tol), "homogeneity flag")


# -- survival ------------------------------------------------------------------------


def check_condition(verdict, spec) -> None:
    bx, by, rho = spec.beta_x, spec.beta_y, spec.eta_rho
    want = by < 0.0 < bx and bx + by * rho < 0.0
    expect(verdict.condition == want, "reversal condition")
    expect(verdict.gaussian_equiv == want, "gaussian restatement")


def check_numeric(verdict, spec) -> None:
    check_condition(verdict, spec)
    expect(verdict.matches_prediction is True, "grid confirms the predicted reversal pattern")
