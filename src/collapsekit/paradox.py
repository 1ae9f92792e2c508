"""Event-level Simpson's paradox detection on contingency tables.

A response event and an exposure event are each designated as one level of
a variable versus the rest; the covariate contributes one stratum per
level.  A reversal requires every stratum comparison to go strictly in one
common direction while the marginal comparison goes strictly the other
way; any tie breaks the verdict to False.

Each call reduces the table once to an exact event array of integers (the
float cell sums on one power-of-two scale; a counts table's own counts).
Signs, the reversal verdict and the Cornfield conditions compare exact
ratios; each reported probability is the nearest float of its exact ratio.
A raw fraction reversal (k/l < K/L and m/n < M/N while the pooled
fractions flip) is ``detect_reversal`` on the 2x2x2 counts table of those
successes and trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SchemeError, TableError
from .tables import ContingencyTable

Event = tuple[str, str]  # (variable, designated level)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


_ratio = np.frompyfunc(Fraction, 2, 1)  # elementwise exact ratio of int arrays


def _event_axes(scheme, events) -> list[tuple[int, int | None]]:
    """(axis, designated level index or None) of distinct (variable, level) pairs."""
    out = [
        (scheme.axis(var), None if lv is None else scheme.level_index(var, lv))
        for var, lv in events
    ]
    if len({ax for ax, _ in out}) != len(out):
        raise SchemeError("response, exposure, covariate must be distinct variables")
    return out


def _events(
    table: ContingencyTable,
    response: Event,
    exposure: Event,
    covariate: "str | int",
    level: str | None = None,
) -> np.ndarray:
    """The table reduced to an exact event array ``n[r][e][k]``.

    ``r`` and ``e`` are (designated level, rest) of the response and the
    exposure; ``k`` runs over the covariate's levels, or over (``level``,
    rest) when a level is given.  Entries are Python ints: the float cell
    sums scaled by one common power of two, so every ratio of them is exact
    and a counts table reduces to its own integers.
    """
    split = _event_axes(table.scheme, (response, exposure, (covariate, level)))
    sums = np.moveaxis(table.cells, [ax for ax, _ in split], (0, 1, 2))
    with np.errstate(over="ignore"):  # the finiteness check below decides
        sums = sums.sum(axis=tuple(range(3, sums.ndim)))
    if not np.isfinite(sums).all():
        raise TableError("cell sums overflow a float")
    ratios = [v.as_integer_ratio() for v in sums.ravel().tolist()]
    scale = max(den for _, den in ratios)
    n = np.array([num * (scale // den) for num, den in ratios], dtype=object)
    n = n.reshape(sums.shape)
    for ax, (_, ix) in enumerate(split):
        if ix is not None:
            first = n.take(ix, axis=ax)
            n = np.stack([first, n.sum(axis=ax) - first], axis=ax)
    return n


@dataclass(frozen=True)
class ParadoxReport:
    """Per-stratum and marginal comparison of P(response | exposure)."""

    response: Event
    exposure: Event
    covariate: str
    covariate_levels: tuple[str, ...]
    conditional_pairs: tuple[tuple[float, float], ...]
    marginal_pair: tuple[float, float]
    weights_exposed: tuple[float, ...]
    weights_unexposed: tuple[float, ...]
    stratum_signs: tuple[int, ...]
    marginal_sign: int
    reversal: bool
    mixture_gap: float

    def to_json_dict(self) -> dict:
        return {
            "response": {"variable": self.response[0], "level": self.response[1]},
            "exposure": {"variable": self.exposure[0], "level": self.exposure[1]},
            "covariate": self.covariate,
            "strata": [
                {
                    "level": lv,
                    "p_exposed": pe,
                    "p_unexposed": pu,
                    "weight_exposed": we,
                    "weight_unexposed": wu,
                    "sign": sg,
                }
                for lv, (pe, pu), we, wu, sg in zip(
                    self.covariate_levels,
                    self.conditional_pairs,
                    self.weights_exposed,
                    self.weights_unexposed,
                    self.stratum_signs,
                )
            ],
            "marginal": {
                "p_exposed": self.marginal_pair[0],
                "p_unexposed": self.marginal_pair[1],
                "sign": self.marginal_sign,
            },
            "reversal": self.reversal,
            "mixture_gap": self.mixture_gap,
        }

    def to_markdown(self) -> str:
        a = f"{self.response[0]}={self.response[1]}"
        b = f"{self.exposure[0]}={self.exposure[1]}"
        cmp_ = {1: ">", -1: "<", 0: "="}
        lines = [
            f"| {self.covariate} | P({a} \\| {b}, c) | P({a} \\| not {b}, c) | direction |",
            "|---|---|---|---|",
        ]
        for lv, (pe, pu), sg in zip(
            self.covariate_levels, self.conditional_pairs, self.stratum_signs
        ):
            lines.append(f"| {lv} | {pe:.6g} | {pu:.6g} | {cmp_[sg]} |")
        pe, pu = self.marginal_pair
        lines.append(f"| (marginal) | {pe:.6g} | {pu:.6g} | {cmp_[self.marginal_sign]} |")
        lines.append("")
        lines.append(f"reversal: **{str(self.reversal).lower()}**")
        return "\n".join(lines)


@dataclass(frozen=True)
class CornfieldDiagnostics:
    """Minimum effect-size diagnostics for a candidate confounder.

    ``ratio_condition`` compares P(C|B)/P(C|B^c) against P(A|B)/P(A|B^c);
    it is None when a denominator vanishes.  ``riskdiff_condition`` compares
    P(A|C)-P(A|C^c) against P(A|B)-P(A|B^c) and is always computable.
    """

    ratio_lhs: float | None
    ratio_rhs: float | None
    ratio_condition: bool | None
    riskdiff_lhs: float
    riskdiff_rhs: float
    riskdiff_condition: bool


def detect_reversal(
    table: ContingencyTable,
    response: Event,
    exposure: Event,
    covariate: "str | int",
) -> ParadoxReport:
    """Compare stratum-wise and marginal conditional probabilities.

    Every conditioning event (exposure/non-exposure crossed with each
    covariate level, and alone) must have positive mass.
    """
    n = _events(table, response, exposure, covariate)
    given = n.sum(axis=0)  # [e][k]
    mass = given.sum(axis=1)
    if not (mass > 0).all():
        raise TableError("exposure event or its complement has zero mass")
    if not (given > 0).all():
        raise TableError("conditioning event has zero mass")
    cond = _ratio(n[0], given).T  # [k][e]: P(response | exposure or not, stratum k)
    pairs = [(float(pe), float(pu)) for pe, pu in cond]
    signs = [_sign(pe, pu) for pe, pu in cond]
    w_exp, w_unexp = ([float(w) for w in row] for row in given / mass[:, None])
    marg_exact = _ratio(n[0].sum(axis=1), mass)
    marg = (float(marg_exact[0]), float(marg_exact[1]))
    marg_sign = _sign(*marg_exact)

    mixture_gap = max(
        abs(sum(pe * w for (pe, _), w in zip(pairs, w_exp)) - marg[0]),
        abs(sum(pu * w for (_, pu), w in zip(pairs, w_unexp)) - marg[1]),
    )

    # a strict marginal comparison with every stratum strictly the other way
    reversal = marg_sign != 0 and set(signs) == {-marg_sign}

    return ParadoxReport(
        response=response,
        exposure=exposure,
        covariate=table.scheme.names[table.scheme.axis(covariate)],
        covariate_levels=table.scheme.levels(covariate),
        conditional_pairs=tuple(pairs),
        marginal_pair=marg,
        weights_exposed=tuple(w_exp),
        weights_unexposed=tuple(w_unexp),
        stratum_signs=tuple(signs),
        marginal_sign=marg_sign,
        reversal=reversal,
        mixture_gap=mixture_gap,
    )


def cornfield(
    table: ContingencyTable,
    response: Event,
    exposure: Event,
    covariate: Event,
) -> CornfieldDiagnostics:
    """Evaluate the minimum effect-size inequalities for a binary confounder."""
    n = _events(table, response, exposure, covariate[0], covariate[1])
    mass_e, mass_c = n.sum(axis=(0, 2)), n.sum(axis=(0, 1))
    if not ((mass_e > 0).all() and (mass_c > 0).all()):
        raise TableError("conditioning event has zero mass")
    p_a_b, p_a_bc = _ratio(n[0].sum(axis=1), mass_e)
    p_c_b, p_c_bc = _ratio(n[:, :, 0].sum(axis=0), mass_e)
    p_a_c, p_a_cc = _ratio(n[0].sum(axis=0), mass_c)

    f_c_bc, f_a_bc = float(p_c_bc), float(p_a_bc)
    ratio_lhs = float(p_c_b) / f_c_bc if f_c_bc > 0.0 else None
    ratio_rhs = float(p_a_b) / f_a_bc if f_a_bc > 0.0 else None
    ratio_condition = (
        None if ratio_lhs is None or ratio_rhs is None else p_c_b / p_c_bc > p_a_b / p_a_bc
    )
    return CornfieldDiagnostics(
        ratio_lhs=ratio_lhs,
        ratio_rhs=ratio_rhs,
        ratio_condition=ratio_condition,
        riskdiff_lhs=float(p_a_c) - float(p_a_cc),
        riskdiff_rhs=float(p_a_b) - float(p_a_bc),
        riskdiff_condition=p_a_c - p_a_cc >= p_a_b - p_a_bc,
    )


@dataclass(frozen=True)
class StratumScan:
    """One candidate covariate's outcome in a whole-table scan."""

    covariate: str
    report: ParadoxReport | None
    error: str | None


def scan_strata(
    table: ContingencyTable, response: Event, exposure: Event
) -> tuple[StratumScan, ...]:
    """Run detect_reversal with every remaining variable as the covariate.

    Per-candidate errors (e.g. a zero-mass stratum) are captured in the scan
    entry instead of aborting the whole scan.  Entries follow the scheme's
    variable order.
    """
    if table.scheme.n < 3:
        raise SchemeError("scan needs at least 3 variables")
    (r_ax, _), (e_ax, _) = _event_axes(table.scheme, (response, exposure))
    out = []
    for ax, name in enumerate(table.scheme.names):
        if ax in (r_ax, e_ax):
            continue
        try:
            out.append(StratumScan(name, detect_reversal(table, response, exposure, name), None))
        except (TableError, SchemeError) as exc:
            out.append(StratumScan(name, None, str(exc)))
    return tuple(out)
