"""Event-level Simpson's paradox detection on contingency tables.

A response event and an exposure event are each designated as one level of
a variable versus the rest; the covariate contributes one stratum per
level.  A reversal requires every stratum comparison to go strictly in one
common direction while the marginal comparison goes strictly the other
way; any tie breaks the verdict to False.

Probabilities are plain float ratios of cell sums, so tables whose cells
are small integer counts reproduce textbook fractions exactly.  The raw
fraction-reversal fact is checked in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SchemeError, TableError
from .tables import ContingencyTable

Event = tuple[str, str]  # (variable, designated level)


def _sign(a: float, b: float) -> int:
    if a > b:
        return 1
    if a < b:
        return -1
    return 0


class _EventFrame:
    """Resolved axes/levels for (response, exposure[, covariate]) on one table."""

    def __init__(
        self,
        table: ContingencyTable,
        response: Event,
        exposure: Event,
        covariate: "str | int | None" = None,
    ):
        scheme = table.scheme
        self.cells = table.cells
        self.r_ax = scheme.axis(response[0])
        self.r_ix = scheme.level_index(response[0], response[1])
        self.e_ax = scheme.axis(exposure[0])
        self.e_ix = scheme.level_index(exposure[0], exposure[1])
        used = {self.r_ax, self.e_ax}
        self.c_ax: int | None = None
        if covariate is not None:
            self.c_ax = scheme.axis(covariate)
            used.add(self.c_ax)
        if len(used) != (2 if covariate is None else 3):
            raise SchemeError("response, exposure, covariate must be distinct variables")

    def mass(self, sels: dict[int, tuple[str, int]]) -> float:
        """Total mass of the event described by per-axis selectors.

        Selector kinds: ("eq", i) keeps level i; ("ne", i) aggregates the
        complement of level i.
        """
        arr = self.cells
        for ax in sorted(sels, reverse=True):
            kind, ix = sels[ax]
            taken = np.take(arr, ix, axis=ax)
            arr = taken if kind == "eq" else arr.sum(axis=ax) - taken
        return float(arr.sum())

    def cond_prob(self, sels: dict[int, tuple[str, int]]) -> float:
        """P(response event | the event described by sels)."""
        given = self.mass(sels)
        if given <= 0.0:
            raise TableError("conditioning event has zero mass")
        joint = dict(sels)
        joint[self.r_ax] = ("eq", self.r_ix)
        return self.mass(joint) / given


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
    fr = _EventFrame(table, response, exposure, covariate)
    assert fr.c_ax is not None
    levels = table.scheme.levels(covariate)

    pairs: list[tuple[float, float]] = []
    w_exp: list[float] = []
    w_unexp: list[float] = []
    signs: list[int] = []
    mass_b = fr.mass({fr.e_ax: ("eq", fr.e_ix)})
    mass_bc = fr.mass({fr.e_ax: ("ne", fr.e_ix)})
    if mass_b <= 0.0 or mass_bc <= 0.0:
        raise TableError("exposure event or its complement has zero mass")
    for ci in range(len(levels)):
        pe = fr.cond_prob({fr.e_ax: ("eq", fr.e_ix), fr.c_ax: ("eq", ci)})
        pu = fr.cond_prob({fr.e_ax: ("ne", fr.e_ix), fr.c_ax: ("eq", ci)})
        pairs.append((pe, pu))
        signs.append(_sign(pe, pu))
        w_exp.append(fr.mass({fr.e_ax: ("eq", fr.e_ix), fr.c_ax: ("eq", ci)}) / mass_b)
        w_unexp.append(fr.mass({fr.e_ax: ("ne", fr.e_ix), fr.c_ax: ("eq", ci)}) / mass_bc)

    marg = (
        fr.cond_prob({fr.e_ax: ("eq", fr.e_ix)}),
        fr.cond_prob({fr.e_ax: ("ne", fr.e_ix)}),
    )
    marg_sign = _sign(*marg)

    mixture_gap = max(
        abs(sum(pe * w for (pe, _), w in zip(pairs, w_exp)) - marg[0]),
        abs(sum(pu * w for (_, pu), w in zip(pairs, w_unexp)) - marg[1]),
    )

    common = signs[0]
    uniform_strict = common != 0 and all(s == common for s in signs)
    reversal = uniform_strict and marg_sign == -common

    return ParadoxReport(
        response=response,
        exposure=exposure,
        covariate=table.scheme.names[fr.c_ax],
        covariate_levels=levels,
        conditional_pairs=tuple(pairs),
        marginal_pair=marg,
        weights_exposed=tuple(w_exp),
        weights_unexposed=tuple(w_unexp),
        stratum_signs=tuple(signs),
        marginal_sign=marg_sign,
        reversal=reversal,
        mixture_gap=mixture_gap,
    )


def blyth_weights(
    table: ContingencyTable,
    response: Event,
    exposure: Event,
    covariate: "str | int",
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Stratum weights P(c|exposure) and P(c|non-exposure).

    These are the mixing weights that express each marginal conditional
    probability as a weighted average of the stratum conditionals.
    """
    rep = detect_reversal(table, response, exposure, covariate)
    return rep.weights_exposed, rep.weights_unexposed


def cornfield(
    table: ContingencyTable,
    response: Event,
    exposure: Event,
    covariate: Event,
) -> CornfieldDiagnostics:
    """Evaluate the minimum effect-size inequalities for a binary confounder."""
    fr = _EventFrame(table, response, exposure, covariate[0])
    assert fr.c_ax is not None
    c_ix = table.scheme.level_index(covariate[0], covariate[1])

    p_a_b = fr.cond_prob({fr.e_ax: ("eq", fr.e_ix)})
    p_a_bc = fr.cond_prob({fr.e_ax: ("ne", fr.e_ix)})
    p_c_b = fr.mass({fr.e_ax: ("eq", fr.e_ix), fr.c_ax: ("eq", c_ix)}) / fr.mass(
        {fr.e_ax: ("eq", fr.e_ix)}
    )
    p_c_bc = fr.mass({fr.e_ax: ("ne", fr.e_ix), fr.c_ax: ("eq", c_ix)}) / fr.mass(
        {fr.e_ax: ("ne", fr.e_ix)}
    )
    p_a_c = fr.cond_prob({fr.c_ax: ("eq", c_ix)})
    p_a_cc = fr.cond_prob({fr.c_ax: ("ne", c_ix)})

    if p_c_bc > 0.0 and p_a_bc > 0.0:
        ratio_lhs: float | None = p_c_b / p_c_bc
        ratio_rhs: float | None = p_a_b / p_a_bc
        ratio_condition: bool | None = ratio_lhs > ratio_rhs
    else:
        ratio_lhs = p_c_b / p_c_bc if p_c_bc > 0.0 else None
        ratio_rhs = p_a_b / p_a_bc if p_a_bc > 0.0 else None
        ratio_condition = None

    riskdiff_lhs = p_a_c - p_a_cc
    riskdiff_rhs = p_a_b - p_a_bc
    return CornfieldDiagnostics(
        ratio_lhs=ratio_lhs,
        ratio_rhs=ratio_rhs,
        ratio_condition=ratio_condition,
        riskdiff_lhs=riskdiff_lhs,
        riskdiff_rhs=riskdiff_rhs,
        riskdiff_condition=riskdiff_lhs >= riskdiff_rhs,
    )


def fraction_reversal(
    k: int, l: int, K: int, L: int, m: int, n: int, M: int, N: int
) -> bool:
    """Exact check that k/l < K/L and m/n < M/N while the pooled fractions flip.

    Comparisons use integer cross-multiplication, which is exact rational
    arithmetic.  Denominators must be positive integers; numerators must be
    nonnegative integers.
    """
    for name, v in (("k", k), ("K", K), ("m", m), ("M", M)):
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise TableError(f"numerator {name} must be a nonnegative integer")
    for name, v in (("l", l), ("L", L), ("n", n), ("N", N)):
        if not isinstance(v, (int, np.integer)) or v <= 0:
            raise TableError(f"denominator {name} must be a positive integer")
    return (
        k * L < K * l
        and m * N < M * n
        and (k + m) * (L + N) > (K + M) * (l + n)
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
    fr = _EventFrame(table, response, exposure)
    out = []
    for ax, name in enumerate(table.scheme.names):
        if ax in (fr.r_ax, fr.e_ax):
            continue
        try:
            out.append(StratumScan(name, detect_reversal(table, response, exposure, name), None))
        except (TableError, SchemeError) as exc:
            out.append(StratumScan(name, None, str(exc)))
    return tuple(out)
