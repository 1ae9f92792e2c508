"""Seeded input generators.  The same seed gives the same inputs.

Desk-size generators build the library-sweep pools; the bulk generators
write the large CSV and JSON files of the bulk workload.  Counts stay far
below 2**53, so every count and every sum of counts is an exact float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from collapsekit.assoc import FiniteJoint
from collapsekit.depfun import GaussianLinearInteraction
from collapsekit.regress import RegressionStratum, StratifiedRegressionSummary
from collapsekit.survival import SurvivalSpec
from collapsekit.tables import CategoricalScheme, ContingencyTable


def scheme_of(shape, prefix: str = "x") -> CategoricalScheme:
    return CategoricalScheme(
        tuple((f"{prefix}{j}", tuple(f"l{i}" for i in range(m))) for j, m in enumerate(shape))
    )


# -- desk size -------------------------------------------------------------------
# Callers fix every size and shape; the seeded generator draws only values,
# so runs with different seeds do the same amount of work.

DESK_ROWS = 1000  # observations behind each 2x2xK counts table, and records per summary


def count_table(rng: np.random.Generator, k: int) -> ContingencyTable:
    """2x2xK counts table over response A, exposure X and covariate D.

    DESK_ROWS observations in all, and none of the 4K cells is empty.
    """
    scheme = CategoricalScheme(
        (("A", ("Y", "N")), ("X", ("M", "F")), ("D", tuple(f"d{i}" for i in range(k))))
    )
    cells = 1 + rng.multinomial(DESK_ROWS - 4 * k, rng.dirichlet(np.ones(4 * k)))
    return ContingencyTable(scheme, cells.reshape(2, 2, k).astype(float), "counts")


def positive_table(rng: np.random.Generator, shape) -> ContingencyTable:
    """Strictly positive probability table of the given shape."""
    cells = rng.uniform(0.05, 1.0, shape)
    return ContingencyTable(scheme_of(shape), cells / cells.sum(), "probability")


def ci_table(rng: np.random.Generator, shape) -> ContingencyTable:
    """Three-variable table with x0 independent of x2 given x1, exactly."""
    m0, m1, m2 = shape
    p1 = rng.uniform(0.2, 1.0, m1)
    p0g1 = rng.uniform(0.2, 1.0, (m0, m1))
    p2g1 = rng.uniform(0.2, 1.0, (m2, m1))
    p0g1 /= p0g1.sum(axis=0, keepdims=True)
    p2g1 /= p2g1.sum(axis=0, keepdims=True)
    cells = p0g1[:, :, None] * p2g1.T[None, :, :] * (p1 / p1.sum())[None, :, None]
    return ContingencyTable(scheme_of(shape), cells / cells.sum(), "probability")


def random_subset(rng: np.random.Generator, axes, lo: int, hi: int) -> tuple[int, ...]:
    """Sorted random subset of ``axes`` with lo..hi members (hi exclusive)."""
    size = int(rng.integers(lo, hi))
    return tuple(sorted(int(a) for a in rng.permutation(np.array(axes))[:size]))


def finite_joint(rng: np.random.Generator, shape) -> FiniteJoint:
    ny, nx, nw = shape
    p = rng.uniform(0.05, 1.0, shape)
    return FiniteJoint(
        tuple(float(i) for i in range(ny)),
        tuple(float(i) for i in range(nx)),
        tuple(float(i) for i in range(nw)),
        p / p.sum(),
    )


def regression_summary(rng: np.random.Generator, n: int, parallel: bool) -> StratifiedRegressionSummary:
    pis = rng.uniform(0.2, 1.0, n)
    pis /= pis.sum()
    beta0 = float(rng.uniform(-2.0, 2.0))
    strata = []
    for i in range(n):
        beta = beta0 if parallel else float(rng.uniform(-2.0, 2.0))
        s_xx = float(rng.uniform(0.5, 2.0))
        strata.append(
            RegressionStratum(
                pi=float(pis[i]),
                alpha=float(rng.uniform(-2.0, 2.0)),
                beta=beta,
                mu_x=float(rng.uniform(-2.0, 2.0)),
                s_xx=s_xx,
                s_yy=beta * beta * s_xx + float(rng.uniform(0.1, 2.0)),
            )
        )
    return StratifiedRegressionSummary(tuple(strata))


def gaussian_model(rng: np.random.Generator, independent: bool) -> GaussianLinearInteraction:
    """Gaussian family; ``independent`` makes W independent of X (rho = 0)."""
    a1, a2, a3 = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
    rho = 0.0 if independent else float(rng.uniform(0.3, 0.8))
    return GaussianLinearInteraction(a1, a2, a3, float(rng.uniform(0.5, 1.5)), rho)


def dep_grid(rng: np.random.Generator, positive_y: bool) -> list[tuple[float, float]]:
    """36 (y, x) probe points, the size of the default 6x6 grid."""
    ys = rng.uniform(0.1, 2.0, 36) if positive_y else rng.uniform(-2.0, 2.0, 36)
    xs = rng.uniform(-2.0, 2.0, 36)
    return [(float(y), float(x)) for y, x in zip(ys, xs)]


def survival_spec(rng: np.random.Generator, reversal: bool) -> SurvivalSpec:
    """Gaussian survival spec with rho at half or twice the rho = bx/|by| boundary."""
    bx = float(rng.uniform(0.5, 1.5))
    by = float(rng.uniform(-2.5, -1.5))
    factor = 2.0 if reversal else 0.5
    return SurvivalSpec(
        beta_x=bx, beta_y=by, eta_mu=float(rng.uniform(-0.5, 0.5)), eta_rho=factor * bx / abs(by)
    )


@dataclass(frozen=True)
class Observations:
    """Categorical observations as integer codes plus the CSV that spells them."""

    names: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]  # level labels per column, indexed by code
    codes: np.ndarray  # (rows, columns) int
    path: Path


def write_observations(path: Path, names, labels, codes: np.ndarray) -> Observations:
    lookup = [np.asarray(lv, dtype=object) for lv in labels]
    cols = [lookup[j][codes[:, j]] for j in range(codes.shape[1])]
    lines = [",".join(names)]
    lines.extend(",".join(row) for row in zip(*cols))
    path.write_text("\n".join(lines) + "\n")
    return Observations(tuple(names), tuple(tuple(lv) for lv in labels), codes, path)


def observations_of(table: ContingencyTable, rng: np.random.Generator, path: Path) -> Observations:
    """The shuffled observation file behind an integer counts table."""
    counts = table.cells.astype(np.int64).reshape(-1)
    flat = rng.permutation(np.repeat(np.arange(counts.size), counts))
    codes = np.stack(np.unravel_index(flat, table.scheme.shape), axis=1)
    labels = [levels for _, levels in table.scheme.variables]
    return write_observations(path, table.scheme.names, labels, codes)


@dataclass(frozen=True)
class Records:
    y: np.ndarray
    x: np.ndarray
    a: np.ndarray  # stratum code per record
    labels: tuple[str, ...]
    path: Path | None = None


def records(rng: np.random.Generator, rows: int, strata: int) -> Records:
    """Stratified (y, x, a) records whose per-stratum moments stay well away from 0."""
    a = rng.integers(0, strata, rows)
    a[:strata] = np.arange(strata)  # every stratum is present
    alpha = rng.uniform(1.0, 3.0, strata)
    beta = rng.uniform(0.5, 1.5, strata)
    mu = rng.uniform(1.0, 3.0, strata)
    x = rng.normal(mu[a], 1.0)
    y = alpha[a] + beta[a] * x + rng.normal(0.0, 1.0, rows)
    return Records(y, x, a, tuple(f"g{i:02d}" for i in range(strata)))


def write_records(path: Path, rec: Records) -> Records:
    lab = np.asarray(rec.labels, dtype=object)[rec.a]
    lines = ["y,x,a"]
    lines.extend(f"{yy!r},{xx!r},{aa}" for yy, xx, aa in zip(rec.y.tolist(), rec.x.tolist(), lab))
    path.write_text("\n".join(lines) + "\n")
    return Records(rec.y, rec.x, rec.a, rec.labels, path)


# -- bulk ------------------------------------------------------------------------

BULK_ROWS = 100_000
BULK_STRATA = 50
BULK_SHAPE = (2,) * 7 + (3,) * 3  # 3,456 cells, prod(m + 1) = 139,968 interaction floats


def bulk_observations(rng: np.random.Generator, path: Path) -> Observations:
    """BULK_ROWS observations over 5 columns; the first column has 50 levels."""
    sizes = (50, 2, 3, 4, 2)
    codes = np.stack([rng.integers(0, m, BULK_ROWS) for m in sizes], axis=1)
    for j, m in enumerate(sizes):
        codes[:m, j] = np.arange(m)  # every level is observed
    names = ("site", "arm", "dose", "grade", "sex")
    labels = [tuple(f"{n}{i:02d}" for i in range(m)) for n, m in zip(names, sizes)]
    return write_observations(path, names, labels, codes)


def bulk_table(rng: np.random.Generator, path: Path) -> ContingencyTable:
    cells = rng.uniform(0.05, 1.0, BULK_SHAPE)
    table = ContingencyTable(scheme_of(BULK_SHAPE, "v"), cells / cells.sum(), "probability")
    path.write_text(json.dumps(table.to_json_dict()))
    return table
