import numpy as np
import pytest

from collapsekit.tables import PROB_SUM_TOL, CategoricalScheme, ContingencyTable, build_table


@pytest.fixture
def admission_table():
    """Admission counts: A (admitted) x X (sex) x D (department)."""
    scheme = CategoricalScheme(
        (("A", ("Y", "N")), ("X", ("M", "F")), ("D", ("H", "G")))
    )
    return build_table(scheme, [1, 6, 2, 4, 4, 2, 6, 1], "counts")


@pytest.fixture
def death_penalty_table():
    """Death-penalty counts: A (accused race) x V (victim race) x D (verdict)."""
    scheme = CategoricalScheme(
        (("A", ("W", "B")), ("V", ("W", "B")), ("D", ("Y", "N")))
    )
    return build_table(scheme, [19, 132, 0, 9, 11, 52, 6, 97], "counts")


def random_positive_table(rng, n=None, max_levels=4, lo=0.05):
    """Strictly positive probability table with random shape."""
    if n is None:
        n = int(rng.integers(2, 5))
    shape = tuple(int(m) for m in rng.integers(2, max_levels + 1, n))
    cells = rng.uniform(lo, 1.0, shape)
    cells /= cells.sum()
    scheme = CategoricalScheme(
        tuple(
            (f"x{j}", tuple(f"l{i}" for i in range(m)))
            for j, m in enumerate(shape)
        )
    )
    return ContingencyTable(scheme, cells, "probability")


def sum_edge_cells(rng, shape):
    """Positive cells whose sum lies within 3e-16 of the reader's sum bound
    on either side of 1: the reader accepts about four in five of them."""
    cells = rng.uniform(0.05, 1.0, shape)
    edge = PROB_SUM_TOL - rng.uniform(0.0, 3e-16)
    return cells / cells.sum() * (1.0 + rng.choice((-1.0, 1.0)) * edge)


def ci_constructed_table(rng, m1=None, m2=None, m3=None):
    """Three-variable table with x1 independent of x3 given x2, exactly."""
    m1 = m1 or int(rng.integers(2, 4))
    m2 = m2 or int(rng.integers(2, 4))
    m3 = m3 or int(rng.integers(2, 4))
    p2 = rng.uniform(0.2, 1.0, m2)
    p2 /= p2.sum()
    p1g2 = rng.uniform(0.2, 1.0, (m1, m2))
    p1g2 /= p1g2.sum(axis=0, keepdims=True)
    p3g2 = rng.uniform(0.2, 1.0, (m3, m2))
    p3g2 /= p3g2.sum(axis=0, keepdims=True)
    cells = p1g2[:, :, None] * p3g2.T[None, :, :] * p2[None, :, None]
    scheme = CategoricalScheme(
        (
            ("x1", tuple(f"l{i}" for i in range(m1))),
            ("x2", tuple(f"l{i}" for i in range(m2))),
            ("x3", tuple(f"l{i}" for i in range(m3))),
        )
    )
    return ContingencyTable(scheme, cells / cells.sum(), "probability")


def max_abs(dec, subset):
    """max |tau_A| of a decomposition over the subset A."""
    return float(np.max(np.abs(dec.tau(subset))))
