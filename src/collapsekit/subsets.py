"""Bitmask helpers for walking the subset lattice of variable axes.

A subset of axes {0..n-1} is encoded as an int with bit j set when axis j
is in the subset.  All lattice iteration in the log-linear machinery goes
through these helpers so the enumeration order is fixed in one place.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(axes: Iterable[int]) -> int:
    m = 0
    for a in axes:
        m |= 1 << a
    return m


def axes_of(mask: int) -> tuple[int, ...]:
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself.

    Emitted in decreasing numeric order (standard sub = (sub-1) & mask walk).
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def masks_by_size(n: int) -> list[int]:
    """Every mask over n axes, sorted by popcount then numeric value."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
