"""Byte-identical reports on the golden corpus, and bitwise-equal lattice routes.

The golden cases and their expected exit codes and stdout SHA-256 digests
live with the benchmark in ``perfbench/``; they are read here, never
written.  Each case runs in-process through ``cli.main``.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from collapsekit.cli import main
from collapsekit.collapse import check_collapsibility, check_strict_collapsibility
from collapsekit.loglinear import decompose, interaction
from collapsekit.subsets import axes_of, mask_of, submasks
from collapsekit.tables import CategoricalScheme, ContingencyTable

from conftest import max_abs, random_positive_table

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _golden_cases() -> dict[str, list[str]]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("golden").CASES
    finally:
        sys.path.remove(str(PERFBENCH))


CASES = _golden_cases()
EXPECTED = json.loads((PERFBENCH / "corpus" / "expected.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_case(case, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # case arguments are paths relative to the repo root
    code = main(list(CASES[case]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == EXPECTED[case]["exit"]
    assert hashlib.sha256(out).hexdigest() == EXPECTED[case]["stdout_sha256"]


def reference_tau(logp: np.ndarray, mask: int) -> np.ndarray:
    """Every subset mean first, then one alternating sum in ``submasks`` order."""
    n = logp.ndim
    means = {}
    for sub in range(1 << n):
        comp = tuple(a for a in range(n) if not sub & (1 << a))
        means[sub] = logp.mean(axis=comp, keepdims=True) if comp else logp
    out = None
    for sub in submasks(mask):
        term = means[sub] if (mask.bit_count() - sub.bit_count()) % 2 == 0 else -means[sub]
        out = term if out is None else out + term
    drop = tuple(a for a in range(n) if not mask & (1 << a))
    return np.squeeze(out, axis=drop)


def random_tables(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, random_positive_table(rng, n=int(rng.integers(2, 5)), max_levels=3)


class TestBitwiseRoutes:
    def test_interaction_and_decompose_match_reference(self):
        for _, t in random_tables(10, 20):
            dec = decompose(t)
            logp = np.log(t.cells)
            for subset in dec.subsets():
                ref = reference_tau(logp, mask_of(subset))
                assert np.array_equal(dec.tau(subset), ref)
                assert np.array_equal(interaction(t, subset), ref)

    def test_collapse_reports_the_decompositions(self):
        for rng, t in random_tables(11, 30):
            n = t.scheme.n
            b = tuple(sorted(rng.permutation(n)[: int(rng.integers(1, n))].tolist()))
            a_size = int(rng.integers(1, len(b) + 1))
            a = tuple(sorted(rng.permutation(np.array(b))[:a_size].tolist()))
            a_pos = tuple(b.index(x) for x in a)
            v = check_collapsibility(t, a, b)
            assert np.array_equal(v.tau_full, decompose(t).tau(a))
            assert np.array_equal(v.eta_marginal, decompose(t.marginalize(b)).tau(a_pos))

    def test_strict_collapse_reports_the_decompositions(self):
        for rng, t in random_tables(12, 20):
            n = t.scheme.n
            perm = rng.permutation(n).tolist()
            cut_a, cut_c = sorted(rng.choice(np.arange(1, n), size=2, replace=True).tolist())
            # 1 <= cut_a <= cut_c <= n - 1: target and collapsed are nonempty
            a, g, c = (tuple(sorted(part)) for part in (perm[:cut_a], perm[cut_a:cut_c], perm[cut_c:]))
            v = check_strict_collapsibility(t, a, g, c)
            margin = tuple(sorted(a + g))
            full, marg = decompose(t), decompose(t.marginalize(margin))
            assert np.array_equal(v.tau_full, full.tau(a))
            assert np.array_equal(v.eta_marginal, marg.tau(tuple(margin.index(x) for x in a)))
            for l_mask in submasks(mask_of(margin)):
                if l_mask & mask_of(a):
                    l_axes = axes_of(l_mask)
                    l_pos = tuple(margin.index(x) for x in l_axes)
                    gap = float(np.max(np.abs(full.tau(l_axes) - marg.tau(l_pos))))
                    assert v.set_gaps[t.scheme.subset_names(l_axes)] == gap
            zero = max(
                max_abs(full, axes_of(m)) for m in range(1 << n) if m & mask_of(a) and m & mask_of(c)
            )
            assert v.zero_set_max == zero

    def test_strict_extends_the_plain_verdict(self):
        # the fields a strict verdict shares with the plain verdict for the
        # target over target ∪ given; below 7 spanned axes both requests
        # take the same per-mask path, so they match bit for bit
        golden = ContingencyTable.from_json((PERFBENCH / "corpus" / "death_penalty.json").read_text())
        cases = [
            (golden.normalize(smoothing=0.5), a, g, c)
            for a, g, c in ((("A", "D"), (), ("V",)), (("A",), ("D",), ("V",)), (("V",), (), ("A", "D")))
        ]
        rng = np.random.default_rng(14)
        for _ in range(30):
            t = random_positive_table(rng, n=int(rng.integers(2, 7)), max_levels=3)
            perm = rng.permutation(t.scheme.n).tolist()
            cut_a, cut_c = sorted(rng.choice(np.arange(1, t.scheme.n), size=2).tolist())
            cases.append((t, perm[:cut_a], perm[cut_a:cut_c], perm[cut_c:]))
        for t, a, g, c in cases:
            strict = check_strict_collapsibility(t, a, g, c)
            plain = check_collapsibility(t, a, [*a, *g])
            for name in ("target", "margin", "max_residual", "direct_gap", "tol"):
                assert getattr(strict, name) == getattr(plain, name), name
            for name in ("tau_full", "eta_marginal"):
                got, want = getattr(strict, name), getattr(plain, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("shape", [(2, 3, 2, 3, 2), (3, 2, 2, 3, 2, 3), (3, 3, 2, 2, 3, 2)])
    def test_wide_tables_with_ternary_axes_match_reference(self, shape):
        # five or six axes: masks of popcount 4 to 6 sum 16 to 64 subset
        # means, most of them added or subtracted in place
        rng = np.random.default_rng(sum(shape))
        cells = rng.uniform(0.05, 1.0, shape)
        scheme = CategoricalScheme(
            tuple((f"x{j}", tuple(f"l{i}" for i in range(m))) for j, m in enumerate(shape))
        )
        t = ContingencyTable(scheme, cells / cells.sum(), "probability")
        dec = decompose(t)
        logp = np.log(t.cells)
        wide = [s for s in dec.subsets() if len(s) >= 4]
        assert len(wide) >= 6
        for subset in dec.subsets():
            ref = reference_tau(logp, mask_of(subset))
            assert np.array_equal(dec.tau(subset), ref)
        for subset in wide:
            assert np.array_equal(interaction(t, subset), reference_tau(logp, mask_of(subset)))
