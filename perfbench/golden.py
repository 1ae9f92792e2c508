"""Desk golden corpus: small textbook inputs and the CLI output expected on them.

``CASES`` names one CLI call per verb and format, plus ``--version``.
``corpus/expected.json`` records, for each case, the exit code and the
SHA-256 of stdout at the commit that defined the benchmark; the cli-desk
workload counts a mismatch as a failed operation.

Run from the repository root to rebuild the inputs and re-record the
expected outputs, after a change that is meant to alter a report:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from harness import child_env

CORPUS = Path("perfbench/corpus")


def _p(name: str) -> str:
    return str(CORPUS / name)


CASES: dict[str, list[str]] = {
    "ingest": ["ingest", _p("death_penalty.csv")],
    "ingest.md": ["ingest", "--format", "md", _p("death_penalty.csv")],
    "scan-paradox": [
        "scan-paradox", "--response", "A=Y", "--exposure", "X=M", "--cornfield", "D=H", _p("admission.csv"),
    ],
    "scan-paradox.md": ["scan-paradox", "--format", "md", "--response", "D=Y", "--exposure", "A=W", _p("death_penalty.json")],
    "decompose": ["decompose", _p("admission.json")],
    "decompose.md": ["decompose", "--format", "md", "--smoothing", "0.5", _p("death_penalty.json")],
    "collapse-check": ["collapse-check", "--target", "A,X", "--margin", "A,X", _p("admission.json")],
    "collapse-check.md": [
        "collapse-check", "--format", "md", "--strict", "--target", "A,D", "--smoothing", "0.5", _p("death_penalty.json"),
    ],
    "assoc-check": ["assoc-check", "--relation", "r4", _p("joint.json")],
    "assoc-check.md": ["assoc-check", "--format", "md", "--relation", "r1", _p("joint.json")],
    "regress-audit": ["regress-audit", _p("records.csv")],
    "regress-audit.md": ["regress-audit", "--format", "md", _p("records.csv")],
    "regress-audit.summary": ["regress-audit", _p("summary.json")],
    "dep-check": ["dep-check", _p("gauss.json")],
    "dep-check.md": ["dep-check", "--format", "md", _p("uniform.json")],
    "survival-check": ["survival-check", "--numeric", _p("survival.json")],
    "survival-check.md": ["survival-check", "--format", "md", _p("survival.json")],
    "version": ["--version"],
}
TABLES = {  # name: (variables, levels, row-major counts)
    "admission": (("A", "X", "D"), (("Y", "N"), ("M", "F"), ("H", "G")), [1, 6, 2, 4, 4, 2, 6, 1]),
    "death_penalty": (("A", "V", "D"), (("W", "B"), ("W", "B"), ("Y", "N")), [19, 132, 0, 9, 11, 52, 6, 97]),
}
INGEST_ROWS = sum(TABLES["death_penalty"][2])  # rows of death_penalty.csv, for the ingest rate
RECORDS_ROWS = 200  # rows of records.csv, for the records rate


def verb_of(case: str) -> str:
    return case.split(".", 1)[0]


def cli_command(argv: list[str], *python_flags: str) -> list[str]:
    return [sys.executable, *python_flags, "-m", "collapsekit.cli", *argv]


def _table_json(names, levels, cells) -> str:
    return json.dumps(
        {
            "variables": [{"name": n, "levels": list(lv)} for n, lv in zip(names, levels)],
            "form": "counts",
            "cells": cells,
        },
        indent=1,
    )


def _expansion(names, levels, cells) -> str:
    rows = [",".join(names)]
    for combo, count in zip(itertools.product(*levels), cells):
        rows.extend([",".join(combo)] * count)
    return "\n".join(rows) + "\n"


def write_inputs() -> None:
    """Admission and death-penalty tables (JSON and CSV), a joint, summaries, models, a survival spec."""
    CORPUS.mkdir(parents=True, exist_ok=True)
    for name, spec in TABLES.items():
        (CORPUS / f"{name}.json").write_text(_table_json(*spec) + "\n")
        (CORPUS / f"{name}.csv").write_text(_expansion(*spec))

    # W independent of X given Y, with a covariance sign that flips marginally
    py, px, pw = (1 / 8, 3 / 8, 1 / 2), (9 / 10, 1 / 10, 2 / 3), (1 / 2, 9 / 10, 1 / 10)
    p = [
        py[y] * (px[y] if x else 1 - px[y]) * (pw[y] if w else 1 - pw[y])
        for y in range(3)
        for x in range(2)
        for w in range(2)
    ]
    joint = {"levels": {"y": [0.0, 1.0, 2.0], "x": [0.0, 1.0], "w": [0.0, 1.0]}, "p": p}
    (CORPUS / "joint.json").write_text(json.dumps(joint, indent=1) + "\n")

    summary = {
        "levels": [
            {"pi": 0.25, "alpha": 1.0, "beta": 0.5, "mu_x": -1.0, "s_xx": 1.0, "s_yy": 2.0, "label": "low"},
            {"pi": 0.5, "alpha": 0.0, "beta": 0.5, "mu_x": 0.0, "s_xx": 2.0, "s_yy": 1.5, "label": "mid"},
            {"pi": 0.25, "alpha": 2.0, "beta": 0.5, "mu_x": 1.0, "s_xx": 0.5, "s_yy": 1.0, "label": "high"},
        ]
    }
    (CORPUS / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    rng = np.random.default_rng(20140326)
    a = rng.integers(0, 4, RECORDS_ROWS)
    x = rng.normal(a * 0.5, 1.0)
    y = (1.0 + 0.25 * a) * x + a + rng.normal(0.0, 1.0, RECORDS_ROWS)
    lines = ["y,x,a"] + [f"{yy!r},{xx!r},s{aa}" for yy, xx, aa in zip(y.tolist(), x.tolist(), a.tolist())]
    (CORPUS / "records.csv").write_text("\n".join(lines) + "\n")

    models = {
        "gauss": {
            "family": "gaussian-linear-interaction",
            "alpha": [1.0, 0.5, 0.8],
            "sigma": 1.0,
            "w_law": {"type": "normal", "mean_slope": 0.0},
        },
        "uniform": {"family": "uniform-quadratic"},
        "survival": {"beta_x": 1.0, "beta_y": -2.0, "eta": {"mu": 0.0, "rho": 0.8}, "w_law": "std-normal", "v_law": "std-normal"},
    }
    for name, payload in models.items():
        (CORPUS / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")


def record() -> dict:
    env = child_env()
    expected = {}
    for case, argv in CASES.items():
        proc = subprocess.run(cli_command(argv), env=env, capture_output=True, timeout=120)
        if proc.returncode not in (0, 2):
            raise SystemExit(f"{case}: exit {proc.returncode}: {proc.stdout.decode()[:500]}")
        expected[case] = {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return expected


if __name__ == "__main__":
    write_inputs()
    (CORPUS / "expected.json").write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
