import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import cli
from collapsekit.cli import (
    EXIT_DETECTED,
    EXIT_ERROR,
    EXIT_OK,
    as_report,
    build_parser,
    dumps_report,
    ingest_csv,
    main,
)
from collapsekit.errors import DistributionError, SchemeError, TableError
from collapsekit.loglinear import LATTICE_BUDGET
from collapsekit.regress import StratifiedRegressionSummary, _marginal_line, summary_from_records
from collapsekit.tables import CategoricalScheme, ContingencyTable

from conftest import ci_constructed_table, random_positive_table
from test_golden import CASES as GOLDEN

ROOT = Path(__file__).resolve().parents[1]


EX1_ROWS = ["A,X,D"] + [
    f"{a},{x},{d}"
    for (a, x, d), count in zip(
        itertools.product("YN", "MF", "HG"), [1, 6, 2, 4, 4, 2, 6, 1]
    )
    for _ in range(count)
]

EX2_ROWS = ["A,V,D"] + [
    f"{a},{v},{d}"
    for (a, v, d), count in zip(
        itertools.product("WB", "WB", "YN"), [19, 132, 0, 9, 11, 52, 6, 97]
    )
    for _ in range(count)
]


SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.fixture
def berkeley_csv(tmp_path):
    p = tmp_path / "berkeley.csv"
    p.write_text("\n".join(EX1_ROWS) + "\n")
    return str(p)


@pytest.fixture
def penalty_csv(tmp_path):
    p = tmp_path / "penalty.csv"
    p.write_text("\n".join(EX2_ROWS) + "\n")
    return str(p)


class TestIngestCsv:
    def test_admission_counts(self, berkeley_csv, admission_table):
        t = ingest_csv(berkeley_csv)
        assert t.scheme.names == ("A", "X", "D")
        assert np.array_equal(t.cells, admission_table.cells)
        assert t.total == 26.0

    def test_death_penalty_counts(self, penalty_csv, death_penalty_table):
        t = ingest_csv(penalty_csv)
        assert t.cells.reshape(-1).tolist() == [19, 132, 0, 9, 11, 52, 6, 97]
        assert t.total == 326.0

    def test_row_order_irrelevant(self, tmp_path, admission_table):
        rng = np.random.default_rng(0)
        rows = EX1_ROWS[1:]
        rng.shuffle(rows)
        p = tmp_path / "shuffled.csv"
        # keep the original level order by pinning a declared scheme
        p.write_text("\n".join(["A,X,D"] + rows) + "\n")
        t = ingest_csv(str(p), scheme=admission_table.scheme)
        assert np.array_equal(t.cells, admission_table.cells)

    def test_marginalize_equals_projected_ingest(self, berkeley_csv, tmp_path):
        full = ingest_csv(berkeley_csv)
        projected = tmp_path / "proj.csv"
        projected.write_text(
            "\n".join(["A,X"] + [",".join(r.split(",")[:2]) for r in EX1_ROWS[1:]]) + "\n"
        )
        assert np.array_equal(
            full.marginalize(["A", "X"]).cells, ingest_csv(str(projected)).cells
        )

    def test_single_row_with_declared_scheme(self, tmp_path):
        scheme = CategoricalScheme((("a", ("0", "1")), ("b", ("u", "v"))))
        p = tmp_path / "one.csv"
        p.write_text("a,b\n1,u\n")
        t = ingest_csv(str(p), scheme=scheme)
        assert t.total == 1.0
        assert t.cells[1, 0] == 1.0  # a=1, b=u
        assert t.cells[0, 1] == 0.0  # a=0, b=v

    def test_single_row_without_scheme(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("a,b\n1,u\n")
        with pytest.raises(TableError, match="single observed level"):
            ingest_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(TableError, match="empty"):
            ingest_csv(str(p))

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(TableError, match="ragged"):
            ingest_csv(str(p))

    def test_too_many_variables(self, tmp_path):
        p = tmp_path / "wide.csv"
        cols = [f"c{i}" for i in range(21)]
        p.write_text(",".join(cols) + "\n" + ",".join(["0"] * 21) + "\n")
        with pytest.raises(TableError, match="more than 20"):
            ingest_csv(str(p))

    def test_ragged_row_reports_its_physical_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("A,B\na,b\n\nc,d\ne\n")
        with pytest.raises(TableError, match="ragged row at line 5$"):
            ingest_csv(str(p))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_quoted_field_keeps_its_line_break(self, tmp_path, eol):
        p = tmp_path / "multiline.csv"
        p.write_bytes(eol.join(["a,b", '"x' + eol + 'y",u', "z,v", '"x' + eol + 'y",v', ""]).encode())
        t = ingest_csv(str(p))
        assert t.scheme.variables == (("a", ("x" + eol + "y", "z")), ("b", ("u", "v")))
        assert t.cells.tolist() == [[1.0, 1.0], [0.0, 1.0]]

    def test_ragged_row_after_a_multiline_field(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text('a,b\n"x\ny",u\nz,v\nw\n')
        with pytest.raises(TableError, match="ragged row at line 5$"):
            ingest_csv(str(p))

    # str.splitlines also breaks lines at these; in a CSV they are ordinary
    # field characters, and only LF, CR and CRLF end a row
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_only_lf_cr_and_crlf_end_a_row(self, tmp_path, sep, eol):
        p = tmp_path / "sep.csv"
        p.write_bytes(eol.join(["a,b", f"x{sep}y,u", "z,v", f"x{sep}y,v", ""]).encode())
        t = ingest_csv(str(p))
        assert t.scheme.variables == (("a", (f"x{sep}y", "z")), ("b", ("u", "v")))
        assert t.cells.tolist() == [[1.0, 1.0], [0.0, 1.0]]
        p.write_bytes(eol.join(["a,b", f"x{sep}y,u", "z", ""]).encode())
        with pytest.raises(TableError, match="ragged row at line 3$"):
            ingest_csv(str(p))

    def test_field_at_the_size_limit_is_read(self, tmp_path):
        # the line is over csv.field_size_limit(), its fields are not
        label = "x" * csv.field_size_limit()
        p = tmp_path / "wide.csv"
        p.write_text(f"a,b\n{label},y\nq,z\n")
        assert ingest_csv(str(p)).scheme.variables == (("a", (label, "q")), ("b", ("y", "z")))

    def test_nul_reads_as_csv_reader_does(self, tmp_path):
        # csv.reader rejects NUL on Python 3.10 and reads it from 3.11 on
        text = "a,b\nx\0,u\nz,v\n"
        p = tmp_path / "nul.csv"
        p.write_text(text)
        try:
            list(csv.reader(text.splitlines()))
        except csv.Error as exc:
            with pytest.raises(TableError, match=f"^malformed CSV: {exc}$"):
                ingest_csv(str(p))
        else:
            assert ingest_csv(str(p)).scheme.variables == (("a", ("x\0", "z")), ("b", ("u", "v")))

    def test_first_unknown_level_in_row_order(self, tmp_path):
        scheme = CategoricalScheme((("a", ("x", "y")), ("b", ("u", "v"))))
        p = tmp_path / "unknown.csv"
        p.write_text("a,b\nx,u\ny,w\nq,v\n")
        with pytest.raises(SchemeError, match="unknown level 'w' for variable 'b'"):
            ingest_csv(str(p), scheme=scheme)

    def test_padded_duplicates_are_summed(self, tmp_path):
        # distinct raw rows, one cell: the tallies must add, not overwrite
        p = tmp_path / "padded.csv"
        p.write_text('a,b\nx,u\n x ,u\n"x", u\ny,v\nx,u\n')
        t = ingest_csv(str(p))
        assert t.scheme.variables == (("a", ("x", "y")), ("b", ("u", "v")))
        assert t.cells.tolist() == [[4.0, 0.0], [0.0, 1.0]]

    def test_cell_budget_is_structured(self, tmp_path, capsys):
        # 12 columns of 100 distinct values: 100 rows, 1e24 cells
        p = tmp_path / "wide.csv"
        header = ",".join(f"c{j}" for j in range(12))
        rows = [",".join(f"v{i}" for _ in range(12)) for i in range(100)]
        p.write_text("\n".join([header, *rows]) + "\n")
        assert main(["ingest", str(p)]) == EXIT_ERROR
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "TableError"
        assert f"over the budget of {LATTICE_BUDGET}" in err["message"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_a_per_row_crosstab(self, tmp_path_factory, data):
        text, scheme = data.draw(_observation_csvs())
        p = tmp_path_factory.mktemp("ingest") / "obs.csv"
        p.write_bytes(text.encode())
        names, levels, cells = _per_row_crosstab(text, scheme)
        if min(map(len, levels)) < 2:
            with pytest.raises(TableError, match="single observed level"):
                ingest_csv(str(p), scheme=scheme)
            return
        t = ingest_csv(str(p), scheme=scheme)
        assert t.scheme.variables == tuple(zip(names, levels))
        assert t.cells.dtype == cells.dtype and np.array_equal(t.cells, cells)


# labels with commas need quoting; padding goes inside the quotes, since
# a quote after a space is an ordinary character
_LABELS = st.text(alphabet="xy,", min_size=1, max_size=3)
_PLAIN_LABELS = st.text(alphabet="xy", min_size=1, max_size=3)
_PADS = st.sampled_from(["", " ", "  "])
_EOLS = st.sampled_from(["\n", "\r", "\r\n"])


def _field(data, label: str, quoting: bool) -> str:
    """``label`` padded, and quoted when it holds a comma or a line break or,
    in a text that quotes, at random."""
    padded = data.draw(_PADS) + label + data.draw(_PADS)
    if any(c in label for c in ",\n") or (quoting and data.draw(st.booleans())):
        return '"' + padded + '"'
    return padded


def _with_blank_lines(draw, lines: list[str]) -> list[str]:
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return lines


@st.composite
def _observation_csvs(draw):
    """CSV text of padded fields and blank lines, quote-free or with some
    fields quoted (half the texts each), whose lines end in LF, CR or CRLF,
    plus None or a declared scheme that adds unfilled levels in a shuffled
    order."""
    data = draw(st.data())
    quoting = draw(st.booleans())
    ncols = draw(st.integers(1, 3))
    names = [f"c{j}" for j in range(ncols)]
    labels = _LABELS if quoting else _PLAIN_LABELS
    levels = [draw(st.lists(labels, min_size=1, max_size=3, unique=True)) for _ in names]
    nrows = draw(st.integers(1, 25))
    lines = [",".join(_field(data, n, quoting) for n in names)]
    for _ in range(nrows):
        row = [draw(st.sampled_from(lv)) for lv in levels]
        lines.append(",".join(_field(data, v, quoting) for v in row))
    lines = _with_blank_lines(draw, lines)
    scheme = None
    if draw(st.booleans()):
        declared = []
        for name, lv in zip(names, levels):
            extra = draw(st.lists(st.sampled_from(["z", "zz", "x,z"]), max_size=2, unique=True))
            declared.append((name, tuple(draw(st.permutations([*lv, *extra])))))
        if all(len(lv) >= 2 for _, lv in declared):
            scheme = CategoricalScheme(tuple(declared))
    eol = draw(_EOLS)
    return eol.join(lines) + eol, scheme


def _per_row_crosstab(text, scheme):
    """Names, levels and counts of ``text``, one observation row at a time."""
    rows = [r for r in csv.reader(text.splitlines()) if r]
    names = [h.strip() for h in rows[0]]
    records = [[v.strip() for v in r] for r in rows[1:]]
    if scheme is None:
        levels = [[] for _ in names]
        for rec in records:
            for lv, v in zip(levels, rec):
                if v not in lv:
                    lv.append(v)
    else:
        levels = [list(lv) for _, lv in scheme.variables]
    levels = [tuple(lv) for lv in levels]
    cells = np.zeros(tuple(map(len, levels)))
    for rec in records:
        cells[tuple(lv.index(v) for lv, v in zip(levels, rec))] += 1.0
    return tuple(names), levels, cells


class TestExitCodes:
    def test_scan_paradox_detects(self, berkeley_csv, capsys):
        code = main(
            ["scan-paradox", "--response", "A=Y", "--exposure", "X=M", berkeley_csv]
        )
        assert code == EXIT_DETECTED
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["reversal_detected"] is True

    def test_decompose_uniform_clean(self, tmp_path, capsys):
        from collapsekit.tables import build_table

        t = build_table(
            CategoricalScheme((("u", ("0", "1")), ("v", ("0", "1")))),
            [0.25] * 4,
            "probability",
        )
        p = tmp_path / "uniform.json"
        p.write_text(json.dumps(t.to_json_dict()))
        code = main(["decompose", str(p)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        taus = [
            abs(v)
            for entry in payload["verdict"]["subsets"]
            if entry["vars"]
            for v in entry["tau"]
        ]
        assert max(taus) <= 1e-12

    def test_collapse_check_ci_fixture(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        t = ci_constructed_table(rng)
        p = tmp_path / "ci.json"
        p.write_text(json.dumps(t.to_json_dict()))
        code = main(
            ["collapse-check", "--target", "x1,x2", "--margin", "x1,x2", str(p)]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"]["collapsible"] is True

    def test_collapse_check_reversal_table(self, berkeley_csv, capsys):
        code = main(
            [
                "collapse-check",
                "--target",
                "A,X",
                "--margin",
                "A,X",
                berkeley_csv,
            ]
        )
        assert code == EXIT_DETECTED
        assert json.loads(capsys.readouterr().out)["verdict"]["collapsible"] is False

    def test_strict_collapse_check(self, penalty_csv, capsys):
        code = main(
            [
                "collapse-check",
                "--strict",
                "--target",
                "A,D",
                "--smoothing",
                "0.5",
                penalty_csv,
            ]
        )
        assert code == EXIT_DETECTED
        v = json.loads(capsys.readouterr().out)["verdict"]
        assert v["strict"] is False and v["ci_holds"] is False

    @pytest.mark.parametrize(
        "flags, target, margin",
        [
            (["--target", "1", "--margin", "1,2"], ["1"], ["1", "2"]),
            (["--strict", "--target", "1", "--given", "3"], ["1"], ["1", "3"]),
        ],
        ids=["plain", "strict"],
    )
    def test_digit_variable_names(self, tmp_path, capsys, flags, target, margin):
        # a token that names a variable is that variable, not an axis index
        p = tmp_path / "digits.csv"
        p.write_text("1,2,3\na,x,p\nb,y,q\na,y,p\nb,x,q\na,x,q\nb,y,p\na,x,p\nb,y,q\n")
        assert main(["collapse-check", *flags, "--smoothing", "0.5", str(p)]) in (EXIT_OK, EXIT_DETECTED)
        v = json.loads(capsys.readouterr().out)["verdict"]
        assert (v["target"], v["margin"]) == (target, margin)

    def test_sum_edge_joint(self, tmp_path, capsys):
        # its cells sum to 1.0000000000009999, inside the bound; the marginal
        # over W sums them in another order and lands an ulp past it
        p = tmp_path / "edge.json"
        p.write_text(
            '{"levels": {"y": [0.0, 1.0], "x": [0.0, 1.0], "w": [0.0, 1.0]}, "p": [0.17396071214308678,'
            ' 0.09426682856477923, 0.13659043457485753, 0.16376881040194208, 0.08960186879125615,'
            ' 0.15528756527391907, 0.12779968010884016, 0.058724100142318957]}'
        )
        for rel in ("r1", "r2", "r3", "r4"):
            assert main(["assoc-check", "--relation", rel, str(p)]) in (EXIT_OK, EXIT_DETECTED)
            assert "reversal" in json.loads(capsys.readouterr().out)["verdict"]

    def test_input_error_is_structured(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"nope": 1}')
        code = main(["decompose", str(p)])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "TableError"

    @pytest.mark.parametrize("verb", ["decompose", "dep-check", "survival-check"])
    @pytest.mark.parametrize(
        "raw, kind",
        [(b'{"variables": [', "JSONDecodeError"), (b"\xff\xfe{}", "UnicodeDecodeError")],
    )
    def test_undecodable_input_is_structured(self, tmp_path, capsys, verb, raw, kind):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        assert main([verb, str(p)]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == kind

    @pytest.mark.parametrize(
        "argv",
        [["ingest", "bad.csv"], ["regress-audit", "bad.csv"], ["ingest", "good.csv", "--variables", "bad.json"]],
        ids=["observations", "records", "variables"],
    )
    def test_undecodable_csv_or_variables_keeps_its_kind(self, tmp_path, capsys, argv):
        """Text that is not UTF-8 is no CSV or variables payload either."""
        (tmp_path / "good.csv").write_text("A,B\na,a\nb,b\n")
        (tmp_path / "bad.csv").write_bytes(b"y,x,a\n1,0,\xff\n")
        (tmp_path / "bad.json").write_bytes(b'{"variables": "\xff"}')
        assert main([argv[0], *(str(tmp_path / a) if "." in a else a for a in argv[1:])]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "UnicodeDecodeError"

    @pytest.mark.parametrize(
        "levels, p",
        [
            # JSON allows the NaN literal; it used to pass every joint check
            ({"y": [0, 1], "x": [0, 1], "w": [0, 1]}, "[NaN" + ", 0.125" * 6 + ", 0.25]"),
            ({"y": ["lo", "hi"], "x": [0, 1], "w": [0, 1]}, "[" + ", ".join(["0.125"] * 8) + "]"),
        ],
    )
    def test_bad_joint_is_structured(self, tmp_path, capsys, levels, p):
        path = tmp_path / "joint.json"
        path.write_text(f'{{"levels": {json.dumps(levels)}, "p": {p}}}')
        assert main(["assoc-check", str(path)]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "DistributionError"

    @pytest.mark.parametrize(
        "name, text",
        [
            # JSON allows the NaN literal; it used to reach the report emitter
            (
                "summary.json",
                '{"levels": [{"pi": 0.5, "alpha": NaN, "beta": 0.5, "mu_x": 0.0,'
                ' "s_xx": 1.0, "s_yy": 1.0}, {"pi": 0.5, "alpha": 0.0, "beta": 0.5,'
                ' "mu_x": 1.0, "s_xx": 1.0, "s_yy": 1.0}]}',
            ),
            ("records.csv", "y,x,a\n1,0,u\nnan,1,u\n0,0,v\n1,1,v\n"),
            ("records.csv", "y,x,a\n1,0,u\ninf,1,u\n0,0,v\n1,1,v\n"),
            # the csv.reader path, and a number past the ASCII check
            ("records.csv", 'y,x,a\n1,0,"u"\n"nan",1,u\n0,0,v\n1,1,v\n'),
            ("records.csv", 'y,x,a\n1,0,"u"\n2,-Infinity,u\n0,0,v\n1,1,v\n'),
        ],
    )
    def test_non_finite_regression_input_is_structured(self, tmp_path, capsys, name, text):
        p = tmp_path / name
        p.write_text(text)
        assert main(["regress-audit", str(p)]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "DistributionError"

    @pytest.mark.parametrize(
        "alpha, mean_slope", [("[1.0,0.5,0.8]", "NaN"), ('["x",0.5,0.8]', "0.0"), ("[null,0.5,0.8]", "0.0")]
    )
    def test_bad_dep_parameter_is_structured(self, tmp_path, capsys, alpha, mean_slope):
        p = tmp_path / "gauss.json"
        p.write_text(
            f'{{"family":"gaussian-linear-interaction","alpha":{alpha},'
            f'"sigma":1.0,"w_law":{{"type":"normal","mean_slope":{mean_slope}}}}}'
        )
        assert main(["dep-check", str(p)]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ModelError"

    @pytest.mark.parametrize(
        "alpha, mean_slope",
        [
            # g*g overflows the marginal spread at 30 of the 36 grid points
            ("[1e300,1e300,1e300]", "0.5"),
            # dep is NaN at 60 of the 144 homogeneity probes, and an integrand
            # that is NaN beside finite values used to crash QUADPACK
            ("[1e308,0,1e308]", "0.0"),
        ],
    )
    def test_non_finite_dep_point_is_structured(self, tmp_path, capsys, alpha, mean_slope):
        p = tmp_path / "gauss.json"
        p.write_text(
            f'{{"family":"gaussian-linear-interaction","alpha":{alpha},'
            f'"sigma":1,"w_law":{{"type":"normal","mean_slope":{mean_slope}}}}}'
        )
        assert main(["dep-check", str(p)]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "ModelError"
        assert "(y=-2.0, x=-2.0)" in error["message"] and "not finite" in error["message"]

    def test_unconverged_quadrature_is_flagged(self, tmp_path, capsys):
        # with sigma this small dF/dx is a spike in w that some of the
        # default grid's integrals do not resolve
        p = tmp_path / "gauss.json"
        p.write_text(
            '{"family":"gaussian-linear-interaction","alpha":[-2.91,0.17,-2.64],'
            '"sigma":1.8e-11,"w_law":{"type":"normal","mean_slope":-0.62}}'
        )
        assert main(["dep-check", str(p)]) == EXIT_DETECTED
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["verdict"]["avg_collapsibility"]["quadrature_ok"] is False

    def test_converged_integral_that_misses_a_spike_is_flagged(self, tmp_path, capsys):
        # W independent of X makes every model of this family average
        # collapsible, but at sigma 0.05 QUADPACK reports the expected
        # integral at (y, x) = (0.5, 2) as converged near 0, where the closed
        # form is -0.0631; the two integrals then miss the marginal's x-derivative
        p = tmp_path / "gauss.json"
        p.write_text(
            '{"family":"gaussian-linear-interaction","alpha":[1.0,0.5,0.8],'
            '"sigma":0.05,"w_law":{"type":"normal","mean_slope":0.0}}'
        )
        assert main(["dep-check", str(p)]) == EXIT_DETECTED
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["x_w_independent"] is True
        assert verdict["avg_collapsibility"]["integral_residual"] == 0.0
        assert verdict["avg_collapsibility"]["quadrature_ok"] is False

    @pytest.mark.parametrize("verb", [["decompose"], ["collapse-check", "--target", "A,X", "--margin", "A,X"]])
    def test_smoothing_on_a_probability_table_is_an_error(self, tmp_path, capsys, admission_table, verb):
        # only a counts table is smoothed; a probability table would ignore the flag
        p = tmp_path / "probs.json"
        p.write_text(json.dumps(admission_table.normalize().to_json_dict()))
        assert main([*verb, "--smoothing", "0.5", str(p)]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "SchemeError", "message": "--smoothing is read only with a counts table"}

    def test_variables_with_a_json_table_is_an_error(self, capsys):
        # a JSON table declares its own variables, so the file would never be opened
        argv = ["scan-paradox", "--variables", "/nonexistent.json", "--response", "A=Y", "--exposure", "X=M"]
        assert main([*argv, str(CORPUS / "admission.json")]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "SchemeError", "message": "--variables is read only with a CSV input"}

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--strict", "--target", "A", "--margin", "A,X"], "--margin"),
            (["--strict", "--target", "A", "--given", "X", "--margin", "A,X"], "--margin"),
            (["--target", "A,X", "--margin", "A,X", "--given", "D"], "--given"),
            (["--target", "A,X", "--margin", "A,X", "--given", ""], "--given"),
        ],
        ids=["strict-margin", "strict-given-margin", "plain-given", "plain-empty-given"],
    )
    def test_collapse_check_flag_of_the_other_form_is_an_error(self, capsys, flags, named):
        # each form reads one subset flag and would silently ignore the other
        assert main(["collapse-check", *flags, str(CORPUS / "admission.json")]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "SchemeError" and error["message"].startswith(named)

    def test_lattice_over_budget_is_structured(self, tmp_path, capsys):
        # 16 binary variables: 2^16 cells load fine, but the subset means
        # would hold 3^16 floats; the budget check fires before the walk
        n = 16
        payload = {
            "variables": [{"name": f"v{j}", "levels": ["0", "1"]} for j in range(n)],
            "form": "counts",
            "cells": [1] * (1 << n),
        }
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(payload))
        assert main(["decompose", str(p)]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemeError"

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose"],
            ["collapse-check", "--target", "v0,v1", "--margin", "v0,v1,v2"],
            ["collapse-check", "--strict", "--target", "v0", "--given", "v1"],
            ["decompose", "--smoothing", "1e308"],
            ["collapse-check", "--smoothing", "1e308", "--target", "v0,v1", "--margin", "v0,v1,v2"],
            ["collapse-check", "--smoothing", "1e308", "--strict", "--target", "v0", "--given", "v1"],
        ],
    )
    def test_overflowing_total_is_structured(self, tmp_path, capsys, argv):
        # huge counts overflow the cell total; ordinary counts overflow the
        # smoothed total total + lambda * ncells
        smoothed = "--smoothing" in argv
        payload = {
            "variables": [{"name": f"v{j}", "levels": ["0", "1"]} for j in range(4)],
            "form": "counts",
            "cells": [3.0 if smoothed else 1e308] * 16,
        }
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(payload))
        assert main([*argv, str(p)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        error = json.loads(out)["error"]
        assert error["kind"] == "TableError"
        if smoothed:
            message = "smoothed total overflows: 16 cells with smoothing 1e+308 sum to inf"
        else:
            message = "cell total overflows: 16 finite counts sum to inf"
        assert error["message"] == message

    @pytest.mark.parametrize("quote", ["", '"'], ids=["bare", "quoted"])
    @pytest.mark.parametrize(
        "verb, text, what",
        [("ingest", "a,b\n{},y\nq,z\n", "CSV"), ("regress-audit", "y,x,a\n1,0,{}\n2,1,g\n", "records CSV")],
        ids=["ingest", "regress-audit"],
    )
    def test_field_over_the_size_limit_is_structured(self, tmp_path, capsys, verb, text, what, quote):
        limit = csv.field_size_limit()
        p = tmp_path / "wide.csv"
        p.write_text(text.format(quote + "x" * (limit + 1) + quote))
        assert main([verb, str(p)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {
            "kind": "TableError",
            "message": f"malformed {what}: field larger than field limit ({limit})",
        }

    @pytest.mark.parametrize(
        "text, line",
        [
            ("y,x,a\n1,0,g\n2,1,g,EXTRA\n", 3),
            ("y,x,a\n1,0,g\n\n2,1\n0,0,g\n", 4),
            # six fields in all, as two rows of three would have
            ("y,x,a\n1,0\n2,1,g,h\n", 2),
        ],
    )
    def test_ragged_records_row(self, tmp_path, capsys, text, line):
        p = tmp_path / "records.csv"
        p.write_text(text)
        assert main(["regress-audit", str(p)]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "TableError", "message": f"ragged row at line {line}"}

    @pytest.mark.parametrize(
        "verb, text, message",
        [
            ("ingest", "a,b\n\n\n", "CSV has a header but no observation rows"),
            ("regress-audit", "y,x,b\n1,0,g\n2,1,g\n", "records CSV must have header y,x,a"),
        ],
        ids=["header-and-blank-lines", "records-header"],
    )
    def test_csv_input_fault_is_structured(self, tmp_path, capsys, verb, text, message):
        p = tmp_path / "input.csv"
        p.write_text(text)
        assert main([verb, str(p)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {"kind": "TableError", "message": message}

    @pytest.mark.parametrize("verb", ["ingest", "regress-audit"])
    @pytest.mark.parametrize(
        "text, line",
        [('y,x,a\n1,0,"g\nh"\n2,1,g\n3,1\n', 5), ("y,x,a\n1,0,g\n2,1,g\n3,1\n", 4)],
        ids=["quoted", "unquoted"],
    )
    def test_both_csv_verbs_name_the_same_ragged_line(self, tmp_path, capsys, verb, text, line):
        """Observations and records go through one rescan, so on the same
        body both name the same physical line, after a quoted line break
        too."""
        p = tmp_path / "input.csv"
        p.write_text(text)
        assert main([verb, str(p)]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "TableError", "message": f"ragged row at line {line}"}

    def test_records_label_keeps_its_line_break(self, tmp_path, capsys):
        p = tmp_path / "records.csv"
        p.write_text('y,x,a\n1,0,"g\nh"\n2,1,"g\nh"\n0,0,k\n3,1,k\n1,1\n')
        assert main(["regress-audit", str(p)]) == EXIT_ERROR
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "TableError", "message": "ragged row at line 8"}
        p.write_text('y,x,a\n1,0,"g\nh"\n2,1,"g\nh"\n0,0,k\n3,1,k\n')
        assert main(["regress-audit", str(p)]) in (EXIT_OK, EXIT_DETECTED)
        levels = json.loads(capsys.readouterr().out)["verdict"]["summary"]["levels"]
        assert [lv["label"] for lv in levels] == ["g\nh", "k"]

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_records_label_keeps_a_splitlines_separator(self, tmp_path, capsys, sep):
        p = tmp_path / "records.csv"
        p.write_bytes(f"y,x,a\n1,0,g{sep}h\n2,1,g{sep}h\n0,0,k\n3,1,k\n".encode())
        assert main(["regress-audit", str(p)]) in (EXIT_OK, EXIT_DETECTED)
        levels = json.loads(capsys.readouterr().out)["verdict"]["summary"]["levels"]
        assert [lv["label"] for lv in levels] == [f"g{sep}h", "k"]

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_scan_of_overflowing_sums_is_quiet(self, tmp_path, capsys):
        payload = {
            "variables": [{"name": f"v{j}", "levels": ["0", "1"]} for j in range(4)],
            "form": "counts",
            "cells": [1e308] * 16,
        }
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(payload))
        argv = ["scan-paradox", "--response", "v0=1", "--exposure", "v1=1", str(p)]
        # both candidates overflow, so the scan decides nothing
        assert main(argv) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {"kind": "TableError", "message": "cell sums overflow a float"}

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_underflowing_cell_is_structured(self, tmp_path, capsys):
        # a smoothed zero cell, 1e-300 / 1e300, rounds to 0.0
        payload = {
            "variables": [{"name": f"v{j}", "levels": ["0", "1"]} for j in range(3)],
            "form": "counts",
            "cells": [0.0] * 7 + [1e300],
        }
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(payload))
        assert main(["decompose", "--smoothing", "1e-300", str(p)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {
            "kind": "TableError",
            "message": "a cell probability underflows to 0 over the total 1e+300 with smoothing 1e-300",
        }

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "argv, name, text, kind, message",
        [
            # Cov(X, Y) is inf - inf; it used to read as "does not hold"
            (
                ["assoc-check", "--relation", "r4"], "joint.json",
                '{"levels": {"y": [0, 1e308], "x": [0, 1e308], "w": [0, 1]},'
                ' "p": [0.2, 0.2, 0.05, 0.05, 0.05, 0.05, 0.2, 0.2]}',
                "DistributionError", "Cov(X, Y) overflows on these support points",
            ),
            # E(Y | x) runs from -1.36e308 to 1.36e308, a step past the largest float
            (
                ["assoc-check", "--relation", "r2"], "joint.json",
                '{"levels": {"y": [-1.7e308, 1.7e308], "x": [0, 1], "w": [0, 1]},'
                ' "p": [0.225, 0.225, 0.025, 0.025, 0.025, 0.025, 0.225, 0.225]}',
                "DistributionError", "E(Y | X) steps overflow on these support points",
            ),
            (
                ["regress-audit"], "records.csv", "y,x,a\n1e308,1e308,u\n-1e308,-1e308,u\n1,2,v\n3,5,v\n",
                "DistributionError", "stratum moments must be finite",
            ),
            # finite moments whose Var(mu_x) overflows; it used to be a RouteDisagreementError
            (
                ["regress-audit"], "summary.json",
                '{"levels": [{"pi": 0.5, "alpha": 0, "beta": 1, "mu_x": 1e200, "s_xx": 1, "s_yy": 2},'
                ' {"pi": 0.5, "alpha": 0, "beta": 1, "mu_x": -1e200, "s_xx": 1, "s_yy": 2}]}',
                "DistributionError", "the summary's moments overflow in the marginal line or the identity",
            ),
            # e^z overflows in the gumbel ln S(z) = -e^z
            (
                ["survival-check", "--numeric"], "survival.json",
                '{"beta_x": 1, "beta_y": -1000, "eta": {"mu": 0, "rho": 0.01}, "w_law": "gumbel"}',
                "ModelError", "P(T > 0.25 | x=-1.0, y=-2.0) vanished; grid point unusable",
            ),
            # sigma^2 underflows, so sd(Y | x) = |a2 + a3 x| = 0 at x = -2
            (
                ["dep-check"], "gauss.json",
                '{"family": "gaussian-linear-interaction", "alpha": [1, 2, 1], "sigma": 1e-200}',
                "ModelError", "(Y | x=-2.0) has zero spread: sigma 1e-200 is too small",
            ),
            # pi s_xx underflows to 0 and the stratum means are equal, so Var(X) = 0
            (
                ["regress-audit"], "summary.json",
                '{"levels": [{"pi": 0.5, "alpha": 0, "beta": 1, "mu_x": 0, "s_xx": 5e-324, "s_yy": 1},'
                ' {"pi": 0.5, "alpha": 0, "beta": 1, "mu_x": 0, "s_xx": 5e-324, "s_yy": 1}]}',
                "DistributionError", "marginal variance of X is not positive",
            ),
        ],
        ids=["assoc-r4", "assoc-r2", "records", "summary", "survival-numeric", "dep-check", "summary-var-x"],
    )
    def test_overflow_is_structured(self, tmp_path, capsys, argv, name, text, kind, message):
        p = tmp_path / name
        p.write_text(text)
        assert main([*argv, str(p)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {"kind": kind, "message": message}

    @pytest.mark.filterwarnings("error")  # an IntegrationWarning fails the test
    def test_unconverged_marginal_is_structured(self, tmp_path, capsys):
        # by = -1000 makes S(0.5 | x=0, y) a step in y that the quadrature
        # cannot resolve; the ratio read 1.00043 where the closed form gives
        # 0.99980, and the verdict reported directions from it
        p = tmp_path / "survival.json"
        p.write_text('{"beta_x": 1.0, "beta_y": -1000.0, "eta": {"mu": 0, "rho": 0.8}}')
        assert main(["survival-check", "--numeric", str(p)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == {
            "kind": "ModelError",
            "message": "the quadrature of P(T > 0.5 | x=0.0) did not converge",
        }

    def test_missing_file(self, capsys):
        assert main(["decompose", "/nonexistent/nope.json"]) == EXIT_ERROR

    def test_unknown_flag_rejected(self, berkeley_csv, capsys):
        code = main(["decompose", "--frobnicate", berkeley_csv])
        assert code == EXIT_ERROR

    def test_survival_check(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(
            '{"beta_x":1.0,"beta_y":-2.0,"eta":{"mu":0.0,"rho":0.8},'
            '"w_law":"std-normal","v_law":"std-normal"}'
        )
        assert main(["survival-check", str(p)]) == EXIT_DETECTED
        p.write_text(
            '{"beta_x":1.0,"beta_y":-2.0,"eta":{"mu":0.0,"rho":0.4},'
            '"w_law":"std-normal","v_law":"std-normal"}'
        )
        capsys.readouterr()
        assert main(["survival-check", "--numeric", str(p)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["reversal_on_grid"] is False

    def test_survival_check_on_a_k_spec(self, tmp_path, capsys):
        p = tmp_path / "k.json"
        p.write_text(json.dumps(dict(SPEC, k_transform={"t": [0.0, 1.0], "k": [0.0, 2.0]})))
        assert main(["survival-check", str(p)]) == EXIT_DETECTED
        assert json.loads(capsys.readouterr().out)["verdict"]["condition"] is True

    @pytest.mark.parametrize("key", ["t", "k"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_knot_is_structured(self, tmp_path, capsys, key, bad):
        # json writes and reads these as NaN, Infinity and -Infinity; a NaN
        # passes every order check
        p = tmp_path / "survival.json"
        p.write_text(json.dumps(dict(SPEC, k_transform={"t": [0, 1, 2], "k": [0, 1, 2], key: [0, 1, bad]})))
        for argv in (["survival-check"], ["survival-check", "--numeric"]):
            assert main([*argv, str(p)]) == EXIT_ERROR
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out)["error"] == {"kind": "ModelError", "message": "k_transform knots must be finite"}

    def test_dep_check(self, tmp_path, capsys):
        p = tmp_path / "model.json"
        p.write_text(
            '{"family":"gaussian-linear-interaction","alpha":[1.0,0.5,0.8],'
            '"sigma":1.0,"w_law":{"type":"normal","mean_slope":0.0}}'
        )
        assert main(["dep-check", str(p)]) == EXIT_OK
        p2 = tmp_path / "model2.json"
        p2.write_text(
            '{"family":"gaussian-linear-interaction","alpha":[1.0,0.7,0.4],'
            '"sigma":0.8,"w_law":{"type":"normal","mean_slope":0.6}}'
        )
        assert main(["dep-check", str(p2)]) == EXIT_DETECTED

    def test_assoc_check(self, tmp_path, capsys):
        from test_assoc import covariance_flip_witness, joint_payload

        p = tmp_path / "joint.json"
        p.write_text(joint_payload(covariance_flip_witness()))
        assert main(["assoc-check", "--relation", "r4", str(p)]) == EXIT_DETECTED
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["linkage"]["w_indep_x_given_y"] is True

    def test_regress_audit_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = ["y,x,a"]
        for _ in range(40):
            a = rng.choice(["u", "v"])
            x = rng.normal()
            y = (1.0 if a == "u" else 2.0) * x + rng.normal()
            rows.append(f"{y},{x},{a}")
        p = tmp_path / "records.csv"
        p.write_text("\n".join(rows) + "\n")
        code = main(["regress-audit", str(p)])
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"]["mode"] == "average"
        assert code in (EXIT_OK, EXIT_DETECTED)


    def test_regress_routes_on_one_scale(self, tmp_path, capsys):
        # Cov(alpha, mu_x) = 1e-8 exceeds tol, the slope gap 1e-8 / 100.25 does not
        levels = [
            {"pi": 0.5, "alpha": a, "beta": 0.5, "mu_x": m, "s_xx": 100, "s_yy": 30}
            for a, m in ((2e-8, 0.5), (-2e-8, -0.5))
        ]
        p = tmp_path / "summary.json"
        p.write_text(json.dumps({"levels": levels}))
        code = main(["regress-audit", str(p)])
        assert code == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["collapsible"] is True
        assert verdict["identity_gap"] == pytest.approx(1e-8)


CORPUS = ROOT / "perfbench" / "corpus"
TOL_VERBS = {
    "decompose": ["decompose", "--smoothing", "0.5", str(CORPUS / "death_penalty.json")],
    "collapse-check": ["collapse-check", "--target", "A,X", "--margin", "A,X", str(CORPUS / "admission.json")],
    "collapse-check --strict": [
        "collapse-check", "--strict", "--target", "A,D", "--smoothing", "0.5", str(CORPUS / "death_penalty.json"),
    ],
    "assoc-check": ["assoc-check", str(CORPUS / "joint.json")],
    "regress-audit": ["regress-audit", str(CORPUS / "records.csv")],
    "dep-check": ["dep-check", str(CORPUS / "gauss.json")],
}


TABLE = {
    "variables": [{"name": "A", "levels": ["a", "b"]}, {"name": "B", "levels": ["a", "b"]}],
    "form": "counts",
    "cells": [1, 2, 3, 4],
}
JOINT = {"levels": {"y": [0, 1], "x": [0, 1], "w": [0, 1]}, "p": [0.125] * 8}
MODEL = {
    "family": "gaussian-linear-interaction",
    "alpha": [1.0, 0.5, 0.8],
    "sigma": 1.0,
    "w_law": {"type": "normal", "mean_slope": 0.0},
}
SPEC = {"beta_x": 1.0, "beta_y": -2.0, "eta": {"mu": 0.0, "rho": 0.8}}
STRATUM = {"pi": 0.5, "alpha": 0.0, "beta": 0.5, "mu_x": 0.0, "s_xx": 1.0, "s_yy": 1.0}
SUMMARY = {"levels": [STRATUM, dict(STRATUM, mu_x=1.0)]}
# a JSON integer past Python's 4,300-digit limit for int(str)
HUGE = "1" * 5000
# a JSON array nested far past the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


class TestScanParadox:
    ARGV = ["scan-paradox", "--response", "A=Y", "--exposure", "X=M"]

    @staticmethod
    def table(tmp_path, admission_table, cells, *extra):
        """A counts table file on the admission variables and ``extra`` ones."""
        payload = admission_table.to_json_dict()
        payload["variables"] += [{"name": name, "levels": ["u", "v"]} for name in extra]
        payload["cells"] = cells
        p = tmp_path / "table.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_covariate_restricts_the_scan(self, tmp_path, capsys, admission_table):
        # E is uniform and independent of the rest: D reverses the A-X
        # association, E does not, so the two candidates exit differently
        cells = [c for c in admission_table.cells.reshape(-1).tolist() for _ in "uv"]
        argv = [*self.ARGV, self.table(tmp_path, admission_table, cells, "E")]
        assert main(argv) == EXIT_DETECTED
        scan = json.loads(capsys.readouterr().out)["verdict"]["candidates"]
        assert [c["covariate"] for c in scan] == ["D", "E"]
        for candidate, code in zip(scan, [EXIT_DETECTED, EXIT_OK]):
            assert main([*argv, "--covariate", candidate["covariate"]]) == code
            assert json.loads(capsys.readouterr().out)["verdict"]["candidates"] == [candidate]

    def test_zero_mass_exposure(self, tmp_path, capsys, admission_table):
        # no observation has X=M, so the scan's one candidate errors and the
        # scan decides nothing, as with --covariate D
        path = self.table(tmp_path, admission_table, [0, 0, 2, 4, 0, 0, 6, 1])
        for argv in ([*self.ARGV, path], [*self.ARGV, "--covariate", "D", path]):
            assert main(argv) == EXIT_ERROR
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out)["error"] == {
                "kind": "TableError",
                "message": "exposure event or its complement has zero mass",
            }

    def test_zero_mass_cornfield_event(self, tmp_path, capsys, admission_table):
        # no observation has D=H: the scan decides on E (uniform and
        # independent of the rest) and reports D's error, while the
        # Cornfield diagnostics for D=H have no conditioning mass
        cells = [c * (d == "G") for c, d in zip(admission_table.cells.reshape(-1).tolist(), "HG" * 4)]
        path = self.table(tmp_path, admission_table, [c for c in cells for _ in "uv"], "E")
        assert main([*self.ARGV, path]) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)["verdict"]["candidates"]
        assert [(c["covariate"], c["error"]) for c in scan] == [
            ("D", "conditioning event has zero mass"),
            ("E", None),
        ]
        assert main([*self.ARGV, "--cornfield", "D=H", path]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == {
            "kind": "TableError",
            "message": "conditioning event has zero mass",
        }


class TestMalformedPayload:
    @staticmethod
    def run(tmp_path, capsys, verb, payload, *options):
        """Exit code and error object of ``verb`` with ``options`` on
        ``payload`` (or on JSON text as it is); stderr stays empty."""
        p = tmp_path / "input.json"
        p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [verb, *options, str(p)]
        if verb == "ingest":  # the payload is the --variables file
            obs = tmp_path / "obs.csv"
            obs.write_text("A,B\nW,a\nB,b\n")
            argv = [verb, str(obs), "--variables", str(p)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        return code, json.loads(out).get("error")

    @pytest.mark.parametrize(
        "verb, payload, kind, key",
        [
            ("decompose", dict(TABLE, cells="1234"), "TableError", "cells"),
            (
                "decompose",
                dict(TABLE, variables=[{"name": "A", "levels": "ab"}, TABLE["variables"][1]]),
                "TableError",
                "levels",
            ),
            (
                "ingest",
                {"variables": [{"name": "A", "levels": "WB"}, {"name": "B", "levels": ["a", "b"]}]},
                "TableError",
                "levels",
            ),
            ("assoc-check", dict(JOINT, levels=dict(JOINT["levels"], y="01")), "DistributionError", "y"),
            ("dep-check", dict(MODEL, alpha="123"), "ModelError", "alpha"),
            ("survival-check", dict(SPEC, k_transform={"t": "012", "k": "013"}), "ModelError", "t"),
        ],
        ids=["table-cells", "table-levels", "variables-levels", "joint-levels", "model-alpha", "survival-k"],
    )
    def test_string_where_an_array_belongs(self, tmp_path, capsys, verb, payload, kind, key):
        # a string used to be read one character at a time
        code, error = self.run(tmp_path, capsys, verb, payload)
        assert code == EXIT_ERROR
        assert error["kind"] == kind
        assert error["message"].endswith(f"{key} must be an array, not str")

    @pytest.mark.parametrize(
        "verb, payload, kind",
        [
            ("decompose", dict(TABLE, cells=[{}, 1, 2, 3]), "TableError"),
            ("decompose", dict(TABLE, cells="abcd"), "TableError"),
            ("decompose", dict(TABLE, cells=5), "TableError"),
            ("decompose", dict(TABLE, cells=[[1, 2], [3]]), "TableError"),
            ("decompose", dict(TABLE, cells=[10**400, 1, 2, 3]), "TableError"),  # float() overflows
            ("survival-check", [1, 2], "ModelError"),
            ("survival-check", dict(SPEC, eta=[1, 2]), "ModelError"),
            ("dep-check", dict(MODEL, w_law="normal"), "ModelError"),
        ],
    )
    def test_reader_error_is_structured(self, tmp_path, capsys, verb, payload, kind):
        code, error = self.run(tmp_path, capsys, verb, payload)
        assert code == EXIT_ERROR
        assert error["kind"] == kind
        assert error["message"].startswith("malformed ")

    @pytest.mark.parametrize(
        "verb, text, kind, what",
        [
            ("decompose", json.dumps(dict(TABLE, cells=[-7, 2, 3, 4])), "TableError", "table payload"),
            ("ingest", json.dumps(dict(TABLE, cells=[-7])), "TableError", "variables payload"),
            ("assoc-check", json.dumps(dict(JOINT, p=[-7] + [0.125] * 7)), "DistributionError", "joint payload"),
            ("regress-audit", json.dumps(dict(SUMMARY, n=-7)), "DistributionError", "summary payload"),
            ("dep-check", json.dumps(dict(MODEL, sigma=-7)), "ModelError", "model payload"),
            ("survival-check", json.dumps(dict(SPEC, beta_x=-7)), "ModelError", "survival spec payload"),
        ],
        ids=["table", "variables", "joint", "summary", "model", "survival"],
    )
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, verb, text, kind, what):
        # json.loads raises a plain ValueError, not a JSONDecodeError
        code, error = self.run(tmp_path, capsys, verb, text.replace("-7", HUGE))
        assert code == EXIT_ERROR
        assert error["kind"] == kind
        assert error["message"].startswith(f"malformed {what}: ")

    @pytest.mark.parametrize(
        "verb, payload, kind, message",
        [
            ("decompose", dict(TABLE, cells=["1", "2", "3", "4"]), "TableError", "cells must hold numbers, not str"),
            ("decompose", dict(TABLE, cells=[1, 2, True, 4]), "TableError", "cells must hold numbers, not bool"),
            ("decompose", dict(TABLE, cells=[[1, "2"], [3, None]]), "TableError", "cells must hold numbers, not NoneType, str"),
            ("assoc-check", dict(JOINT, p=["0.125"] * 8), "DistributionError", "p must hold numbers, not str"),
            (
                "assoc-check",
                dict(JOINT, levels=dict(JOINT["levels"], w=["0", "1"])),
                "DistributionError",
                "w must hold numbers, not str",
            ),
            (
                "regress-audit",
                {"levels": [dict(STRATUM, s_xx="1.0"), dict(STRATUM, mu_x=1.0)]},
                "DistributionError",
                "s_xx must be a number, not str",
            ),
            ("dep-check", dict(MODEL, alpha=["1.0", 0.5, 0.8]), "ModelError", "alpha must hold numbers, not str"),
            ("dep-check", dict(MODEL, sigma="1"), "ModelError", "sigma must be a number, not str"),
            (
                "dep-check",
                dict(MODEL, w_law={"type": "normal", "mean_slope": False}),
                "ModelError",
                "mean_slope must be a number, not bool",
            ),
            ("survival-check", dict(SPEC, beta_x="1"), "ModelError", "beta_x must be a number, not str"),
            ("survival-check", dict(SPEC, eta={"mu": "0", "rho": 0.8}), "ModelError", "mu must be a number, not str"),
            (
                "survival-check",
                dict(SPEC, k_transform={"t": [0, 1], "k": ["0", "1"]}),
                "ModelError",
                "k must hold numbers, not str",
            ),
        ],
    )
    def test_string_where_a_number_belongs(self, tmp_path, capsys, verb, payload, kind, message):
        # float() and numpy's float cast used to read "1" as the number 1
        code, error = self.run(tmp_path, capsys, verb, payload)
        assert code == EXIT_ERROR
        assert error["kind"] == kind
        assert error["message"].endswith(message)

    @pytest.mark.parametrize(
        "verb, payload, options, kind, message",
        [
            (
                "ingest",
                {"variables": [{"name": "B", "levels": ["a", "b"]}, {"name": "A", "levels": ["W", "B"]}]},
                [],
                "TableError",
                "CSV header ('A', 'B') does not match the declared variables ('B', 'A')",
            ),
            ("scan-paradox", TABLE, ["--response", "A", "--exposure", "B=a"], "SchemeError", "expected VAR=LEVEL, got 'A'"),
            ("collapse-check", TABLE, ["--target", ",", "--margin", "A"], "SchemeError", "empty variable subset ','"),
            ("collapse-check", TABLE, ["--target", "7", "--margin", "A"], "SchemeError", "axis 7 out of range for 2 variables"),
            # a superscript digit is no decimal digit: int() cannot read it as an axis
            ("collapse-check", TABLE, ["--target", "²", "--margin", "A"], "SchemeError", "unknown variable '²'; have ('A', 'B')"),
            ("collapse-check", TABLE, ["--target", "A"], "SchemeError", "--margin is required without --strict"),
            ("collapse-check", TABLE, ["--strict", "--target", "A,B"], "SchemeError", "target and collapsed must be nonempty"),
            ("regress-audit", {"levels": []}, [], "DistributionError", "summary needs at least one stratum"),
            ("survival-check", dict(SPEC, beta_x=math.nan), [], "ModelError", "coefficients must be finite"),
            (
                "survival-check",
                dict(SPEC, k_transform={"t": [0, 1, 2], "k": [0, 1]}),
                [],
                "ModelError",
                "k_transform needs two aligned sequences, length >= 2",
            ),
            ("decompose", dict(TABLE, variables=[]), [], "SchemeError", "scheme needs at least one variable"),
            ("decompose", dict(TABLE, cells=[1, math.nan, 3, 4]), [], "TableError", "cells must be finite"),
            ("dep-check", dict(MODEL, w_law={"type": "t"}), [], "ModelError", "unsupported w_law {'type': 't'}"),
        ],
        ids=[
            "header-order", "event", "empty-subset", "axis-range", "superscript-digit", "no-margin", "strict-all",
            "no-stratum", "nan-coefficient", "ragged-knots", "no-variable", "nan-cell", "w-law-type",
        ],
    )
    def test_input_fault_is_structured(self, tmp_path, capsys, verb, payload, options, kind, message):
        # json.dumps writes math.nan as the JSON literal NaN
        code, error = self.run(tmp_path, capsys, verb, payload, *options)
        assert (code, error) == (EXIT_ERROR, {"kind": kind, "message": message})

    def test_nested_cells_are_read(self, tmp_path, capsys):
        flat = self.run(tmp_path, capsys, "decompose", TABLE)
        nested = self.run(tmp_path, capsys, "decompose", dict(TABLE, cells=[[1, 2], [3, 4]]))
        assert flat == nested == (EXIT_OK, None)

    @pytest.mark.parametrize(
        "verb, options, kind, what",
        [
            ("decompose", [], "TableError", "table payload"),
            ("scan-paradox", ["--response", "A=a", "--exposure", "B=a"], "TableError", "table payload"),
            ("ingest", [], "TableError", "variables payload"),
            ("assoc-check", [], "DistributionError", "joint payload"),
            ("regress-audit", [], "DistributionError", "summary payload"),
            ("dep-check", [], "ModelError", "model payload"),
            ("survival-check", [], "ModelError", "survival spec payload"),
        ],
        ids=["table", "scan-table", "variables", "joint", "summary", "model", "survival"],
    )
    def test_nesting_past_the_decoder_limit(self, tmp_path, capsys, verb, options, kind, what):
        # json.loads raises RecursionError, which used to end the call in a traceback
        code, error = self.run(tmp_path, capsys, verb, DEEP, *options)
        assert code == EXIT_ERROR
        assert error["kind"] == kind
        assert error["message"].startswith(f"malformed {what}: ")

    def test_deep_extra_key_in_a_valid_table(self, tmp_path, capsys):
        text = json.dumps(TABLE)[:-1] + ', "extra": ' + DEEP + "}"
        code, error = self.run(tmp_path, capsys, "decompose", text)
        assert code == EXIT_ERROR
        assert error["kind"] == "TableError"
        assert error["message"].startswith("malformed table payload: ")

    @pytest.mark.parametrize("depth", [33, 40])
    @pytest.mark.parametrize(
        "verb, payload, key, kind",
        [
            ("decompose", dict(TABLE, cells="nested"), "cells", "TableError"),
            ("assoc-check", dict(JOINT, p="nested"), "p", "DistributionError"),
            ("dep-check", dict(MODEL, alpha="nested"), "alpha", "ModelError"),
            ("survival-check", dict(SPEC, k_transform={"t": [0, 1], "k": "nested"}), "k", "ModelError"),
        ],
        ids=["table-cells", "joint-p", "model-alpha", "survival-k"],
    )
    def test_numbers_nested_past_numpy_dimensions(self, tmp_path, capsys, verb, payload, key, kind, depth):
        # numpy iterates at most 32 dimensions; a deeper array used to raise RuntimeError
        text = json.dumps(payload).replace('"nested"', "[" * depth + "1" + "]" * depth)
        code, error = self.run(tmp_path, capsys, verb, text)
        assert code == EXIT_ERROR
        assert error["kind"] == kind
        assert error["message"].endswith(f"{key} nests arrays more than 32 deep")


class TestPipedInput:
    @pytest.mark.parametrize("verb", ["decompose", "ingest"])
    def test_digest_is_of_the_bytes_read(self, admission_table, verb):
        raw = (json.dumps(admission_table.to_json_dict()) if verb == "decompose" else "\n".join(EX1_ROWS)).encode()
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "collapsekit.cli", verb, "/dev/stdin"],
            input=raw,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stdout
        assert proc.stderr == b""
        assert json.loads(proc.stdout)["input_sha256"] == hashlib.sha256(raw).hexdigest()


class TestToleranceOption:
    @pytest.mark.parametrize("verb", TOL_VERBS)
    def test_only_a_finite_positive_tol_is_accepted(self, capsys, verb):
        # a bad value is a usage error (exit 1, message on stderr), never a
        # traceback from the report emitter, a RouteDisagreementError or a
        # meaningless verdict
        for tol in ("nan", "inf", "-inf", "-1", "0", "-0.0", "x"):
            assert main([*TOL_VERBS[verb], f"--tol={tol}"]) == EXIT_ERROR, tol
            out, err = capsys.readouterr()
            assert out == "" and "argument --tol" in err, tol
        assert main([*TOL_VERBS[verb], "--tol=1e-7"]) in (EXIT_OK, EXIT_DETECTED)
        assert json.loads(capsys.readouterr().out)["verb"] == verb.split()[0]


# the golden collapse-check and regress-audit calls, as JSON reports
ROUTE_CASES = {
    name: [arg for arg in argv if arg not in ("--format", "md")]
    for name, argv in GOLDEN.items()
    if argv[0] in ("collapse-check", "regress-audit")
}


def _route_values(verdict) -> list[float]:
    """Both route values of a collapse-check or regress-audit verdict on the
    tol scale (the zero set too for strict): the identity gap over Var(X)
    is recomputed from the reported summary, whose floats round-trip."""
    if "beta_gap" in verdict:
        summary = StratifiedRegressionSummary.from_json(json.dumps(verdict["summary"]))
        return [verdict["identity_gap"] / _marginal_line(summary.arrays())[2], verdict["beta_gap"]]
    keys = ("max_residual", "direct_gap", "zero_set_max")
    return [verdict[k] for k in keys if verdict.get(k) is not None]


class TestRouteBoundaries:
    """One route decides each verdict at --tol; a --tol between two route
    values that differ only by rounding is a verdict, never exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            TOL_VERBS["collapse-check --strict"] + ["--tol", "1"],
            ["collapse-check", "--target", "A,D", "--margin", "A,D", "--smoothing", "0.5",
             "--tol", "0.1193035409997599", str(CORPUS / "death_penalty.json")],
            ["regress-audit", "--tol", "0.4419495788498569", str(CORPUS / "records.csv")],
        ],
        ids=["strict-tol-1", "plain-between-routes", "regress-between-routes"],
    )
    def test_tol_at_the_boundary_is_a_verdict(self, capsys, argv):
        assert main(argv) in (EXIT_OK, EXIT_DETECTED)
        out, err = capsys.readouterr()
        assert err == "" and "verdict" in json.loads(out)

    def test_strict_is_decided_by_the_tau_route(self, capsys):
        # the set gap (0.44) and zero set (0.79) are under tol 1; CI is
        # reported on its own probability scale (deviation 0.14 over 1e-9)
        # and decides nothing
        assert main(TOL_VERBS["collapse-check --strict"] + ["--tol", "1"]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["strict"] is True and verdict["interaction_zero_ok"] is True
        assert verdict["ci_holds"] is False

    @pytest.mark.parametrize("case", sorted(ROUTE_CASES))
    def test_tol_sweep_over_the_route_values(self, case, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)  # golden paths are relative to the repo root
        argv = ROUTE_CASES[case]
        main(argv)
        values = _route_values(json.loads(capsys.readouterr().out)["verdict"])
        tols = {t for x in values for t in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))}
        for tol in sorted(t for t in tols if t > 0.0):
            code = main([*argv, f"--tol={tol!r}"])
            out, err = capsys.readouterr()
            assert code in (EXIT_OK, EXIT_DETECTED) and err == "", (tol, out)


def _slopes_summary(betas, shift=0.0):
    """Equal-weight strata with the given slopes and mu_x = shift + 0, 1, …"""
    return {
        "levels": [
            {"pi": 1 / len(betas), "alpha": 0, "beta": b, "mu_x": shift + i, "s_xx": 1, "s_yy": b * b + 2}
            for i, b in enumerate(betas)
        ]
    }


class TestNearParallelSlopes:
    """Slopes that differ at all make an average audit: the parallel check's
    identity route assumes one slope, so no spread is admitted to it."""

    @pytest.mark.parametrize(
        "shift, code, beta_gap", [(0.0, EXIT_OK, 1e-13), (1e6, EXIT_DETECTED, 2e-7)], ids=["near-0", "near-1e6"]
    )
    def test_slopes_1e_12_apart(self, tmp_path, capsys, shift, code, beta_gap):
        # the shift multiplies the slopes' difference in the marginal slope
        p = tmp_path / "summary.json"
        p.write_text(json.dumps(_slopes_summary((0, 1e-12), shift)))
        assert main(["regress-audit", str(p)]) == code
        out, err = capsys.readouterr()
        assert err == ""
        verdict = json.loads(out)["verdict"]
        assert verdict["mode"] == "average"
        assert verdict["beta_gap"] == pytest.approx(beta_gap, rel=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(
        beta0=st.floats(-2, 2),
        delta=st.floats(1e-15, 1e-9),
        ks=st.lists(st.integers(0, 3), min_size=2, max_size=4),
        shift=st.floats(-1e6, 1e6),
    )
    def test_never_a_route_disagreement(self, tmp_path_factory, beta0, delta, ks, shift):
        p = tmp_path_factory.mktemp("summary") / "summary.json"
        p.write_text(json.dumps(_slopes_summary([beta0 + k * delta for k in ks], shift)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["regress-audit", str(p)])
        assert code in (EXIT_OK, EXIT_DETECTED), out.getvalue()
        assert err.getvalue() == ""


class TestSignedZeroSlope:
    def test_stratum_order_does_not_sign_the_common_slope(self, tmp_path, capsys):
        verdicts = []
        for betas in ((0.0, -0.0), (-0.0, 0.0)):
            p = tmp_path / "summary.json"
            p.write_text(json.dumps(_slopes_summary(betas)))
            assert main(["regress-audit", str(p)]) == EXIT_OK
            out, err = capsys.readouterr()
            assert err == ""
            # numbers kept as their text, so that -0 and 0 stay apart
            report = json.loads(out, parse_int=str, parse_float=str)
            del report["input_sha256"]  # the inputs differ, so their hashes do
            levels = report["verdict"].pop("summary")["levels"]
            assert [level["beta"] for level in levels] == [format(b, ".17g") for b in betas]
            verdicts.append(report)
        assert verdicts[0] == verdicts[1]
        assert verdicts[0]["verdict"]["beta_reference"] == "0"


_HELP = (("-h", "--help"), "_HelpAction", argparse.SUPPRESS, None, False, None, None)
_INPUT = ((), "_StoreAction", None, None, True, None, None)
_FORMAT = (("--format",), "_StoreAction", "json", ("json", "md"), False, None, None)
_VARIABLES = (("--variables",), "_StoreAction", None, None, False, None, None)
_SMOOTHING = (("--smoothing",), "_StoreAction", None, None, False, None, "float")
_EVENT = "VAR=LEVEL"


def _tol(default):
    return (("--tol",), "_StoreAction", default, None, False, None, "_tolerance")


# every verb's arguments in --help order: option strings, action, default,
# choices, required, metavar and type
PARSER_SPEC = {
    "ingest": [_HELP, _INPUT, _FORMAT, _VARIABLES],
    "scan-paradox": [
        _HELP, _INPUT, _FORMAT, _VARIABLES,
        (("--response",), "_StoreAction", None, None, True, _EVENT, None),
        (("--exposure",), "_StoreAction", None, None, True, _EVENT, None),
        (("--covariate",), "_StoreAction", None, None, False, None, None),
        (("--cornfield",), "_StoreAction", None, None, False, _EVENT, None),
    ],
    "decompose": [_HELP, _INPUT, _FORMAT, _tol(1e-8), _SMOOTHING],
    "collapse-check": [
        _HELP, _INPUT, _FORMAT, _tol(1e-8),
        (("--target",), "_StoreAction", None, None, True, None, None),
        (("--margin",), "_StoreAction", None, None, False, None, None),
        (("--strict",), "_StoreTrueAction", False, None, False, None, None),
        (("--given",), "_StoreAction", None, None, False, None, None),
        _SMOOTHING,
    ],
    "assoc-check": [
        _HELP, _INPUT, _FORMAT, _tol(1e-9),
        (("--relation",), "_StoreAction", "r4", ("r1", "r2", "r3", "r4"), False, None, None),
    ],
    "regress-audit": [_HELP, _INPUT, _FORMAT, _tol(1e-9)],
    "dep-check": [_HELP, _INPUT, _FORMAT, _tol(1e-6)],
    "survival-check": [
        _HELP, _INPUT, _FORMAT,
        (("--numeric",), "_StoreTrueAction", False, None, False, None, None),
    ],
}


# SHA-256 of each --help text at 80 columns (None: the top-level parser)
HELP_SHA256 = {
    None: "f880b6571b7daf066afe32f6f663810be44e44f9848b75324e1791edf0f75ef7",
    "ingest": "756339970bbbbd22d5fde0ab0ade7a41fbb85f36af66c1b71cc11ec39c2f9504",
    "scan-paradox": "1feeb5e9d4a962d2f30154eff2a2e1c70f7153b95d59d25acb95581bf487a4ad",
    "decompose": "56435f9ca4b222451bea60cd90fe17f4e49c1992e06c2798fc541ecf64cb4312",
    "collapse-check": "bed20cf91d45b2c1daffeb6ebb162c78025ddac1bd358959cba972d294816eea",
    "assoc-check": "9b57a31a42ff83d5f4d840f2e722a090a24b08abd0adbefd22d445d3573bcc55",
    "regress-audit": "3ca8c19b1fe37412d9e509102ad05beee0e490960f61fdf7f90b8eefb508b589",
    "dep-check": "bc94eb78f7646d882ee2ad0b9682e3e60571b94a29ac12a5030f65129031022c",
    "survival-check": "97dbbd43023f94948b2fa930706465ea0b02f31f7fa0d15baa450beb7b240305",
}


def _subparsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestParser:
    def test_every_verb_takes_the_pinned_arguments(self):
        verbs = _subparsers()
        assert list(verbs) == list(PARSER_SPEC)
        for verb, p in verbs.items():
            got = [
                (
                    tuple(a.option_strings),
                    type(a).__name__,
                    a.default,
                    None if a.choices is None else tuple(a.choices),
                    a.required,
                    a.metavar,
                    None if a.type is None else a.type.__name__,
                )
                for a in p._actions
            ]
            assert got == PARSER_SPEC[verb], verb
            assert p.get_default("fn").__name__ == "_cmd_" + verb.replace("-", "_")

    def test_tol_defaults_are_the_library_constants(self):
        from collapsekit import assoc, depfun, loglinear, regress

        library = {
            "decompose": loglinear.DEFAULT_TAU_TOL,
            "collapse-check": loglinear.DEFAULT_TAU_TOL,
            "assoc-check": assoc.DEFAULT_TOL,
            "regress-audit": regress.DEFAULT_TOL,
            "dep-check": depfun.DEFAULT_TOL,
        }
        defaults = {verb: p.get_default("tol") for verb, p in _subparsers().items()}
        assert {v: d for v, d in defaults.items() if d is not None} == library

    @pytest.mark.parametrize("verb", [None, *PARSER_SPEC])
    def test_help_text_is_unchanged(self, verb, monkeypatch, capsys):
        # argparse wraps at $COLUMNS; Python 3.10 heads the options
        # "optional arguments:", later versions "options:"
        monkeypatch.setenv("COLUMNS", "80")
        assert main([verb, "--help"] if verb else ["--help"]) == EXIT_OK
        text = capsys.readouterr().out.replace("\noptional arguments:\n", "\noptions:\n")
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[verb]


class TestReportsAreValidJson:
    def test_control_character_in_name_is_escaped(self, tmp_path, capsys):
        p = tmp_path / "table.json"
        table = {
            "variables": [
                {"name": "A", "levels": ["0", "1"]},
                {"name": "B\b", "levels": ["0", "1"]},
            ],
            "form": "counts",
            "cells": [1, 2, 3, 4],
        }
        p.write_text(json.dumps(table))
        assert main(["decompose", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "\\b" in out
        subsets = json.loads(out)["verdict"]["subsets"]
        assert ["B\b"] in [s["vars"] for s in subsets]

    @pytest.mark.parametrize(
        "verb, text, kind",
        [
            (
                "decompose",
                '{"variables": [{"name": "\\ud800", "levels": ["0", "1"]}],'
                ' "form": "counts", "cells": [1, 2]}',
                "SchemeError",
            ),
            (
                "regress-audit",
                '{"levels": [{"pi": 1.0, "alpha": 0.0, "beta": 0.5, "mu_x": 0.0,'
                ' "s_xx": 1.0, "s_yy": 1.0, "label": "\\ud800"}]}',
                "DistributionError",
            ),
            (
                "regress-audit",
                '{"levels": [{"pi": 1.0, "alpha": 0.0, "beta": 0.5, "mu_x": 0.0,'
                ' "s_xx": 1.0, "s_yy": 1.0, "label": {"a": [1]}}]}',
                "DistributionError",
            ),
        ],
        ids=["surrogate-name", "surrogate-label", "non-string-label"],
    )
    def test_invalid_name_or_label_is_structured(self, tmp_path, capsys, verb, text, kind):
        p = tmp_path / "input.json"
        p.write_text(text)
        assert main([verb, str(p)]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == kind


_NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
)


@st.composite
def _records_csvs(draw):
    """A records CSV of padded fields and blank lines, quote-free or with some
    fields quoted (half the texts each), whose lines end in LF, CR or CRLF.
    Its strata may hold a single x value, and it may have no records."""
    data = draw(st.data())
    quoting = draw(st.booleans())
    labels = ["g", "h", "g,h", "g\nh"] if quoting else ["g", "h"]
    lines = [",".join(_field(data, name, quoting) for name in "yxa")]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(_NUMBERS), draw(_NUMBERS), draw(st.sampled_from(labels))]
        lines.append(",".join(_field(data, v, quoting) for v in row))
    eol = draw(_EOLS)
    return eol.join(_with_blank_lines(draw, lines)) + eol


def _per_row_summary(text):
    """The report of ``text``'s summary, read one csv.reader row at a time."""
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r][1:]
    y = [float(r[0]) for r in rows]
    x = [float(r[1]) for r in rows]
    return dumps_report(as_report(summary_from_records(y, x, [r[2].strip() for r in rows])))


class TestRecordsCsv:
    @settings(max_examples=60, deadline=None)
    @given(text=_records_csvs())
    def test_matches_a_per_row_reader(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("records") / "records.csv"
        p.write_bytes(text.encode())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["regress-audit", str(p)])
        report = json.loads(out.getvalue())
        try:
            expected = _per_row_summary(text)
        except DistributionError as exc:
            assert code == EXIT_ERROR
            assert report["error"] == {"kind": "DistributionError", "message": str(exc)}
        else:
            assert code in (EXIT_OK, EXIT_DETECTED)
            # .17g floats round-trip, so equal text is equal bits
            assert dumps_report(report["verdict"]["summary"]) == expected


def _records_text(cells, quote):
    """A two-stratum records CSV whose second row holds ``cells``, every
    field wrapped in ``quote`` (the csv.reader path when it is ``"``)."""
    rows = [["y", "x", "a"], ["1", "0", "u"], cells, ["0", "0", "v"], ["3", "1", "v"]]
    return "".join(",".join(quote + f + quote for f in row) + "\n" for row in rows)


class TestRecordsNumbers:
    def run(self, tmp_path, capsys, text):
        p = tmp_path / "records.csv"
        p.write_bytes(text.encode())
        code = main(["regress-audit", str(p)])
        out, err = capsys.readouterr()
        assert err == ""
        return code, json.loads(out)

    # float() reads each of these; a CSV number is ASCII without "_"
    @pytest.mark.parametrize("quote", ["", '"'], ids=["by-line", "csv-reader"])
    @pytest.mark.parametrize("column", [0, 1], ids=["y", "x"])
    @pytest.mark.parametrize("cell", ["1_0", "\uff11", "\u0661", "1\u2007", "\u00a01"])
    def test_number_outside_ascii_or_with_underscore_is_malformed(
        self, tmp_path, capsys, cell, column, quote
    ):
        cells = ["2", "1", "u"]
        cells[column] = cell
        code, report = self.run(tmp_path, capsys, _records_text(cells, quote))
        assert code == EXIT_ERROR
        assert report["error"] == {
            "kind": "TableError",
            "message": f"malformed records CSV: y and x must be ASCII numbers without '_', not {cell!r}",
        }

    @pytest.mark.parametrize("quote", ["", '"'], ids=["by-line", "csv-reader"])
    @pytest.mark.parametrize("label", ["u_1", "\u00fc", "\uff11"])
    def test_label_may_hold_any_text(self, tmp_path, capsys, label, quote):
        text = _records_text(["2", "1", "u"], quote).replace("u", label)
        code, report = self.run(tmp_path, capsys, text)
        assert code in (EXIT_OK, EXIT_DETECTED)
        assert [lv["label"] for lv in report["verdict"]["summary"]["levels"]] == [label, "v"]

    def test_plain_numbers_read_as_float_does(self, tmp_path, capsys):
        code, report = self.run(tmp_path, capsys, "y,x,a\n 1e0 ,0.,u\n+2,1,u\n0,-0,v\n3,.1E1,v\n")
        assert code in (EXIT_OK, EXIT_DETECTED)
        assert [lv["mu_x"] for lv in report["verdict"]["summary"]["levels"]] == [0.5, 0.5]


_B = cli._BLOCK


def _block_text(count, quote, replace=None):
    """A records CSV of ``count`` body rows over four strata, every field
    wrapped in ``quote``.  The rows within three of a block boundary (and
    of the file's start) end in CRLF, a blank line follows each block's last
    row, and, quoted, those rows' label spans a CRLF.  ``replace`` maps a
    body row's index to the fields it holds instead."""
    out = [",".join(quote + f + quote for f in "yxa") + "\n"]
    for i in range(count):
        near = (i + 3) % _B < 6
        label = ("k\r\nk" if quote else "k") if near else "gh"[i % 2]
        row = (replace or {}).get(i, [repr(i * 0.37 % 5.0), repr(float(i % 4)), label])
        out.append(",".join(quote + f + quote for f in row) + ("\r\n" if near else "\n"))
        if (i + 1) % _B == 0:
            out.append("\r\n")
    return "".join(out)


def _line_of(text, marker):
    """The physical line on which ``marker`` first appears."""
    return text[: text.index(marker)].count("\n") + 1


def _traced_peak(fn):
    """``fn()`` and the peak of the memory that tracemalloc saw it take."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return fn(), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


QUOTES = pytest.mark.parametrize("quote", ["", '"'], ids=["by-line", "csv-reader"])


class TestRecordsBlocks:
    """``read_records`` parses the body ``cli._BLOCK`` rows at a time."""

    def run(self, tmp_path, capsys, text):
        p = tmp_path / "records.csv"
        p.write_bytes(text.encode())
        code = main(["regress-audit", str(p)])
        out, err = capsys.readouterr()
        assert err == ""
        return code, json.loads(out)

    @QUOTES
    @pytest.mark.parametrize("count", [_B - 1, _B, _B + 1, 2 * _B + 1])
    def test_summary_matches_a_per_row_reader(self, tmp_path, capsys, count, quote):
        text = _block_text(count, quote)
        assert ('"' in text) == bool(quote)
        code, report = self.run(tmp_path, capsys, text)
        assert code in (EXIT_OK, EXIT_DETECTED)
        levels = report["verdict"]["summary"]["levels"]
        assert [lv["label"] for lv in levels] == ["k\r\nk" if quote else "k", "h", "g"]
        assert dumps_report(report["verdict"]["summary"]) == _per_row_summary(text)

    @QUOTES
    @pytest.mark.parametrize("extra", [["7", "1", "g", "EXTRA"], ["7", "EXTRA"]], ids=["long", "short"])
    def test_ragged_row_in_the_second_block_names_its_line(self, tmp_path, capsys, quote, extra):
        text = _block_text(_B + 20, quote, {_B + 10: extra})
        code, report = self.run(tmp_path, capsys, text)
        assert code == EXIT_ERROR
        line = _line_of(text, "EXTRA")
        assert line > _B + 10
        assert report["error"] == {"kind": "TableError", "message": f"ragged row at line {line}"}

    @QUOTES
    @pytest.mark.parametrize(
        "faults, named",
        [
            # one block: a bad x on a line before a bad y
            ({3: ["5", "zz", "h"], 4: ["qq", "1", "g"]}, "zz"),
            # y before x within a row
            ({3: ["qq", "zz", "h"]}, "qq"),
            # a bad number before a field that is not plain, then the reverse
            ({2: ["5", "zz", "h"], 6: ["1_0", "1", "g"]}, "zz"),
            ({2: ["1_0", "1", "g"], 6: ["5", "zz", "h"]}, "1_0"),
            # a bad number before a ragged row, then the reverse
            ({4: ["qq", "1", "g"], 5: ["7", "EXTRA"]}, "qq"),
            ({4: ["7", "EXTRA"], 5: ["qq", "1", "g"]}, "EXTRA"),
            # the same orders across a block boundary
            ({8: ["5", "zz", "h"], _B + 8: ["qq", "1", "g"]}, "zz"),
            ({8: ["１", "1", "g"], _B + 8: ["qq", "1", "g"]}, "１"),
            ({8: ["5", "zz", "h"], _B + 8: ["1_0", "1", "g"]}, "zz"),
            ({8: ["qq", "1", "g"], _B + 8: ["7", "1", "g", "EXTRA"]}, "qq"),
            ({8: ["7", "1", "g", "EXTRA"], _B + 8: ["qq", "1", "g"]}, "EXTRA"),
            ({8: ["1_0", "1", "g"], _B + 8: ["7", "EXTRA"]}, "1_0"),
        ],
    )
    def test_first_fault_in_file_order_is_named(self, tmp_path, capsys, quote, faults, named):
        text = _block_text(_B + 20, quote, faults)
        code, report = self.run(tmp_path, capsys, text)
        assert code == EXIT_ERROR
        if named == "EXTRA":
            message = f"ragged row at line {_line_of(text, named)}"
        elif named.isascii() and "_" not in named:
            message = f"malformed records CSV: could not convert string to float: {named!r}"
        else:
            message = f"malformed records CSV: y and x must be ASCII numbers without '_', not {named!r}"
        assert report["error"] == {"kind": "TableError", "message": message}

    @QUOTES
    @pytest.mark.parametrize("first", [2, _B + 2], ids=["one-block", "two-blocks"])
    def test_field_over_the_size_limit_is_a_fault_of_its_row(self, tmp_path, capsys, quote, first):
        limit = csv.field_size_limit()
        wide = ["1", "0", "x" * (limit + 1)]
        bad = ["qq", "1", "g"]
        for faults, message in [
            ({first: bad, first + 5: wide}, "could not convert string to float: 'qq'"),
            ({first: wide, first + 5: bad}, f"field larger than field limit ({limit})"),
        ]:
            code, report = self.run(tmp_path, capsys, _block_text(_B + 20, quote, faults))
            assert code == EXIT_ERROR
            assert report["error"]["message"] == f"malformed records CSV: {message}"

    @QUOTES
    def test_array_and_list_inputs_give_the_same_strata(self, tmp_path, quote):
        p = tmp_path / "records.csv"
        p.write_bytes(_block_text(_B + 1, quote).encode())
        y, x, a = cli.read_records(str(p))
        assert (type(y), y.dtype, type(x), x.dtype) == (np.ndarray, np.float64, np.ndarray, np.float64)
        assert len(y) == len(x) == len(a) == _B + 1
        arrays = summary_from_records(y, x, a)
        lists = summary_from_records(y.tolist(), x.tolist(), list(a))
        assert dumps_report(as_report(arrays)) == dumps_report(as_report(lists))
        assert arrays.strata == lists.strata

    @QUOTES
    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path, quote):
        rng = np.random.default_rng(28)
        n = 50_000
        a = rng.integers(0, 50, n)
        x = rng.normal(1.0 + a / 25.0, 1.0)
        y = 2.0 + 0.5 * x + rng.normal(0.0, 1.0, n)
        rows = [["y", "x", "a"]]
        rows += ([repr(v), repr(u), f"g{k:02d}"] for v, u, k in zip(y.tolist(), x.tolist(), a.tolist()))
        p = tmp_path / "records.csv"
        p.write_text("".join(",".join(quote + f + quote for f in row) + "\n" for row in rows))
        size = p.stat().st_size
        summary, peak = _traced_peak(lambda: summary_from_records(*cli.read_records(str(p))))
        assert len(summary.strata) == 50
        assert peak <= 5 * size, f"peak {peak / size:.1f} times the file"
        # the moments take the float64 columns as they are: a sort order, the
        # codes, the label list and two sorted copies make five column sizes
        y, x, a = cli.read_records(str(p))
        _, peak = _traced_peak(lambda: summary_from_records(y, x, a))
        assert peak <= 6 * y.nbytes, f"peak {peak / y.nbytes:.1f} columns"


class TestByteOrderMark:
    def test_observations_csv(self, tmp_path, capsys):
        p = tmp_path / "berkeley.csv"
        raw = b"\xef\xbb\xbf" + ("\n".join(EX1_ROWS) + "\n").encode()
        p.write_bytes(raw)
        code = main(["scan-paradox", "--response", "A=Y", "--exposure", "X=M", str(p)])
        assert code == EXIT_DETECTED
        payload = json.loads(capsys.readouterr().out)
        assert payload["input_sha256"] == hashlib.sha256(raw).hexdigest()
        assert payload["verdict"]["reversal_detected"] is True

    def test_records_csv(self, tmp_path, capsys):
        p = tmp_path / "records.csv"
        p.write_bytes(b"\xef\xbb\xbfy,x,a\n1,0,u\n2,1,u\n0,0,v\n3,1,v\n")
        assert main(["regress-audit", str(p)]) in (EXIT_OK, EXIT_DETECTED)
        levels = json.loads(capsys.readouterr().out)["verdict"]["summary"]["levels"]
        assert [lv["label"] for lv in levels] == ["u", "v"]


# golden cases whose input is JSON
JSON_CASES = sorted(case for case, argv in GOLDEN.items() if argv[-1].endswith(".json"))


class TestJsonByteOrderMark:
    @pytest.mark.parametrize("case", JSON_CASES)
    def test_golden_report_but_the_digest(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)  # golden paths are relative to the repo root
        argv = GOLDEN[case]
        raw = Path(argv[-1]).read_bytes()
        bom = tmp_path / Path(argv[-1]).name
        bom.write_bytes(b"\xef\xbb\xbf" + raw)
        code = main(list(argv))
        want = capsys.readouterr().out
        assert main([*argv[:-1], str(bom)]) == code
        got = capsys.readouterr().out
        plain_sha = hashlib.sha256(raw).hexdigest()
        bom_sha = hashlib.sha256(bom.read_bytes()).hexdigest()
        assert want.count(plain_sha) == 1
        assert got == want.replace(plain_sha, bom_sha)

    def test_variables_payload(self, tmp_path, capsys, penalty_csv):
        levels = {"A": ["W", "B"], "V": ["W", "B"], "D": ["Y", "N"]}
        scheme = {"variables": [{"name": k, "levels": v} for k, v in levels.items()]}
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(json.dumps(scheme))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["ingest", "--variables", str(plain), penalty_csv]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["ingest", "--variables", str(bom), penalty_csv]) == EXIT_OK
        assert capsys.readouterr().out == want


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self, tmp_path):
        rng = np.random.default_rng(0)
        table = random_positive_table(rng, n=10, max_levels=2)
        p = tmp_path / "big.json"
        p.write_text(json.dumps(table.to_json_dict()))
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "collapsekit.cli", "decompose", str(p)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        # the report is about 1.5 MB, far past a pipe buffer
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert head.startswith(b"{")
        assert err == b""


class TestDeterminism:
    def test_byte_identical_runs(self, berkeley_csv, capsys):
        main(["scan-paradox", "--response", "A=Y", "--exposure", "X=M", berkeley_csv])
        first = capsys.readouterr().out
        main(["scan-paradox", "--response", "A=Y", "--exposure", "X=M", berkeley_csv])
        second = capsys.readouterr().out
        assert first == second

    def test_float_formatting(self):
        text = dumps_report({"v": 5 / 13})
        assert "0.38461538461538464" in text

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dumps_report({"v": float("nan")})

    def test_keys_sorted(self):
        text = dumps_report({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_json_parseable(self, berkeley_csv, capsys):
        main(
            [
                "scan-paradox",
                "--response",
                "A=Y",
                "--exposure",
                "X=M",
                "--cornfield",
                "D=H",
                berkeley_csv,
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["cornfield"]["riskdiff_condition"] in (True, False)


def _per_item_dumps(obj, indent=0):
    """Every value formatted on its own, as ``dumps_report`` did before its
    float-list path."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, tuple):
        obj = list(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("reports must not contain NaN or infinity")
        return format(obj, ".17g")
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _per_item_dumps(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    items = ",\n".join(
        inner + json.dumps(str(k), ensure_ascii=False) + ": " + _per_item_dumps(obj[k], indent + 1)
        for k in sorted(obj, key=str)
    )
    return "{\n" + items + "\n" + pad + "}"


class TestFloatListPath:
    @pytest.mark.parametrize(
        "value",
        [
            [0.1],
            [-0.0],
            [5e-324],
            [1e308],
            [-0.0, 5e-324, 1e308, -1.7976931348623157e308, 2.2250738585072014e-308, 1 / 3],
            [[0.5, -0.0], [5e-324], [[1e308, 1e-5]]],
            {"a": [1.0, 2.5], "b": {"c": [[-0.0, 1e22]]}},
            [True, 1, 1.0],
            [1.0, True],
            [1, 1.0, False, 0.0],
            [1.0, [2.0], 3.0],
            [np.float64(0.1), 0.2],
            [],
        ],
    )
    def test_same_bytes_as_per_item(self, value):
        assert dumps_report(value) == _per_item_dumps(value)
        assert dumps_report({"v": value}) == _per_item_dumps({"v": value})

    def test_bools_and_ints_keep_their_spelling(self):
        assert dumps_report([True, 1, 1.0]) == "[\n  true,\n  1,\n  1\n]"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_finite_float_lists(self, floats):
        assert dumps_report([floats, {"t": floats}]) == _per_item_dumps([floats, {"t": floats}])

    @pytest.mark.parametrize(
        "value",
        [
            [float("nan")],
            [1.0, float("inf")],
            [-math.inf, 2.0],
            [[0.5], [0.25, float("nan")]],
            {"tau": [0.0, -math.inf]},
        ],
    )
    def test_non_finite_raises(self, value):
        with pytest.raises(ValueError, match="NaN or infinity"):
            dumps_report(value)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        picks=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=30), min_size=1, max_size=6),
    )
    def test_repeats_across_lists(self, x, picks):
        # each distinct magnitude is formatted once for the whole report
        pool = [0.0, -0.0, x, -x, 5e-324, 1 / 3]
        lists = [[pool[i] for i in pick] for pick in picks]
        value = {"subsets": [{"tau": lst, "vars": ["a", "b"]} for lst in lists], "first": lists[0]}
        assert dumps_report(value) == _per_item_dumps(value)

    def test_nan_in_a_repeated_list_raises(self):
        shared = [0.5, float("nan"), 0.5, -0.5]
        for value in ([shared, shared], {"a": [0.5, -0.5], "b": {"tau": shared}, "c": shared}):
            with pytest.raises(ValueError, match="NaN or infinity"):
                dumps_report(value)


def _bulk_table_path(directory):
    """A seeded table of 7 binary and 3 ternary variables (3,456 cells)."""
    shape = (2,) * 7 + (3,) * 3
    cells = np.random.default_rng(19).uniform(0.05, 1.0, shape)
    scheme = CategoricalScheme(tuple((f"v{a}", tuple(map(str, range(m)))) for a, m in enumerate(shape)))
    path = directory / "table.json"
    path.write_text(json.dumps(ContingencyTable(scheme, cells / cells.sum(), "probability").to_json_dict()))
    return str(path)


class TestBulkDecomposeBytes:
    """Ten variables take ``loglinear._centered`` and print 139,968 floats;
    the golden corpus stops at 3 variables."""

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_same_bytes_as_per_item(self, tmp_path, capsys, monkeypatch, fmt):
        argv = ["decompose", "--format", fmt, _bulk_table_path(tmp_path)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") > 139_968
        monkeypatch.setattr(cli, "dumps_report", _per_item_dumps)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == out


class TestMarkdown:
    def test_scan_markdown_table(self, berkeley_csv, capsys):
        main(
            [
                "scan-paradox",
                "--response",
                "A=Y",
                "--exposure",
                "X=M",
                "--format",
                "md",
                berkeley_csv,
            ]
        )
        out = capsys.readouterr().out
        assert "| (marginal) |" in out
        assert "reversal: **true**" in out
        assert out.count("|---|") >= 1
