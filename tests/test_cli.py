import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collapsekit.cli import (
    EXIT_DETECTED,
    EXIT_ERROR,
    EXIT_OK,
    dumps_report,
    ingest_csv,
    main,
)
from collapsekit.errors import TableError
from collapsekit.tables import CategoricalScheme

from conftest import ci_constructed_table, random_positive_table

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
        assert t.cell({"a": "1", "b": "u"}) == 1.0
        assert t.cell({"a": "0", "b": "v"}) == 0.0

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
        p.write_text(t.to_json())
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
        p.write_text(t.to_json())
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
        from test_assoc import covariance_flip_witness

        p = tmp_path / "joint.json"
        p.write_text(covariance_flip_witness().to_json())
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


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self, tmp_path):
        rng = np.random.default_rng(0)
        table = random_positive_table(rng, n=10, max_levels=2)
        p = tmp_path / "big.json"
        p.write_text(table.to_json())
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
