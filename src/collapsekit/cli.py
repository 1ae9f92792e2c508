"""Command-line front end: ingestion, dispatch, and report emission.

Exit codes: 0 clean verdict, 1 input or usage error (with a structured
error object on stdout), 2 when the requested check detects a paradox /
reversal / non-collapsibility, so shell pipelines can branch on it.

Reports are deterministic: keys are emitted sorted and floats with 17
significant digits, so identical inputs and options produce byte-identical
output.  Each verb returns its verdict; ``main`` alone wraps it in the
report envelope, emits it and maps it to an exit code.

``dep-check`` and ``survival-check`` import their modules inside the verb:
those modules load scipy, which the other verbs never need.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from collections import Counter
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from . import __version__
from .assoc import FiniteJoint, detect_assoc_reversal, double_linkage, holds_relation
from .collapse import check_collapsibility, check_strict_collapsibility
from .errors import CollapsekitError, SchemeError, TableError, malformed
from .loglinear import LATTICE_BUDGET, decompose, is_hierarchical
from .paradox import StratumScan, cornfield, detect_reversal, scan_strata
from .regress import (
    StratifiedRegressionSummary,
    check_a_collapsibility,
    check_parallel_collapsibility,
    summary_from_records,
)
from .tables import CategoricalScheme, ContingencyTable, build_table

MAX_CSV_VARIABLES = 20

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2


# -- deterministic JSON -------------------------------------------------------


def as_report(obj):
    """The report form of a verdict.

    An object with its own ``to_json_dict`` (the input formats,
    ``ParadoxReport``, ``InteractionDecomposition``) reports through it.  A
    dataclass becomes ``{name: as_report(value)}`` over its fields and its
    properties, tuples and lists become lists and arrays nested lists.  A
    dict keyed by variable subsets (``set_gaps``) gets comma-joined keys,
    ``"A,D"`` as in ``--target``.  Anything else passes through: any other
    dict is taken to be a report already, so a verb that builds one
    converts its verdict values itself and a decompose report's 3^n floats
    are never walked twice.
    """
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        names = [f.name for f in dataclasses.fields(obj)]
        names += [n for n in dir(cls) if isinstance(getattr(cls, n), property)]
        return {n: as_report(getattr(obj, n)) for n in names}
    if isinstance(obj, (list, tuple)):
        return [as_report(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict) and any(isinstance(k, tuple) for k in obj):
        return {
            ",".join(k) if isinstance(k, tuple) else k: as_report(v)
            for k, v in obj.items()
        }
    return obj


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain NaN or infinity")
    return format(x, ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and fixed float formatting.

    A list or tuple whose items are all exactly ``float`` (a decompose
    report's interaction arrays) is formatted by one ``%`` call over the
    whole list and checked for NaN and infinity once, on the joined text.
    Its bytes are identical to the per-item path, which every other list
    takes, so bools and ints in a mixed list still print as ``true`` and
    ``1``.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            items = inner + (",\n" + inner).join(["%.17g"] * len(obj)) % tuple(obj)
            # a .17g float has the letter n only in "nan" and "inf"
            if "n" in items:
                raise ValueError("reports must not contain NaN or infinity")
        else:
            items = ",\n".join(inner + dumps_report(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            inner + encode_basestring(str(k)) + ": " + dumps_report(obj[k], indent + 1)
            for k in sorted(obj, key=str)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_markdown(payload: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for k in sorted(payload, key=str):
        v = payload[k]
        if isinstance(v, dict):
            lines.append(f"{pad}- **{k}**:")
            lines.extend(_render_markdown(v, indent + 1))
        elif isinstance(v, (list, tuple)):
            lines.append(f"{pad}- **{k}**: {dumps_report(list(v))}")
        elif isinstance(v, float):
            lines.append(f"{pad}- **{k}**: {_fmt_float(v)}")
        else:
            lines.append(f"{pad}- **{k}**: {v}")
    return lines


def _emit(report: dict, fmt: str, markdown_body: str | None = None) -> None:
    if fmt == "md":
        lines = [f"# collapsekit {report['verb']}", ""]
        if markdown_body is not None:
            lines += [markdown_body, ""]
        lines += _render_markdown(
            {k: v for k, v in report.items() if k != "verdict"}
        )
        lines += _render_markdown({"verdict": report["verdict"]})
        print("\n".join(lines))
    else:
        print(dumps_report(report))


# -- input loading -------------------------------------------------------------


# SHA-256 of each file as it was read, by path: a report's input_sha256
# hashes the bytes its verdict came from, so piped input is read only once
_digests: dict[str, str] = {}


def _read_bytes(path: str) -> bytes:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TableError(f"cannot read {path}: {exc}") from exc
    _digests[path] = hashlib.sha256(data).hexdigest()
    return data


# str.splitlines also ends a line at these; in a CSV they are field characters
_SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _csv_lines(path: str) -> list[str]:
    """The file's lines, split at LF, CR and CRLF only, each with its end.

    Line ends stay, so csv.reader keeps a quoted field's line breaks.
    ``str.splitlines`` is the fast split, used unless the text holds one of
    the other characters it splits at (a memchr scan each).
    """
    text = _read_bytes(path).decode("utf-8-sig")
    if any(c in text for c in _SPLITLINES_ONLY):
        return io.StringIO(text, newline="").readlines()
    return text.splitlines(keepends=True)


def _ragged_line(lines: list[str], width: int) -> int:
    """Physical line of the first non-blank row after the header whose field
    count is not ``width``; a rescan, paid only on the error path."""
    reader = csv.reader(lines)
    next(row for row in reader if row)
    return next(reader.line_num for row in reader if row and len(row) != width)


def ingest_csv(path: str, scheme: CategoricalScheme | None = None) -> ContingencyTable:
    """Cross-tabulate a CSV of observations into a counts table.

    The header row names the categorical variables; each subsequent row is
    one observation, and blank lines are skipped.  Without a declared
    ``scheme``, levels keep first-appearance order (after stripping) and
    every column must show at least two levels; with one, the header must
    match the scheme's variables and every value must be a declared level
    (unfilled cells stay zero).  A table of more than ``LATTICE_BUDGET``
    cells is an error.

    Identical raw rows are tallied once, so Python work grows with the
    number of distinct rows; rows that differ only in padding land in one
    cell and are summed there.
    """
    lines = _csv_lines(path)
    reader = csv.reader(lines)
    header = next((row for row in reader if row), None)
    if header is None:
        raise TableError("empty CSV file")
    header = [h.strip() for h in header]
    if len(header) > MAX_CSV_VARIABLES:
        raise TableError(f"more than {MAX_CSV_VARIABLES} variables")
    # dict order is first appearance, so each level's first distinct row
    # comes in the order of the level's first observation
    tally = Counter(map(tuple, reader))
    tally.pop((), None)  # blank lines
    if not tally:
        raise TableError("CSV has a header but no observation rows")
    if any(len(row) != len(header) for row in tally):
        raise TableError(f"ragged row at line {_ragged_line(lines, len(header))}")
    columns = list(zip(*([v.strip() for v in row] for row in tally)))
    if scheme is None:
        levels = [tuple(dict.fromkeys(col)) for col in columns]
        for name, lv in zip(header, levels):
            if len(lv) < 2:
                # a single observed level cannot form a categorical axis by
                # inference; pass a declared scheme for such files
                raise TableError(f"column {name!r} has a single observed level")
        scheme = CategoricalScheme(tuple(zip(header, levels)))
    elif tuple(header) != scheme.names:
        raise TableError(
            f"CSV header {tuple(header)} does not match the declared variables {scheme.names}"
        )
    if scheme.ncells > LATTICE_BUDGET:
        raise TableError(
            f"table of shape {scheme.shape} has {scheme.ncells} cells, "
            f"over the budget of {LATTICE_BUDGET}"
        )
    codes = []
    for (_, levels), col in zip(scheme.variables, columns):
        pos = {label: i for i, label in enumerate(levels)}
        if not pos.keys() >= set(col):
            # name the first unknown value in row order, as a row scan would
            for row in zip(*columns):
                for var, label in zip(scheme.names, row):
                    scheme.level_index(var, label)
        codes.append([pos[label] for label in col])
    flat = np.ravel_multi_index(codes, scheme.shape)
    # np.bincount sums repeated cells; an indexed assignment would keep one
    cells = np.bincount(flat, weights=list(tally.values()), minlength=scheme.ncells)
    return ContingencyTable(scheme, cells.reshape(scheme.shape), "counts")


def _load_scheme(path: str | None) -> CategoricalScheme | None:
    if path is None:
        return None
    return CategoricalScheme.from_json_dict(json.loads(_read_bytes(path).decode("utf-8")))


def _load_table(path: str, variables: str | None = None) -> ContingencyTable:
    if path.endswith(".csv"):
        return ingest_csv(path, scheme=_load_scheme(variables))
    return ContingencyTable.from_json(_read_bytes(path).decode("utf-8"))


def _parse_event(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise SchemeError(f"expected VAR=LEVEL, got {text!r}")
    var, _, level = text.partition("=")
    return var.strip(), level.strip()


def _parse_subset(text: str) -> tuple["str | int", ...]:
    """Comma-separated variable names; all-digit tokens are axis indices."""
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise SchemeError(f"empty variable subset {text!r}")
    return tuple(int(p) if p.isdigit() else p for p in parts)


# -- verbs ---------------------------------------------------------------------
#
# Each verb returns (verdict, detected, markdown body or None).


def _cmd_ingest(args):
    return ingest_csv(args.input, scheme=_load_scheme(args.variables)), False, None


def _cmd_scan_paradox(args):
    table = _load_table(args.input, variables=args.variables)
    response = _parse_event(args.response)
    exposure = _parse_event(args.exposure)
    if args.covariate:
        report = detect_reversal(table, response, exposure, args.covariate)
        scans = (StratumScan(args.covariate, report, None),)
    else:
        scans = scan_strata(table, response, exposure)
    reports = [s.report for s in scans if s.report is not None]
    detected = any(r.reversal for r in reports)
    verdict = {"candidates": as_report(scans), "reversal_detected": detected}
    if args.cornfield:
        verdict["cornfield"] = as_report(
            cornfield(table, response, exposure, _parse_event(args.cornfield))
        )
    return verdict, detected, "\n\n".join(r.to_markdown() for r in reports)


def _cmd_decompose(args):
    table = _load_table(args.input)
    if table.form == "counts":
        table = table.normalize(smoothing=args.smoothing)
    dec = decompose(table)
    hier = is_hierarchical(dec, tol=args.tol)
    verdict = dec.to_json_dict()
    verdict["hierarchical"] = hier.hierarchical
    verdict["hierarchy_violations"] = [
        {"superset": list(b), "vanished_subset": list(a)} for b, a in hier.violations
    ]
    return verdict, False, None


def _cmd_collapse_check(args):
    table = _load_table(args.input)
    if table.form == "counts":
        table = table.normalize(smoothing=args.smoothing)
    target = table.scheme.subset_names(
        table.scheme.resolve_subset(_parse_subset(args.target))
    )
    if args.strict:
        given = (
            table.scheme.subset_names(
                table.scheme.resolve_subset(_parse_subset(args.given))
            )
            if args.given
            else ()
        )
        collapsed = tuple(
            n for n in table.scheme.names if n not in set(target) | set(given)
        )
        v = check_strict_collapsibility(
            table, target, given, collapsed, tol=args.tol
        )
        verdict = {
            "target": list(v.target),
            "margin": list(v.margin),
            "collapsible": v.collapsible,
            "strict": v.strict,
            "max_residual": v.max_residual,
            "direct_gap": v.direct_gap,
            "zero_set_max": v.zero_set_max,
            "interaction_zero_ok": v.interaction_zero_ok,
            "ci_holds": v.ci.holds if v.ci else None,
            "ci_max_deviation": v.ci.max_deviation if v.ci else None,
            "tol": v.tol,
        }
        return verdict, not v.strict, None
    if not args.margin:
        raise SchemeError("--margin is required without --strict")
    v = check_collapsibility(table, target, _parse_subset(args.margin), tol=args.tol)
    verdict = {
        "target": list(v.target),
        "margin": list(v.margin),
        "collapsible": v.collapsible,
        "strict": None,
        "max_residual": v.max_residual,
        "direct_gap": v.direct_gap,
        "tau_full": v.tau_full.reshape(-1).tolist(),
        "eta_marginal": v.eta_marginal.reshape(-1).tolist(),
        "tol": v.tol,
    }
    return verdict, not v.collapsible, None


def _cmd_assoc_check(args):
    joint = FiniteJoint.from_json(_read_bytes(args.input).decode("utf-8"))
    rep = detect_assoc_reversal(joint, args.relation, tol=args.tol)
    verdict = {
        "relation": args.relation,
        "holds_up": holds_relation(joint, args.relation, "up", tol=args.tol),
        "holds_down": holds_relation(joint, args.relation, "down", tol=args.tol),
        "reversal": as_report(rep),
        "linkage": as_report(double_linkage(joint, tol=args.tol)),
    }
    return verdict, rep.reversal, None


def _cmd_regress_audit(args):
    if args.input.endswith(".csv"):
        lines = _csv_lines(args.input)
        reader = csv.reader(lines)
        header = next((row for row in reader if row), [])
        if [h.strip().lower() for h in header] != ["y", "x", "a"]:
            raise TableError("records CSV must have header y,x,a")
        rows = list(filter(None, reader))  # blank lines parse to []
        if set(map(len, rows)) - {3}:
            raise TableError(f"ragged row at line {_ragged_line(lines, 3)}")
        with malformed(TableError, "records CSV"):
            y = [float(r[0]) for r in rows]
            x = [float(r[1]) for r in rows]
        summary = summary_from_records(y, x, [r[2].strip() for r in rows])
    else:
        summary = StratifiedRegressionSummary.from_json(
            _read_bytes(args.input).decode("utf-8")
        )
    betas = [s.beta for s in summary.strata]
    mode = args.mode
    if mode == "auto":
        mode = "parallel" if max(betas) - min(betas) <= 1e-12 else "average"
    if mode == "parallel":
        v = check_parallel_collapsibility(summary, tol=args.tol)
        detected = not v.collapsible
    else:
        v = check_a_collapsibility(summary, tol=args.tol)
        detected = not v.a_collapsible
    return dict(as_report(v), summary=as_report(summary)), detected, None


def _cmd_dep_check(args):
    from .depfun import check_avg_collapsibility, check_homogeneity, model_from_json

    model = model_from_json(_read_bytes(args.input).decode("utf-8"))
    v = check_avg_collapsibility(model, tol=args.tol)
    h = check_homogeneity(model, tol=args.tol)
    verdict = {
        "model": as_report(model),
        "avg_collapsibility": as_report(v),
        "homogeneous": h.homogeneous,
        "homogeneity_gap": h.max_gap,
        "x_w_independent": model.x_w_independent,
        "y_w_cond_independent": model.y_w_cond_independent,
    }
    return verdict, not v.avg_collapsible, None


def _cmd_survival_check(args):
    from .survival import SurvivalSpec, check_condition, verify_numeric

    spec = SurvivalSpec.from_json(_read_bytes(args.input).decode("utf-8"))
    v = verify_numeric(spec) if args.numeric else check_condition(spec)
    return v, v.condition, None


# -- parser --------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite positive float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsekit",
        description="Simpson's paradox detection and collapsibility verdicts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, tol_default=None, tol_help="decision tolerance"):
        p.add_argument("input", help="input file (JSON; CSV where noted)")
        p.add_argument(
            "--format", choices=("json", "md"), default="json", help="output format"
        )
        if tol_default is not None:
            p.add_argument(
                "--tol", type=_tolerance, default=tol_default, help=f"{tol_help} (default {tol_default})"
            )

    p = sub.add_parser("ingest", help="cross-tabulate a CSV of observations")
    common(p)
    p.add_argument("--variables", help="JSON file declaring variables and levels")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("scan-paradox", help="event-level reversal scan (exit 2 on reversal)")
    common(p)
    p.add_argument("--variables", help="JSON file declaring variables and levels (CSV input)")
    p.add_argument("--response", required=True, metavar="VAR=LEVEL")
    p.add_argument("--exposure", required=True, metavar="VAR=LEVEL")
    p.add_argument("--covariate", help="restrict the scan to one covariate variable")
    p.add_argument(
        "--cornfield", metavar="VAR=LEVEL", help="also report effect-size diagnostics for this confounder event"
    )
    p.set_defaults(fn=_cmd_scan_paradox)

    p = sub.add_parser("decompose", help="saturated log-linear interaction parameters")
    common(p, tol_default=1e-8, tol_help="zero-interaction tolerance")
    p.add_argument(
        "--smoothing", type=float, default=None, help="additive smoothing for zero count cells"
    )
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser(
        "collapse-check", help="collapsibility onto a margin (exit 2 when not collapsible)"
    )
    common(p, tol_default=1e-8)
    p.add_argument("--target", required=True, help="comma-separated target variables")
    p.add_argument("--margin", help="comma-separated margin variables (plain check)")
    p.add_argument("--strict", action="store_true", help="strict collapsibility over the complement")
    p.add_argument("--given", help="conditioning variables for --strict (may be empty)")
    p.add_argument("--smoothing", type=float, default=None)
    p.set_defaults(fn=_cmd_collapse_check)

    p = sub.add_parser("assoc-check", help="association relation and reversal report")
    common(p, tol_default=1e-9)
    p.add_argument("--relation", choices=("r1", "r2", "r3", "r4"), default="r4")
    p.set_defaults(fn=_cmd_assoc_check)

    p = sub.add_parser("regress-audit", help="regression collapsibility audit")
    common(p, tol_default=1e-9)
    p.add_argument("--mode", choices=("auto", "parallel", "average"), default="auto")
    p.set_defaults(fn=_cmd_regress_audit)

    p = sub.add_parser("dep-check", help="dependence-function average collapsibility")
    common(p, tol_default=1e-6)
    p.set_defaults(fn=_cmd_dep_check)

    p = sub.add_parser("survival-check", help="survival reversal condition (exit 2 when predicted)")
    common(p)
    p.add_argument("--numeric", action="store_true", help="also verify on the probe grid")
    p.set_defaults(fn=_cmd_survival_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to the input-error code
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    fmt, markdown_body = args.format, None
    _digests.clear()
    try:
        verdict, detected, markdown_body = args.fn(args)
        report = {
            "verb": args.verb,
            "input_sha256": _digests.pop(args.input),
            "tool_version": __version__,
            "verdict": as_report(verdict),
        }
        code = EXIT_DETECTED if detected else EXIT_OK
    except (CollapsekitError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # the error object is JSON whatever the requested format
        report = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        fmt, code = "json", EXIT_ERROR
    try:
        _emit(report, fmt, markdown_body)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``); send the unflushed rest to devnull
        # so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
