"""Command-line front end: ingestion, dispatch, and report emission.

Exit codes: 0 clean verdict, 1 input or usage error (with a structured
error object on stdout), 2 when the requested check detects a paradox /
reversal / non-collapsibility, so shell pipelines can branch on it.

Reports are deterministic: keys are emitted sorted and floats with 17
significant digits, so identical inputs and options produce byte-identical
output.  Each verb returns its verdict; ``main`` alone wraps it in the
report envelope, emits it and maps it to an exit code.

``VERBS`` is the CLI: one row per verb holds its handler, its help, its
``--tol`` default (or None for no ``--tol``) and its own options as (flag,
``add_argument`` keywords), and ``build_parser`` is one loop over the rows.
A ``--tol`` default is the literal value of the library's constant, pinned
to it by a test, so building the parser imports no library module.

At module level this imports only the standard library and ``errors``;
numpy loads with the first function that builds an array.  Each ``_cmd_*``
handler imports its verb's modules when it runs, so a call loads only what
its verb uses.  Rows hold the handlers, never library functions, and a
handler calls its library through the module (``paradox.detect_reversal``),
so a wrapper swapped in for a module attribute sees every call.
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
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import CollapsekitError, SchemeError, TableError, loads, malformed

if TYPE_CHECKING:
    import numpy as np

    from .tables import CategoricalScheme, ContingencyTable

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
    # an ndarray exists only once numpy is loaded
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
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

    The value is walked once into a flat list of text pieces.  A list or
    tuple whose items are all exactly ``float`` (a decompose report's
    interaction arrays) leaves an empty piece there, and once the walk is
    done ``_fill_float_lists`` fills every such piece, formatting each
    distinct float magnitude of the whole report once.  The bytes are those
    of formatting every float on its own with ``%.17g``.  Any other list
    takes the per-item path, so bools and ints in a mixed list still print
    as ``true`` and ``1``.  NaN or infinity anywhere raises ValueError.
    """
    pieces: list[str] = []
    float_lists: list[tuple[int, list, str]] = []
    _walk(obj, indent, pieces, float_lists)
    if float_lists:
        _fill_float_lists(pieces, float_lists)
    return "".join(pieces)


def _walk(obj, indent: int, pieces: list[str], float_lists: list) -> None:
    """Append the JSON text of ``obj`` to ``pieces``.  An all-float list
    gets an empty piece, and (its index, the list, the item pad) goes to
    ``float_lists``."""
    if isinstance(obj, str):  # first: a report's most common leaf
        pieces.append(encode_basestring(obj))
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pad = "  " * indent
        sep = inner = pad + "  "
        pieces.append("{\n")
        for k in sorted(obj, key=str):
            pieces.append(sep + encode_basestring(str(k)) + ": ")
            _walk(obj[k], indent + 1, pieces, float_lists)
            sep = ",\n" + inner
        pieces.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pad = "  " * indent
        sep = inner = pad + "  "
        pieces.append("[\n")
        if set(map(type, obj)) == {float}:
            float_lists.append((len(pieces), obj, inner))
            pieces.append("")
        else:
            for v in obj:
                pieces.append(sep)
                _walk(v, indent + 1, pieces, float_lists)
                sep = ",\n" + inner
        pieces.append("\n" + pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fill_float_lists(pieces: list[str], float_lists: list) -> None:
    """Fill the piece of each all-float list, formatting each magnitude once.

    The floats of every list go into one array.  ``np.unique`` over the bit
    patterns of their magnitudes gives the distinct values (a decompose
    report holds a few times fewer than it prints: centering a binary axis
    leaves values in +- pairs), one ``%`` call formats them, and each float
    takes its magnitude's text, behind a ``-`` when its sign bit is set.
    That is how ``%.17g`` prints a negative float, ``-0.0`` as ``-0``.
    """
    import numpy as np

    floats = np.fromiter(chain.from_iterable(lst for _, lst, _ in float_lists), float)
    mags, index = np.unique(np.abs(floats).view(np.int64), return_inverse=True)
    text = "%.17g\n" * len(mags) % tuple(mags.view(np.float64).tolist())
    # a .17g float has the letter n only in "nan" and "inf"
    if "n" in text:
        raise ValueError("reports must not contain NaN or infinity")
    texts = text.split("\n")[:-1]
    texts = np.array(texts + ["-" + t for t in texts], dtype=object)
    items = texts[index + len(mags) * np.signbit(floats)].tolist()
    start = 0
    for at, lst, inner in float_lists:
        end = start + len(lst)
        pieces[at] = inner + (",\n" + inner).join(items[start:end])
        start = end


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


def _csv_lines(path: str) -> tuple[list[str], bool]:
    """The file's lines, split at LF, CR and CRLF only, and whether each line
    is one record.

    It is when the text holds no quote, so no field spans lines or hides a
    comma, no NUL, which csv.reader rejects on Python 3.10, no line over
    ``csv.field_size_limit()``, so no field is over it, and none of the
    other characters ``str.splitlines`` ends a line at (a memchr scan each).
    ``line.split(",")`` is then csv.reader's row, except that a blank line
    gives ``[""]``, not ``[]``.  A text with one of those characters is split
    at LF, CR and CRLF with the ends kept, and csv.reader reads it.  Lines
    keep their ends when the text holds a quote, so csv.reader keeps a
    quoted field's line breaks.
    """
    text = _read_bytes(path).decode("utf-8-sig")
    if any(c in text for c in _SPLITLINES_ONLY):
        return io.StringIO(text, newline="").readlines(), False
    quoted = '"' in text
    lines = text.splitlines(keepends=quoted)
    by_line = not quoted and "\0" not in text
    return lines, by_line and max(map(len, lines), default=0) <= csv.field_size_limit()


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
    cell and are summed there.  A text whose lines are its records (see
    ``_csv_lines``) is tallied by line, so csv.reader never sees it.
    """
    import numpy as np

    from . import loglinear, tables

    lines, by_line = _csv_lines(path)
    # dict order is first appearance, so each level's first distinct row
    # comes in the order of the level's first observation
    with malformed(TableError, "CSV", csv.Error):
        if by_line:
            body = filter(None, lines)  # blank lines
            first = next(body, None)
            header = None if first is None else first.split(",")
            # lines hash in C; distinct lines split to distinct rows
            tally = {tuple(line.split(",")): n for line, n in Counter(body).items()}
        else:
            reader = csv.reader(lines)
            header = next(filter(None, reader), None)
            tally = Counter(map(tuple, reader))
            tally.pop((), None)  # blank lines
    if header is None:
        raise TableError("empty CSV file")
    header = [h.strip() for h in header]
    if len(header) > MAX_CSV_VARIABLES:
        raise TableError(f"more than {MAX_CSV_VARIABLES} variables")
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
        scheme = tables.CategoricalScheme(tuple(zip(header, levels)))
    elif tuple(header) != scheme.names:
        raise TableError(
            f"CSV header {tuple(header)} does not match the declared variables {scheme.names}"
        )
    if scheme.ncells > loglinear.LATTICE_BUDGET:
        raise TableError(
            f"table of shape {scheme.shape} has {scheme.ncells} cells, "
            f"over the budget of {loglinear.LATTICE_BUDGET}"
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
    return tables.ContingencyTable(scheme, cells.reshape(scheme.shape), "counts")


def _text(path: str) -> str:
    return _read_bytes(path).decode("utf-8-sig")


def _load_scheme(path: str | None) -> CategoricalScheme | None:
    from . import tables

    if path is None:
        return None
    return tables.CategoricalScheme.from_json_dict(loads(_text(path), TableError, "variables payload"))


def _load_table(path: str, variables: str | None = None) -> ContingencyTable:
    from . import tables

    if path.endswith(".csv"):
        return ingest_csv(path, scheme=_load_scheme(variables))
    return tables.ContingencyTable.from_json(_text(path))


def _probabilities(args) -> ContingencyTable:
    """The input table; a counts table is normalized with ``--smoothing``."""
    table = _load_table(args.input)
    return table.normalize(smoothing=args.smoothing) if table.form == "counts" else table


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


def _subset_names(scheme: CategoricalScheme, text: str) -> tuple[str, ...]:
    return scheme.subset_names(scheme.resolve_subset(_parse_subset(text)))


def _plain(text: str) -> bool:
    """No digit-group ``_`` and nothing outside ASCII, such as a full-width
    digit: ``float`` reads both, a CSV number holds neither."""
    return text.isascii() and "_" not in text


# body rows parsed at once: beside its float64 columns, read_records holds
# one block's field strings, whatever the file's length
_BLOCK = 8192


def _blocks(rows):
    """The non-blank rows of ``rows``, taken lazily, in lists of at most
    ``_BLOCK``."""
    while chunk := list(islice(rows, _BLOCK)):
        if block := list(filter(None, chunk)):  # blank lines
            yield block


def _records_fault(lines: list[str], skip: int) -> None:
    """Raise the first fault in file order among a records body's rows from
    the ``skip``-th non-blank one on: a ragged row, or the row's first y or x
    field that is not ``_plain`` or that ``float`` cannot read, y before x.
    A rescan of the failing block, paid only on the error path; csv.reader
    passes over the rows before it to count physical lines."""
    reader = csv.reader(lines)
    body = filter(None, reader)  # blank lines
    next(body)  # the header
    for row in islice(body, skip, None):
        if len(row) != 3:
            raise TableError(f"ragged row at line {reader.line_num}")
        for field in row[:2]:
            if not _plain(field):
                raise ValueError(f"y and x must be ASCII numbers without '_', not {field!r}")
            float(field)


def read_records(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The y and x columns of a records CSV with header y,x,a as float64
    arrays, and its stripped labels, one string object per distinct label.

    The body is parsed a block of ``_BLOCK`` rows at a time straight into
    the arrays, so no per-field string outlives its block.  y and x must be
    ``_plain`` numbers, the labels may hold any text.  A bad header is named
    first, then the first faulty row in file order (see ``_records_fault``).
    """
    import numpy as np

    lines, by_line = _csv_lines(path)
    with malformed(TableError, "records CSV", csv.Error):
        rows = iter(lines) if by_line else csv.reader(lines)
        header = next(filter(None, rows), "")  # blank lines
        if by_line:
            header = header.split(",")
        if [h.strip().lower() for h in header] != ["y", "x", "a"]:
            raise TableError("records CSV must have header y,x,a")
        y, x = np.empty(len(lines)), np.empty(len(lines))
        a: list[str] = []
        label: dict[str, str] = {}  # the one string object of each label
        n = 0  # body rows parsed into y and x
        try:
            for block in _blocks(rows):
                if by_line:
                    ragged = set(map(str.count, block, repeat(","))) != {2}
                    # with two commas a line, line i's fields are 3i, 3i+1 and 3i+2
                    fields = ",".join(block).split(",")
                else:
                    ragged = set(map(len, block)) != {3}
                    fields = list(chain.from_iterable(block))
                ys, xs = fields[0::3], fields[1::3]
                if ragged or not (_plain("".join(ys)) and _plain("".join(xs))):
                    # the rescan below names the first fault
                    raise ValueError("a ragged row, or y or x not a plain number")
                k = n + len(block)
                y[n:k] = list(map(float, ys))
                x[n:k] = list(map(float, xs))
                labels = list(map(str.strip, fields[2::3]))
                a.extend(map(label.setdefault, labels, labels))
                n = k
        except (ValueError, csv.Error):
            _records_fault(lines, n)
            raise
    return y[:n], x[:n], a


# -- verbs ---------------------------------------------------------------------
#
# Each verb returns (verdict, detected, markdown body or None).


def _cmd_ingest(args):
    return ingest_csv(args.input, scheme=_load_scheme(args.variables)), False, None


def _cmd_scan_paradox(args):
    from . import paradox

    table = _load_table(args.input, variables=args.variables)
    response = _parse_event(args.response)
    exposure = _parse_event(args.exposure)
    if args.covariate:
        report = paradox.detect_reversal(table, response, exposure, args.covariate)
        scans = (paradox.StratumScan(args.covariate, report, None),)
    else:
        scans = paradox.scan_strata(table, response, exposure)
    reports = [s.report for s in scans if s.report is not None]
    if not reports:  # a scan that decides nothing is an input error
        raise TableError(scans[0].error)
    detected = any(r.reversal for r in reports)
    verdict = {"candidates": as_report(scans), "reversal_detected": detected}
    if args.cornfield:
        verdict["cornfield"] = as_report(
            paradox.cornfield(table, response, exposure, _parse_event(args.cornfield))
        )
    return verdict, detected, "\n\n".join(r.to_markdown() for r in reports)


def _cmd_decompose(args):
    from . import loglinear

    dec = loglinear.decompose(_probabilities(args))
    hier = loglinear.is_hierarchical(dec, tol=args.tol)
    verdict = dec.to_json_dict()
    verdict["hierarchical"] = hier.hierarchical
    verdict["hierarchy_violations"] = [
        {"superset": list(b), "vanished_subset": list(a)} for b, a in hier.violations
    ]
    return verdict, False, None


# the keys both collapse-check forms report; each form adds its own
_COLLAPSE_KEYS = ("target", "margin", "collapsible", "strict", "max_residual", "direct_gap", "tol")


def _cmd_collapse_check(args):
    from . import collapse

    # each form reads only its own subset flag; the other one would be ignored
    if args.strict and args.margin is not None:
        raise SchemeError("--margin is not read with --strict, which collapses over the complement")
    if not args.strict and args.given is not None:
        raise SchemeError("--given is read only with --strict")
    table = _probabilities(args)
    target = _subset_names(table.scheme, args.target)
    if args.strict:
        given = _subset_names(table.scheme, args.given) if args.given else ()
        collapsed = tuple(n for n in table.scheme.names if n not in set(target) | set(given))
        v = collapse.check_strict_collapsibility(table, target, given, collapsed, tol=args.tol)
        own = {
            "zero_set_max": v.zero_set_max,
            "interaction_zero_ok": v.strict,
            "ci_holds": v.ci.holds,
            "ci_max_deviation": v.ci.max_deviation,
        }
        detected = not v.strict
    else:
        if not args.margin:
            raise SchemeError("--margin is required without --strict")
        v = collapse.check_collapsibility(table, target, _parse_subset(args.margin), tol=args.tol)
        own = {
            "tau_full": v.tau_full.reshape(-1).tolist(),
            "eta_marginal": v.eta_marginal.reshape(-1).tolist(),
        }
        detected = not v.collapsible
    return {**{k: as_report(getattr(v, k)) for k in _COLLAPSE_KEYS}, **own}, detected, None


def _cmd_assoc_check(args):
    from . import assoc

    joint = assoc.FiniteJoint.from_json(_text(args.input))
    rep = assoc.detect_assoc_reversal(joint, args.relation, tol=args.tol)
    verdict = {
        "relation": args.relation,
        "holds_up": assoc.holds_relation(joint, args.relation, "up", tol=args.tol),
        "holds_down": assoc.holds_relation(joint, args.relation, "down", tol=args.tol),
        "reversal": as_report(rep),
        "linkage": as_report(assoc.double_linkage(joint, tol=args.tol)),
    }
    return verdict, rep.reversal, None


def _cmd_regress_audit(args):
    from . import regress

    if args.input.endswith(".csv"):
        summary = regress.summary_from_records(*read_records(args.input))
    else:
        summary = regress.StratifiedRegressionSummary.from_json(_text(args.input))
    if regress.is_parallel(summary):
        check = regress.check_parallel_collapsibility
    else:
        check = regress.check_a_collapsibility
    v = check(summary, tol=args.tol)
    # a parallel verdict's a_collapsible is its collapsible
    return dict(as_report(v), summary=as_report(summary)), not v.a_collapsible, None


def _cmd_dep_check(args):
    from . import depfun

    model = depfun.model_from_json(_text(args.input))
    v = depfun.check_avg_collapsibility(model, tol=args.tol)
    h = depfun.check_homogeneity(model, tol=args.tol)
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
    from . import survival

    spec = survival.SurvivalSpec.from_json(_text(args.input))
    v = survival.verify_numeric(spec) if args.numeric else survival.check_condition(spec)
    return v, v.condition, None


# -- parser --------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite positive float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, not {text!r}")
    return value


_SMOOTHING = ("--smoothing", dict(type=float, default=None, help="additive smoothing for zero count cells"))
_VARIABLES = ("--variables", dict(help="JSON file declaring variables and levels (CSV input)"))

VERBS = (
    ("ingest", _cmd_ingest, "cross-tabulate a CSV of observations", None, [_VARIABLES]),
    ("scan-paradox", _cmd_scan_paradox, "event-level reversal scan (exit 2 on reversal)", None, [
        _VARIABLES,
        ("--response", dict(required=True, metavar="VAR=LEVEL")),
        ("--exposure", dict(required=True, metavar="VAR=LEVEL")),
        ("--covariate", dict(help="restrict the scan to one covariate variable")),
        ("--cornfield", dict(
            metavar="VAR=LEVEL", help="also report effect-size diagnostics for this confounder event"
        )),
    ]),
    ("decompose", _cmd_decompose, "saturated log-linear interaction parameters", 1e-8, [_SMOOTHING]),
    ("collapse-check", _cmd_collapse_check, "collapsibility onto a margin (exit 2 when not collapsible)",
     1e-8, [
        ("--target", dict(required=True, help="comma-separated target variables")),
        ("--margin", dict(help="comma-separated margin variables (plain check)")),
        ("--strict", dict(action="store_true", help="strict collapsibility over the complement")),
        ("--given", dict(help="conditioning variables for --strict (may be empty)")),
        _SMOOTHING,
    ]),
    ("assoc-check", _cmd_assoc_check, "association relation and reversal report", 1e-9, [
        ("--relation", dict(choices=("r1", "r2", "r3", "r4"), default="r4")),
    ]),
    ("regress-audit", _cmd_regress_audit, "regression collapsibility audit", 1e-9, []),
    ("dep-check", _cmd_dep_check, "dependence-function average collapsibility", 1e-6, []),
    ("survival-check", _cmd_survival_check, "survival reversal condition (exit 2 when predicted)", None, [
        ("--numeric", dict(action="store_true", help="also verify on the probe grid")),
    ]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsekit",
        description="Simpson's paradox detection and collapsibility verdicts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn, about, tol, options in VERBS:
        p = sub.add_parser(verb, help=about)
        p.add_argument("input", help="input file (JSON; CSV where noted)")
        p.add_argument("--format", choices=("json", "md"), default="json", help="output format")
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, default=tol, help=f"decision tolerance (default {tol})")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
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
