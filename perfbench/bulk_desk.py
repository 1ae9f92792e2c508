"""bulk-desk: large generated inputs through the CLI ``main`` in-process.

The kernels that grow with input dominate here and are invisible in the
other workloads: CSV cross-tabulation, per-stratum record moments, the
3^n subset-lattice walk, and emitting a report of 10^5 floats.  Inputs are
1e5 rows: at 2e5, five cycles took up to 50 s on a busy 2-vCPU machine,
too long for the number of runs a check makes; the ROADMAP's 1e6-row and
12-variable sizes take 10 s or more per operation.
"""

from __future__ import annotations

import contextlib
import io
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import inputs
import oracles
from harness import CLI_KINDS, Op, expect
from tracing import Tracer, probe_metrics

from collapsekit import cli

PLAIN = ("--target", "v0,v1", "--margin", "v0,v1,v2,v3,v4")
STRICT = ("--strict", "--target", "v0", "--given", "v1,v2")
VERBS = ("ingest", "regress-audit", "decompose", "collapse-check")


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class BulkDesk:
    name = "bulk-desk"
    nominal_cycle_s = 4.2
    # at least 8 samples of each of the 5 operation kinds: one ingest call
    # read 0.9 to 1.7 s within a minute on a shared 2-vCPU machine, and with
    # 5 cycles ingest_rows_per_s had an IQR/median of 0.34 over ten seeds
    min_cycles = 8
    pass_cycles = 1
    children_rss = False
    kinds = CLI_KINDS

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.obs = inputs.bulk_observations(rng, work / "observations.csv")
        rec = inputs.records(rng, inputs.BULK_ROWS, inputs.BULK_STRATA)
        self.rec = inputs.write_records(work / "records.csv", rec)
        self.table_path = work / "table.json"
        self.table = inputs.bulk_table(rng, self.table_path)
        self.tracer: Tracer | None = None
        paths = (self.obs.path, self.rec.path, self.table_path)
        self.input_bytes = sum(p.stat().st_size for p in paths)
        self.sizes = (
            f"{inputs.BULK_ROWS} observations x 5 columns, {inputs.BULK_ROWS} records over "
            f"{inputs.BULK_STRATA} strata, a {len(inputs.BULK_SHAPE)}-variable table of "
            f"{self.table.scheme.ncells} cells"
        )

    # -- operations ------------------------------------------------------------

    def _op(self, verb: str, argv: list[str], check, units: float = 0.0, kind: str | None = None) -> Op:
        def call():
            if self.tracer is None:
                return run_main(argv)
            return self.tracer.span(f"cli.{verb}", lambda: run_main(argv))

        def verify(result):
            code, text = result
            if self.tracer is not None:
                self.tracer.count("cli.emit.bytes", len(text.encode()))
            check(code, json.loads(text))

        return Op(kind or verb, call, verify, units)

    def _check_ingest(self, code: int, report: dict) -> None:
        expect(code == 0, f"exit code {code}")
        v = report["verdict"]
        names = [var["name"] for var in v["variables"]]
        levels = [var["levels"] for var in v["variables"]]
        oracles.check_crosstab(names, levels, v["cells"], self.obs)

    def _check_records(self, code: int, report: dict) -> None:
        v = report["verdict"]
        expect(v["mode"] == "average", "strata slopes differ, so the audit is an average one")
        expect(code == (0 if v["a_collapsible"] else 2), f"exit code {code}")
        oracles.check_moments(v["summary"]["levels"], self.rec)

    def _check_decompose(self, code: int, report: dict) -> None:
        expect(code == 0, f"exit code {code}")
        names = self.table.scheme.names
        subsets = [
            (tuple(names.index(n) for n in entry["vars"]), entry["tau"]) for entry in report["verdict"]["subsets"]
        ]
        expect(len(subsets) == 2 ** len(names), "one entry per subset")
        oracles.check_roundtrip(subsets, self.table.scheme.shape, np.log(self.table.cells))

    def _check_plain(self, code: int, report: dict) -> None:
        v = report["verdict"]
        expect(code == (0 if v["collapsible"] else 2), f"exit code {code}")
        oracles.check_collapse(v["direct_gap"], v["collapsible"], v["tol"], self.table.cells, (0, 1), (0, 1, 2, 3, 4))

    def _check_strict(self, code: int, report: dict) -> None:
        v = report["verdict"]
        expect(code == (0 if v["strict"] else 2), f"exit code {code}")
        n = self.table.scheme.n
        oracles.check_strict(v["strict"], v["ci_max_deviation"], self.table.cells, (0,), (1, 2), tuple(range(3, n)))

    def cycle(self, c: int) -> list[Op]:
        table = str(self.table_path)
        return [
            self._op("ingest", ["ingest", str(self.obs.path)], self._check_ingest, inputs.BULK_ROWS),
            self._op("regress-audit", ["regress-audit", str(self.rec.path)], self._check_records, inputs.BULK_ROWS),
            self._op("decompose", ["decompose", table], self._check_decompose),
            self._op("collapse-check", ["collapse-check", *PLAIN, table], self._check_plain),
            self._op("collapse-check", ["collapse-check", *STRICT, table], self._check_strict,
                     kind="collapse-check --strict"),
        ]

    def warm_up(self) -> None:
        self.cycle(0)[0].call()  # the ingest grows the heap that later calls reuse

    @contextmanager
    def tracing(self, tracer: Tracer):
        self.tracer = tracer
        try:
            with tracer.installed():
                yield
        finally:
            self.tracer = None

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        out = probe_metrics(tracer)
        children = tracer.child_seconds()
        other = {verb: 0.0 for verb in VERBS}
        by_verb: dict[str, list[float]] = {verb: [] for verb in VERBS}
        for i, (name, start, end, _, _) in enumerate(tracer.spans):
            verb = name[len("cli."):]
            if name.startswith("cli.") and verb in other:
                other[verb] += (end - start) - children.get(i, 0.0)
                by_verb[verb].append(end - start)
        for verb in VERBS:
            out[f"cli.{verb}.other_s"] = (other[verb], "s")
            if by_verb[verb]:
                out[f"cli.{verb}.p50_ms"] = (float(np.median(by_verb[verb])) * 1e3, "ms")
        return out
