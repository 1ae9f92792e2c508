"""cli-desk: ``python -m collapsekit.cli <verb>`` as a user runs it.

One subprocess per operation, one after another, over every case of the
golden corpus: all 8 verbs in both formats plus ``--version``.  Process
start and import dominate and compute is negligible, so lazy-import and
CLI changes show here and almost nowhere else.  The subprocess is started
with PYTHONPATH=src because the console script is not installed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import golden
from harness import CLI_KINDS, Op, child_env, expect
from tracing import Tracer, import_breakdown, probe_metrics

VERBS = (
    "ingest", "scan-paradox", "decompose", "collapse-check",
    "assoc-check", "regress-audit", "dep-check", "survival-check", "version",
)
IMPORT_KEYS = ("import.collapsekit_ms", "import.scipy_ms", "import.numpy_ms", "import.modules")


class CliDesk:
    name = "cli-desk"
    nominal_cycle_s = 21.0
    # two samples of each case, four or more of each verb: with one cycle,
    # decompose_p50_ms (then the mean of two calls) had an IQR/median of
    # 0.37 over ten seeds on a shared 2-vCPU machine
    min_cycles = 2
    pass_cycles = 1
    children_rss = True
    kinds = CLI_KINDS  # the strict collapse-check case counts as plain collapse-check here

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.seed = seed
        self.expected = json.loads((root / golden.CORPUS / "expected.json").read_text())
        expect(set(self.expected) == set(golden.CASES), "expected.json covers every corpus case")
        self.env = child_env()
        self.tracer: Tracer | None = None
        self.imports: list[dict[str, float]] = []
        self.input_bytes = sum(p.stat().st_size for p in (root / golden.CORPUS).iterdir())
        self.sizes = f"{len(golden.CASES)} corpus cases on textbook inputs"

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        flags = ("-X", "importtime") if self.tracer is not None else ()
        return subprocess.run(golden.cli_command(argv, *flags), env=self.env, capture_output=True, timeout=120)

    def _op(self, case: str) -> Op:
        verb = golden.verb_of(case)
        argv = golden.CASES[case]
        want = self.expected[case]

        def call():
            if self.tracer is None:
                return self._run(argv)
            return self.tracer.span(f"cli.{verb}", lambda: self._run(argv))

        def check(proc):
            if self.tracer is not None:
                self.imports.append(import_breakdown(proc.stderr.decode()))
                self.tracer.count("cli.emit.bytes", len(proc.stdout))
                if proc.returncode == 1:
                    self.tracer.error("cli", json.loads(proc.stdout)["error"]["kind"])
            expect(proc.returncode == want["exit"], f"{case}: exit {proc.returncode}, expected {want['exit']}")
            digest = hashlib.sha256(proc.stdout).hexdigest()
            expect(digest == want["stdout_sha256"], f"{case}: stdout differs from the golden corpus")

        units = 0
        if verb == "ingest":
            units = golden.INGEST_ROWS
        elif argv[-1].endswith("records.csv"):
            units = golden.RECORDS_ROWS
        return Op(verb, call, check, units)

    def cycle(self, c: int) -> list[Op]:
        order = np.random.default_rng([self.seed, 1, c]).permutation(sorted(golden.CASES))
        return [self._op(str(case)) for case in order]

    def warm_up(self) -> None:
        # one call warms the .pyc files and the page cache; every call is a
        # fresh process, so there is nothing else to warm
        self._op("decompose").call()

    @contextmanager
    def tracing(self, tracer: Tracer):
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        out = probe_metrics(tracer)
        durations: dict[str, list[float]] = {v: [] for v in VERBS}
        for name, start, end, _, _ in tracer.spans:
            durations[name[len("cli."):]].append(end - start)
        for verb, values in durations.items():
            out[f"cli.{verb}.p50_ms"] = (float(np.median(values)) * 1e3 if values else 0.0, "ms")
        for key in IMPORT_KEYS:
            out[key] = (float(np.median([d[key] for d in self.imports])), "count" if key == "import.modules" else "ms")
        return out
