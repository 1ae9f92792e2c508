"""Shared measurement loop, statistics and environment record.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  A workload hands the loop a list of
operations per cycle; the loop runs a fixed number of whole cycles, so the
operation count and the mix of operation kinds are the same on every run
and every commit.  Only the call itself is timed; the output check that
follows it is not.

Latency figures of a mix are combined per operation kind: each kind's
median or tail, weighted by the kind's share of the operations.  A median
or tail pooled over the whole mix would be one kind's order statistic,
decided by where that kind happens to rank, and would jump to another kind
when a change reorders them.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SETUP_REPEATS = 9  # fresh interpreters timed for setup_s, spread over the run
PINNED = {  # for the benchmark process and every interpreter it starts
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# operation kinds behind the verb metrics of the two CLI workloads
CLI_KINDS = {
    "ingest": ("ingest",),
    "records": ("regress-audit",),
    "decompose": ("decompose",),
    "collapse": ("collapse-check", "collapse-check --strict"),
}


class WrongOutput(Exception):
    """An operation returned, but its output failed the benchmark's check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


@dataclass
class Op:
    """One timed call plus the untimed check of what it returned.

    ``units`` is the work size the call handles, such as rows for an
    ingest, used for the rate metrics.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    units: float = 0.0


@dataclass
class Sample:
    kind: str
    seconds: float
    units: float
    traced: bool
    cycle: int


@dataclass
class Recorder:
    """Latency samples and failure counts of one run."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)

    def run(self, op: Op, cycle: int, traced: bool = False, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        try:
            t0 = time.perf_counter()
            result = op.call()
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failed call is counted, not fatal to the run
            self.failed += 1
            self.failures[f"{op.kind}: {type(exc).__name__}: {exc}"[:200]] += 1
            return
        finally:
            if tracer is not None:
                tracer.end_op()
        self.samples.append(Sample(op.kind, dt, op.units, traced, cycle))
        try:
            op.check(result)
        except Exception as exc:  # wrong output, or a check that could not run
            self.failed += 1
            self.failures[f"{op.kind}: wrong output: {type(exc).__name__}: {exc}"[:200]] += 1

    def seconds(self, kinds: tuple[str, ...] | None = None, traced: bool | None = False) -> list[float]:
        return [
            s.seconds
            for s in self.samples
            if (kinds is None or s.kind in kinds) and (traced is None or s.traced == traced)
        ]

    def rates(self, kinds: tuple[str, ...]) -> list[float]:
        """Units per second of the untraced calls of these kinds that carry a work size."""
        return [s.units / s.seconds for s in self.samples if s.kind in kinds and not s.traced and s.units]

    def by_kind(self, kinds: tuple[str, ...] | None = None, traced: bool = False) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.samples:
            if (kinds is None or s.kind in kinds) and s.traced == traced:
                out[s.kind].append(s.seconds)
        return dict(out)

    def mix(self, stat: Callable[[list[float]], float], kinds: tuple[str, ...] | None = None) -> float:
        """``stat`` of each kind's untraced latencies, weighted by the kind's share of them."""
        groups = self.by_kind(kinds)
        total = sum(len(v) for v in groups.values())
        if not total:
            raise ValueError("no samples")
        return sum(len(v) / total * stat(v) for v in groups.values())

    def pass_throughput(self, pass_cycles: int) -> float:
        """Median over passes of ``pass_cycles`` cycles of untraced operations per timed second.

        Every pass holds the same mix, so a pass slowed by a stall of the
        machine drops out instead of lowering the figure.
        """
        passes: dict[int, list[float]] = defaultdict(list)
        for s in self.samples:
            if not s.traced:
                passes[s.cycle // pass_cycles].append(s.seconds)
        return median([len(v) / sum(v) for v in passes.values()])


def run_cycles(
    recorder: Recorder,
    make_cycle: Callable[[int], list[Op]],
    cycles: range,
    before: Callable[[int], None],
    traced: bool = False,
    tracer=None,
) -> None:
    """Run the cycles; ``before`` gets the run's operation index ahead of each operation."""
    for c in cycles:
        for op in make_cycle(c):
            before(recorder.attempted)
            recorder.run(op, c, traced=traced, tracer=tracer)


def cycles_for(seconds: float, nominal_cycle_s: float, minimum: int, pass_cycles: int = 1) -> int:
    """Whole passes of cycles whose timed calls fill ``seconds`` at the nominal cycle time.

    The nominal time is the summed call latency of one cycle, measured at
    the commit that defined the benchmark, so the operation count of a run
    depends on --seconds only.
    """
    passes = max(-(-minimum // pass_cycles), round(seconds / (nominal_cycle_s * pass_cycles)))
    return passes * pass_cycles


# -- statistics ----------------------------------------------------------------


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float]:
    """A kind's tail: (value, percentile) of the sample with a tenth of them above it.

    That is its 90th percentile by rank, with at least one sample above it
    unless the kind has two samples or fewer.  A kind sampled 100 times or
    more has at least 10 samples above it.  The rank is not pushed higher:
    at the 97.5th percentile of a desk-size call, the stalls of a shared
    machine decide the value (on 2 vCPUs, ingest_csv read 9.8 to 17.4 ms
    there over three runs, and 9.3 to 10.7 ms at p90).
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n // 2 + 1, n - math.ceil(n / 10))  # never below the median
    return ordered[k - 1], 100.0 * k / n


def tail_value(values: list[float]) -> float:
    return tail(values)[0]


# -- environment -----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def l3_bytes() -> int | None:
    text = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    units = {"K": 1024, "M": 1024 * 1024}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def child_env() -> dict:
    """Environment for CLI subprocesses: the pinned variables plus PYTHONPATH=src."""
    return {**os.environ, **PINNED, "PYTHONPATH": "src"}


def setup_plan(operations: int) -> Counter:
    """How many fresh imports to time before each operation index of the run.

    The machine's speed drifts over seconds, so the imports are spread over
    the run like the operations rather than timed back to back.
    """
    return Counter(i * operations // SETUP_REPEATS for i in range(SETUP_REPEATS))


def fresh_import_seconds(repeats: int) -> list[float]:
    """Time ``import collapsekit.cli`` inside fresh interpreters."""
    code = (
        "import time; t0 = time.perf_counter(); import collapsekit.cli; "
        "print(repr(time.perf_counter() - t0))"
    )
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}
