"""collapsekit benchmark: one command per workload, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload cli-desk --seed 1 --seconds 12 --trace 0

Workloads (closed loops, one client, one process, no extra threads):

  cli-desk       ``python -m collapsekit.cli`` subprocesses over the golden corpus
  library-sweep  seeded desk-size inputs through every verdict family, in-process
  bulk-desk      large seeded inputs through ``collapsekit.cli.main``, in-process

``--trace 0`` measures untraced and reports the end-to-end metrics listed in
BENCHMARK.json.  ``--trace 1`` runs a third of the cycles untraced and then
all of them traced, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced median latency).  Every operation's
output is checked; a failed call or a wrong output counts in ``failed``.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Generated inputs live in ``.bench_work/`` for the
length of the run; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from harness import (
    PINNED, Recorder, cycles_for, environment, fresh_import_seconds, median, metric, peak_rss_mb, run_cycles,
    setup_plan, tail, tail_value,
)
from tracing import Tracer

WORK = ".bench_work"


def pin_environment() -> None:
    """Re-execute once with the thread counts and hash seed pinned."""
    if all(os.environ.get(k) == v for k, v in PINNED.items()):
        return
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("cli-desk", "library-sweep", "bulk-desk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="nominal measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_workload(name: str):
    if name == "cli-desk":
        from cli_desk import CliDesk as cls
    elif name == "library-sweep":
        from library_sweep import LibrarySweep as cls
    else:
        from bulk_desk import BulkDesk as cls
    return cls


def end_to_end(wl, rec, setup: list[float]) -> dict[str, float]:
    """Latencies are per-kind medians and tails weighted by the mix (see harness)."""
    return {
        "setup_s": median(setup),
        "op_p50_ms": rec.mix(median) * 1e3,
        "op_tail_ms": rec.mix(tail_value) * 1e3,
        "ops_per_s": rec.pass_throughput(wl.pass_cycles),
        "peak_rss_mb": peak_rss_mb(wl.children_rss),
        "ingest_rows_per_s": median(rec.rates(wl.kinds["ingest"])),
        "records_rows_per_s": median(rec.rates(wl.kinds["records"])),
        "decompose_p50_ms": rec.mix(median, wl.kinds["decompose"]) * 1e3,
        "collapse_p50_ms": rec.mix(median, wl.kinds["collapse"]) * 1e3,
    }


def trace_overhead_ms(rec) -> float:
    kinds = sorted({s.kind for s in rec.samples})
    return median(
        [(median(rec.seconds((k,), traced=True)) - median(rec.seconds((k,)))) * 1e3 for k in kinds]
    )


def describe(args, env: dict, wl, rec, cycles: int, wall: float) -> list[str]:
    l3 = env["l3_bytes"]
    pcts = sorted({tail(v)[1] for v in rec.by_kind().values()})
    return [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "environment: nproc={nproc} cpu={cpu!r} L3={l3} python={python} numpy={numpy} scipy={scipy} "
        "threads={threads} PYTHONHASHSEED={PYTHONHASHSEED}".format(
            **{**env, "l3": f"{l3 / 2**20:.0f} MiB" if l3 else "unknown"}
        ),
        f"loop: closed, 1 client, {rec.attempted} operations in {cycles} cycles; "
        f"{sum(rec.seconds(traced=None)):.1f} s in timed calls, {wall:.1f} s elapsed with checks and set-up",
        f"inputs: {wl.sizes}; {wl.input_bytes / 2**20:.2f} MiB of input files"
        + (f" against a {l3 / 2**20:.0f} MiB L3" if l3 else ""),
        f"op_p50_ms and op_tail_ms weight each of {len(rec.by_kind())} operation kinds' median and tail by "
        f"its share of the {len(rec.seconds())} untraced operations; a kind's tail is its p90 by rank, never "
        f"below its median, here p{pcts[0]:.1f} to p{pcts[-1]:.1f}",
        f"ops_per_s is the median over {len({s.cycle // wl.pass_cycles for s in rec.samples if not s.traced})} "
        f"passes of {wl.pass_cycles} cycle(s) of operations per timed second",
        f"error_rate {rec.failed / rec.attempted:g} ({rec.failed} failed or wrong of {rec.attempted} attempted)",
    ]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "collapsekit" / "__init__.py").is_file():
        print("perfbench: src/collapsekit not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))

    import collapsekit

    if not Path(collapsekit.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: imported collapsekit from {collapsekit.__file__}, not src/", file=sys.stderr)
        return 2

    env = environment()
    work = root / WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = load_workload(args.workload)(root, work, args.seed % 2**63)
        wl.warm_up()
        cycles = cycles_for(args.seconds, wl.nominal_cycle_s, wl.min_cycles, wl.pass_cycles)
        # a traced run adds an untraced third in front, to measure the tracing overhead against
        plain = max(1, cycles // 3) if args.trace else cycles
        total = plain + cycles if args.trace else cycles
        plan, setup = setup_plan(sum(len(wl.cycle(c)) for c in range(total))), []

        def before(op_index: int) -> None:
            setup.extend(fresh_import_seconds(plan[op_index]))

        rec = Recorder()
        t0 = time.perf_counter()
        run_cycles(rec, wl.cycle, range(plain), before)
        if args.trace:
            tracer = Tracer()
            with wl.tracing(tracer):
                run_cycles(rec, wl.cycle, range(plain, total), before, traced=True, tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = describe(args, env, wl, rec, total, wall)
    if args.trace:
        spans_path = root / WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        layer = wl.layer_metrics(tracer)
        overhead = trace_overhead_ms(rec)
        layer["trace.overhead_ms"] = (overhead, "ms")
        lines.append(
            f"tracing overhead: {overhead:+.4f} ms per operation, the median over operation kinds of "
            f"traced minus untraced median latency; {len(tracer.spans)} spans in {spans_path.relative_to(root)}"
        )
        lines.append("waiting time: none to report; one thread, one client, no queue")
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], (0.0, m["unit"]))[0] for m in wanted}
        absent = [m["name"] for m in wanted if m["name"] not in layer]
        if absent:
            lines.append(f"not on this workload's path, reported as 0: {', '.join(absent)}")
        for (module, kind), n in sorted(tracer.error_kinds.items()):
            lines.append(f"errors: {module} {kind} x{n}")
        lines.append("counts (work done, not speed): " + ", ".join(
            f"{k}={layer[k][0]:g}" for k in sorted(layer) if layer[k][1] == "count" and layer[k][0]
        ) + "; out_floats and bytes_computed are computed from input shapes")
    else:
        wanted = spec["end_to_end"]
        e2e = end_to_end(wl, rec, setup)
        values = {m["name"]: e2e[m["name"]] for m in wanted}
    for m in wanted:
        lines.append(f"{m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    for failure, n in rec.failures.most_common(5):
        lines.append(f"FAILED x{n}: {failure}")
    print("\n".join(lines))
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: metric(float(values[m["name"]]), m["unit"]) for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
