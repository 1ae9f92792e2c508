"""Outside-in tracing: spans recorded by the benchmark around public calls.

The program carries no tracing of its own.  In a traced run the benchmark
swaps each public function listed in PROBES for a wrapper that records a
span (name, start, end, parent, op id) and re-installs the original when
the traced phase ends.  A wrapper is installed wherever the package binds
the function, so calls between modules (``collapse`` calling
``decompose``) are caught too.  ``cli.dumps_report`` recurses through its
own module-level name, so its wrapper puts the original back for the
length of the outermost call: nested values are neither timed nor slowed.

Spans stay in memory and are written out as JSON lines when the run ends.
The processes are single-threaded and nothing queues, so no layer has a
waiting time to report.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import re
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

# (module, attribute path) of every probed public call; the span is named
# "<module>.<function>"
PROBES = (
    ("cli", "ingest_csv"),
    ("cli", "dumps_report"),
    ("tables", "ContingencyTable.from_json"),
    ("tables", "ContingencyTable.normalize"),
    ("tables", "ContingencyTable.marginalize"),
    ("tables", "ContingencyTable.check_ci"),
    ("loglinear", "decompose"),
    ("loglinear", "interaction"),
    ("loglinear", "is_hierarchical"),
    ("loglinear", "InteractionDecomposition.to_json_dict"),
    ("collapse", "check_collapsibility"),
    ("collapse", "check_strict_collapsibility"),
    ("paradox", "detect_reversal"),
    ("paradox", "scan_strata"),
    ("paradox", "cornfield"),
    ("assoc", "holds_relation"),
    ("assoc", "detect_assoc_reversal"),
    ("assoc", "double_linkage"),
    ("regress", "check_parallel_collapsibility"),
    ("regress", "check_a_collapsibility"),
    ("regress", "summary_from_records"),
    ("depfun", "check_avg_collapsibility"),
    ("depfun", "check_homogeneity"),
    ("survival", "check_condition"),
    ("survival", "verify_numeric"),
)
RECURSIVE = {"cli.dumps_report"}  # call themselves through their module-level name
MODULES = ("cli", "tables", "loglinear", "collapse", "paradox", "assoc", "regress", "depfun", "survival")


def _count_decompose(tracer: "Tracer", args, result) -> None:
    # computed from the input shape, not measured: the saturated model holds
    # prod(m_a + 1) interaction floats; reading the cells once and writing
    # those floats once is the least memory traffic any algorithm can have
    shape = args[0].scheme.shape
    floats = math.prod(m + 1 for m in shape)
    tracer.count("loglinear.decompose.out_floats", floats)
    tracer.count("loglinear.decompose.bytes_computed", 8 * (floats + math.prod(shape)))


def _count_ingest(tracer: "Tracer", args, result) -> None:
    tracer.count("cli.ingest_csv.rows", result.total)


def _count_records(tracer: "Tracer", args, result) -> None:
    tracer.count("regress.summary_from_records.rows", len(args[0]))
    tracer.count("regress.summary_from_records.strata", len(result.strata))


def _count_dep(tracer: "Tracer", args, result) -> None:
    tracer.count("depfun.avg_verdicts", 1)
    tracer.count("depfun.quad_fallbacks", 0 if result.quadrature_ok else 1)


def span_name(module_name: str, attr: str) -> str:
    return f"{module_name}.{attr.split('.')[-1]}"


COUNTERS: dict[str, Callable] = {
    "loglinear.decompose": _count_decompose,
    "cli.ingest_csv": _count_ingest,
    "regress.summary_from_records": _count_records,
    "depfun.check_avg_collapsibility": _count_dep,
}


class Tracer:
    """In-memory span store with probes on the package's public calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.error_kinds: Counter = Counter()  # (module, exception kind) -> n
        self._stack: list[int] = []
        self._op = 0
        self._undo: list[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1

    def end_op(self) -> None:
        self._stack.clear()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        if self._stack and self._stack[-1] == sid:
            self._stack.pop()

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        sid = self.open(name)
        try:
            return fn()
        finally:
            self.close(sid)

    def count(self, key: str, n: float) -> None:
        self.counts[key] += n

    def error(self, name: str, kind: str) -> None:
        self.error_kinds[(name.split(".", 1)[0], kind)] += 1

    # -- probes ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, home=None) -> Callable:
        """Span-recording wrapper; ``home`` is the module a recursive ``fn`` calls itself through."""
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if home is not None:
                setattr(home, fn.__name__, fn)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count a failure once, in the innermost probe it left; the
                # enclosing probes see the same exception object go past
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.error(name, type(exc).__name__)
                    exc._perfbench_counted = True
                raise
            finally:
                tracer.close(sid)
                if home is not None:
                    setattr(home, fn.__name__, probe)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return probe

    @contextmanager
    def installed(self):
        """Swap every probed call for its span-recording wrapper, then restore it."""
        self._install()
        try:
            yield
        finally:
            while self._undo:
                self._undo.pop()()

    def _install(self) -> None:
        package = importlib.import_module("collapsekit")
        modules = [package] + [importlib.import_module(f"collapsekit.{m}") for m in MODULES]
        for module_name, attr in PROBES:
            owner = importlib.import_module(f"collapsekit.{module_name}")
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(cls, meth, wrapped)
                self._undo.append(functools.partial(setattr, cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, owner if name in RECURSIVE else None)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append(functools.partial(setattr, mod, key, original))

    # -- aggregation -----------------------------------------------------------

    def busy(self) -> dict[str, tuple[int, float]]:
        """Calls and inclusive busy seconds per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def child_seconds(self) -> dict[int, float]:
        """Summed duration of each span's direct children, by span index."""
        out: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] += end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )


def probe_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of every probed call, zero where the workload made none."""
    busy = tracer.busy()
    out: dict[str, tuple[float, str]] = {}
    for module_name, attr in PROBES:
        name = span_name(module_name, attr)
        calls, seconds = busy.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (seconds, "s")
    for key in (
        "cli.emit.bytes",
        "cli.ingest_csv.rows",
        "regress.summary_from_records.rows",
        "regress.summary_from_records.strata",
        "loglinear.decompose.out_floats",
        "loglinear.decompose.bytes_computed",
    ):
        out[key] = (tracer.counts[key], "count")
    verdicts = tracer.counts["depfun.avg_verdicts"]
    ratio = tracer.counts["depfun.quad_fallbacks"] / verdicts if verdicts else 0.0
    out["depfun.quad_fallback_ratio"] = (ratio, "ratio")
    per_module = Counter()
    for (module, _), n in tracer.error_kinds.items():
        per_module[module] += n
    for module in MODULES:
        out[f"{module}.errors"] = (per_module[module], "count")
    out["collapse.route_disagreements"] = (tracer.error_kinds[("collapse", "RouteDisagreementError")], "count")
    return out


# -- python -X importtime ------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> list[tuple[int, str, int, list]]:
    """Import tree from ``-X importtime`` output: (depth, module, cumulative us, children)."""
    pending: dict[int, list] = defaultdict(list)
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3)) // 2
        node = (depth, m.group(4), int(m.group(2)), pending.pop(depth + 1, []))
        pending[depth].append(node)
    return [node for depth in sorted(pending) for node in pending[depth]]


def import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative import ms of collapsekit, scipy and numpy, and the module count.

    A package's time is the cumulative time of its outermost entries, so
    scipy imported from inside collapsekit counts in both.
    """
    roots = parse_importtime(stderr)

    def total(nodes, pkg: str) -> int:
        out = 0
        for _, name, cum, children in nodes:
            if name == pkg or name.startswith(pkg + "."):
                out += cum
            else:
                out += total(children, pkg)
        return out

    def size(nodes) -> int:
        return sum(1 + size(children) for _, _, _, children in nodes)

    return {
        "import.collapsekit_ms": total(roots, "collapsekit") / 1000.0,
        "import.scipy_ms": total(roots, "scipy") / 1000.0,
        "import.numpy_ms": total(roots, "numpy") / 1000.0,
        "import.modules": float(size(roots)),
    }
