"""library-sweep: seeded desk-size inputs through every verdict family.

One import, then one call per operation on inputs drawn from seeded
pools.  Import is excluded; per-call overhead and scipy quadrature
(depfun, survival) dominate, and the lattice sees only tables of 3 to 5
variables.  A lattice rewrite should therefore barely move this workload,
while a quadrature change should.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import inputs
import oracles
from harness import Op, expect
from tracing import Tracer, probe_metrics

from collapsekit import assoc, cli, collapse, depfun, loglinear, paradox, regress, survival

# distinct inputs per family; cycle c uses entry c % POOL, so a pass of POOL
# cycles holds every input once.  verify_numeric, about a hundred times
# slower than the other calls, runs once per pass: in every cycle it would
# fill most of the timed time and leave the other families few samples.
POOL = 16
RESPONSE, EXPOSURE = ("A", "Y"), ("X", "M")
RELATIONS = ("r1", "r2", "r3", "r4")


class LibrarySweep:
    name = "library-sweep"
    nominal_cycle_s = 0.035
    min_cycles = 20
    pass_cycles = POOL
    children_rss = False
    kinds = {
        "ingest": ("cli.ingest_csv",),
        "records": ("regress.summary_from_records",),
        "decompose": ("loglinear.decompose",),
        "collapse": ("collapse.check_collapsibility", "collapse.check_strict_collapsibility"),
    }

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])  # values
        self.counts, self.observations, self.records, self.tables, self.ci_tables = [], [], [], [], []
        self.margins, self.partitions, self.subsets, self.joints, self.relations = [], [], [], [], []
        self.parallel, self.average, self.gauss, self.specs = [], [], [], []
        for i in range(POOL):
            # sizes, shapes and subsets depend on the pool slot only, so every
            # seed does the same work; the seed draws the values
            shape_rng = np.random.default_rng([i, 2])
            n = 3 + i % 3
            shape = tuple(2 + (i + j) % 2 for j in range(n))
            counts = inputs.count_table(rng, k=2 + i % 5)
            self.counts.append(counts)
            self.observations.append(inputs.observations_of(counts, rng, work / f"obs{i}.csv"))
            self.records.append(inputs.records(rng, inputs.DESK_ROWS, strata=2 + i % 4))
            self.tables.append(inputs.positive_table(rng, shape))
            self.ci_tables.append(inputs.ci_table(rng, (2 + i % 2, 2 + (i // 2) % 2, 2 + (i // 4) % 2)))
            b = inputs.random_subset(shape_rng, range(n), 1, n)
            self.margins.append((inputs.random_subset(shape_rng, b, 1, len(b) + 1), b))
            order = [int(v) for v in shape_rng.permutation(n)]
            cut = sorted(int(v) for v in shape_rng.choice(np.arange(1, n), 2, replace=False))
            parts = order[: cut[0]], order[cut[0] : cut[1]], order[cut[1] :]
            self.partitions.append(tuple(tuple(sorted(p)) for p in parts))
            self.subsets.append(inputs.random_subset(shape_rng, range(n), 0, n + 1))
            self.joints.append(inputs.finite_joint(rng, (2 + i % 3, 2 + (i // 3) % 3, 2 + (i // 9) % 2)))
            self.relations.append((RELATIONS[i % 4], ("up", "down")[(i // 4) % 2]))
            self.parallel.append(inputs.regression_summary(rng, 2 + i % 4, parallel=True))
            self.average.append(inputs.regression_summary(rng, 2 + i % 4, parallel=False))
            self.gauss.append(inputs.gaussian_model(rng, independent=i % 2 == 0))
            self.specs.append(inputs.survival_spec(rng, reversal=i % 2 == 0))
        self.gauss_grids = [inputs.dep_grid(rng, positive_y=False) for _ in range(POOL)]
        self.uniform = depfun.UniformQuadratic()
        self.uniform_grids = [inputs.dep_grid(rng, positive_y=True) for _ in range(POOL)]
        self.w_probes = [tuple(sorted(float(w) for w in rng.uniform(-2.0, 2.0, 4))) for _ in range(POOL)]
        self.sizes = (
            f"{POOL} inputs per family; tables of 3 to 5 variables; {inputs.DESK_ROWS}-row "
            f"observation CSVs and record sets"
        )
        self.input_bytes = sum(o.path.stat().st_size for o in self.observations)

    def cycle(self, c: int) -> list[Op]:
        i = c % POOL
        counts, obs, rec = self.counts[i], self.observations[i], self.records[i]
        table, subset, ci_table = self.tables[i], self.subsets[i], self.ci_tables[i]
        (target, margin), (a, g, col) = self.margins[i], self.partitions[i]
        joint, (rel, direction) = self.joints[i], self.relations[i]
        gauss, spec = self.gauss[i], self.specs[i]
        cells = table.cells
        y, x, lab = rec.y.tolist(), rec.x.tolist(), [rec.labels[k] for k in rec.a]

        def check_scan(scans):
            expect(len(scans) == 1 and scans[0].report is not None, "one candidate covariate")
            oracles.check_reversal(scans[0].report, counts.cells)

        def check_decompose(dec):
            oracles.check_roundtrip(
                [(axes, dec.tau(axes).reshape(-1)) for axes in dec.subsets()], cells.shape, np.log(cells)
            )

        def check_interaction(arr):
            expect(np.max(np.abs(arr - oracles.tau(np.log(cells), subset))) <= 1e-9, "interaction array")

        def check_ci_strict(v):
            oracles.check_strict(v.strict, v.ci.max_deviation, ci_table.cells, (0,), (1,), (2,))

        uniform_grid, probes = self.uniform_grids[i], self.w_probes[i]
        ops = [
            Op("paradox.detect_reversal", lambda: paradox.detect_reversal(counts, RESPONSE, EXPOSURE, "D"),
               lambda r: oracles.check_reversal(r, counts.cells)),
            Op("paradox.scan_strata", lambda: paradox.scan_strata(counts, RESPONSE, EXPOSURE), check_scan),
            Op("paradox.cornfield", lambda: paradox.cornfield(counts, RESPONSE, EXPOSURE, ("D", "d0")),
               lambda r: oracles.check_cornfield(r, counts.cells)),
            Op("tables.normalize", lambda: counts.normalize(smoothing=0.5),
               lambda t: oracles.check_normalize(t.cells, counts.cells, 0.5)),
            Op("cli.ingest_csv", lambda: cli.ingest_csv(str(obs.path)),
               lambda t: oracles.check_crosstab(t.scheme.names, [lv for _, lv in t.scheme.variables], t.cells, obs),
               units=obs.codes.shape[0]),
            Op("regress.summary_from_records", lambda: regress.summary_from_records(y, x, lab),
               lambda s: oracles.check_moments(oracles.summary_levels(s), rec), units=len(y)),
            Op("loglinear.decompose", lambda: loglinear.decompose(table), check_decompose),
            Op("loglinear.interaction", lambda: loglinear.interaction(table, subset), check_interaction),
            Op("collapse.check_collapsibility", lambda: collapse.check_collapsibility(table, target, margin),
               lambda v: oracles.check_collapse(v.direct_gap, v.collapsible, v.tol, cells, target, margin)),
            Op("collapse.check_strict_collapsibility", lambda: collapse.check_strict_collapsibility(table, a, g, col),
               lambda v: oracles.check_strict(v.strict, v.ci.max_deviation, cells, a, g, col)),
            Op("collapse.check_strict_collapsibility",
               lambda: collapse.check_strict_collapsibility(ci_table, (0,), (1,), (2,)), check_ci_strict),
            Op("assoc.holds_relation", lambda: assoc.holds_relation(joint, rel, direction),
               lambda r: oracles.check_holds(r, joint, rel, direction, assoc.DEFAULT_TOL)),
            Op("assoc.detect_assoc_reversal", lambda: assoc.detect_assoc_reversal(joint, rel),
               lambda r: oracles.check_assoc_reversal(r, joint, rel, assoc.DEFAULT_TOL)),
            Op("assoc.double_linkage", lambda: assoc.double_linkage(joint), lambda r: oracles.check_linkage(r, joint)),
            Op("regress.check_parallel_collapsibility",
               lambda: regress.check_parallel_collapsibility(self.parallel[i]),
               lambda v: oracles.check_regress(v, self.parallel[i])),
            Op("regress.check_a_collapsibility", lambda: regress.check_a_collapsibility(self.average[i]),
               lambda v: oracles.check_regress(v, self.average[i])),
            Op("depfun.check_avg_collapsibility",
               lambda: depfun.check_avg_collapsibility(gauss, grid=self.gauss_grids[i]),
               lambda v: oracles.check_gaussian_avg(v, gauss)),
            Op("depfun.check_avg_collapsibility",
               lambda: depfun.check_avg_collapsibility(self.uniform, grid=uniform_grid), oracles.check_avg_consistent),
            Op("depfun.check_homogeneity", lambda: depfun.check_homogeneity(gauss, grid=self.gauss_grids[i], w_probes=probes),
               lambda v: oracles.check_homogeneity(v, gauss, self.gauss_grids[i], probes)),
            Op("depfun.check_homogeneity", lambda: depfun.check_homogeneity(self.uniform, grid=uniform_grid, w_probes=probes),
               lambda v: oracles.check_homogeneity(v, self.uniform, uniform_grid, probes)),
            Op("survival.check_condition", lambda: survival.check_condition(spec),
               lambda v: oracles.check_condition(v, spec)),
        ]
        if i == 0:
            numeric = self.specs[(c // POOL) % POOL]
            ops.append(Op("survival.verify_numeric", lambda: survival.verify_numeric(numeric),
                          lambda v: oracles.check_numeric(v, numeric)))
        return ops

    def warm_up(self) -> None:
        for op in self.cycle(0):  # one call of each kind
            op.call()

    def tracing(self, tracer: Tracer):
        return tracer.installed()

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        return probe_metrics(tracer)
