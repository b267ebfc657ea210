"""``solve``: the Table I pass, in process, compute only.

Each round draws four pairs of instances (30 and 60 tasks) from the run
seed and the round index and solves them through
``get_backend(alg).run`` with no store and no pool: PA and IS-1 on all
four pairs, PA-R (fixed ``iterations``) and IS-5 (fixed
``node_limit``) on two, plus one store-less ``run_sweep`` over a small
fabric-scale x algorithm grid.  The cheap classes run on more
instances because a single instance's solve time varies by 20-35%
between seeds; every class has the same count in every round.  The
grid stops at scale 1.0: at 1.25, PA's floorplanning took about a
second on one instance in four (against 15-40 ms otherwise), and
whether a round drew such an instance decided its sweep time.
Instance generation and validation sit outside the timed part.

The primary class is PA on a 60-task instance, the secondary IS-1 on
a 60-task instance: the paper's algorithm and its baseline.  Each op is
timed on its own and scaled by the speed measured around its group;
``round_s`` covers every class and the sweep.  IS-5 is not a latency
class of its own: only two of its 60-task solves fit in a round, and
their scaled median spread 0.06-0.19 between sets of ten runs
(interquartile distance over the median), as its time follows the
calibration's speed changes only about half as strongly as PA's does.
"""

from __future__ import annotations

import time

import harness
from harness import median

from repro.benchgen import paper_instance
from repro.engine import ScheduleRequest, get_backend
from repro.explore import GridSpec, run_sweep
from repro.validate import check_schedule

# (name, algorithm, trace layer, instance pairs per round, timed per
# pair).  The slow classes are timed pair by pair, so the calibrations
# around each piece stay within a few hundred milliseconds of it.
CLASSES = (
    ("pa", "pa", "core", 4, False),
    ("par", "pa-r", "core.randomized", 2, True),
    ("is1", "is-1", "baselines.isk", 4, False),
    ("is5", "is-5", "baselines.isk", 2, True),
)
SWEEPS = 1
PRIMARY, SECONDARY = "pa", "is1"


class Solve:
    def __init__(self, ctx: harness.Context) -> None:
        self.ctx = ctx
        if ctx.tiny:
            self.sizes, self.iterations, self.node_limit = (10, 12), 2, 200
            self.spec = GridSpec(algorithms=["pa", "is-1"], fabric_scales=[1.0],
                                 base_options={"is-*": {"node_limit": 200}})
        else:
            self.sizes, self.iterations, self.node_limit = (30, 60), 10, 2000
            self.spec = GridSpec(algorithms=["pa", "is-1", "is-2"],
                                 fabric_scales=[0.75, 0.9, 1.0],
                                 base_options={"is-*": {"node_limit": 2000}})
        self.instances: dict[int, list] = {}
        self.digests: dict[tuple, str] = {}  # output key -> first digest
        self.samples: list[dict] = []  # one per untraced round
        self.ops: dict[str, list[harness.Timing]] = {PRIMARY: [], SECONDARY: []}
        self.validate_ms: list[float] = []

    def options(self, algorithm: str) -> dict:
        if algorithm == "pa-r":
            return {"iterations": self.iterations}
        if algorithm.startswith("is-"):
            return {"node_limit": self.node_limit}
        return {}

    def solve(self, index: int, name: str, algorithm: str, j: int, inst) -> tuple:
        """One backend run; returns ``(key, instance, outcome)``.  The
        PA-R seed depends on the round, pair and size only, so a replay
        of the same solve is the same request."""
        self.ctx.attempt()
        tasks = len(inst.taskgraph)
        request = ScheduleRequest(
            inst, algorithm, options=self.options(algorithm),
            seed=self.ctx.subseed("pa-r", index, j, tasks),
        )
        return (index, name, j, tasks), inst, get_backend(algorithm).run(request)

    def pairs(self, index: int) -> list[list]:
        if index not in self.instances:
            self.instances[index] = [
                [paper_instance(n, seed=self.ctx.subseed("solve", index, j, n))
                 for n in self.sizes]
                for j in range(4)
            ]
        return self.instances[index]

    def sweep(self, inst):
        return run_sweep(inst, self.spec, store=None, jobs=1)

    def round(self, index: int) -> harness.Timing:
        ctx, tracer = self.ctx, self.ctx.tracer
        pairs = self.pairs(index)
        classes: dict[str, harness.Timing] = {}
        outcomes = []
        sweeps = []
        with tracer.span("bench", "solve.round", op=index):
            for name, algorithm, layer, count, per_pair in CLASSES:
                groups = [[j] for j in range(count)] if per_pair else [list(range(count))]
                classes[name] = harness.Timing(ctx.meter)
                for group in groups:
                    largest = []  # seconds of each solve of a largest instance
                    with ctx.meter.timed() as timing:
                        for j in group:
                            for inst in pairs[j]:
                                t0 = time.perf_counter()
                                with tracer.span(layer, algorithm, op=index):
                                    outcomes.append(self.solve(index, name, algorithm, j, inst))
                                if len(inst.taskgraph) == self.sizes[-1]:
                                    largest.append(time.perf_counter() - t0)
                    classes[name] += timing
                    if name in self.ops and not tracer.enabled:
                        self.ops[name] += [timing.like(sec) for sec in largest]
            with ctx.meter.timed() as classes["sweep"]:
                for pair in pairs[:SWEEPS]:
                    ctx.attempt()
                    with tracer.span("explore", "run_sweep", op=index):
                        sweeps.append(self.sweep(pair[0]))
        self.check(index, outcomes, sweeps)
        if not tracer.enabled:
            self.samples.append({
                "classes": classes,
                "makespan_us": sum(o.makespan for _, _, o in outcomes)
                + sum(r.makespan for sweep in sweeps for r in sweep.records),
            })
        total = harness.Timing(ctx.meter)
        for timing in classes.values():
            total += timing
        return total

    def check(self, index: int, outcomes, sweeps) -> None:
        """Validate every schedule and compare each output with the
        first time the same solve ran (warm-up or an earlier pass of
        this round index): the solvers are deterministic."""
        ctx, tracer = self.ctx, self.ctx.tracer
        results = []
        for key, inst, outcome in outcomes:
            t0 = time.perf_counter()
            with tracer.span("validate", "check_schedule", op=index):
                report = check_schedule(
                    inst, outcome.schedule,
                    allow_module_reuse=outcome.backend.startswith("is-"),
                )
            self.validate_ms.append(1e3 * (time.perf_counter() - t0))
            ctx.check(
                report.ok and outcome.feasible,
                f"solve {key} {outcome.backend}: feasible={outcome.feasible} "
                f"{[str(v) for v in report.violations[:3]]}",
            )
            results.append((key, harness.digest(outcome.schedule.to_dict())))
        for j, sweep in enumerate(sweeps):
            for record in sweep.records:
                ctx.check(
                    record.error is None and record.feasible,
                    f"solve round {index} sweep point {record.label}: "
                    f"error={record.error} feasible={record.feasible}",
                )
            results.append(((index, "sweep", j), harness.digest(
                [(r.label, r.makespan, r.area, r.energy_uj, r.feasible)
                 for r in sweep.records]
            )))
        for key, value in results:
            first = self.digests.setdefault(key, value)
            ctx.check(first == value, f"solve {key}: output changed on replay")

    def warm_up(self) -> None:
        """Each class and one sweep on one fixed 20-task instance (the
        same in every run, so set-up time does not vary with the seed):
        lazy imports and kernel caches, outside the rounds."""
        inst = paper_instance(20, seed=0)
        for name, algorithm, *_ in CLASSES:
            self.solve(-1, name, algorithm, 0, inst)
        self.sweep(inst)

    def replay(self) -> None:
        """Solve round 0's first 30-task instance again with every class
        and sweep it again; outputs must match round 0's."""
        inst = self.pairs(0)[0][0]
        outcomes = [self.solve(0, name, algorithm, 0, inst)
                    for name, algorithm, *_ in CLASSES]
        self.ctx.attempt()
        self.check(0, outcomes, [self.sweep(inst)])


def run(ctx: harness.Context) -> dict:
    bench = Solve(ctx)

    def setup(_index: int):
        bench.instances.clear()
        bench.pairs(0)
        bench.warm_up()

    setup_s, _ = harness.setup_repeated(ctx, setup)
    plain, traced = harness.run_measurement(ctx, bench.round)
    bench.replay()
    ctx.record["fingerprint"] = harness.digest(
        sorted((repr(k), v) for k, v in bench.digests.items() if k[0] < harness.MIN_ROUNDS)
    )
    for name in ("pa", "par", "is1", "is5", "sweep"):
        harness.detail(ctx, f"{name}_ms", harness.time_metric(
            ctx, f"{name}_ms", "ms", [s["classes"][name] for s in bench.samples], scale=1e3
        ))
    harness.detail(ctx, "makespan_us", (median([s["makespan_us"] for s in bench.samples]), "us"))
    if ctx.trace:
        return harness.trace_metrics(ctx, plain, traced)
    return {
        "setup_s": (setup_s, "s"),
        "round_s": harness.time_metric(ctx, "round_s", "s", plain),
        "primary_ms": harness.time_metric(
            ctx, "primary_ms", "ms", bench.ops[PRIMARY], scale=1e3),
        "secondary_ms": harness.time_metric(
            ctx, "secondary_ms", "ms", bench.ops[SECONDARY], scale=1e3),
    }
