"""``online``: the online hardware-multitasking runtime, in process.

Each round draws two arrival traces of 40 jobs from the run seed and
the round index and runs ``run_online`` on each twice: under a
transient task-fault plan (the primary class) and without faults (the
secondary class), so the cost of fault recovery shows apart.  The
trace parameters (mean inter-arrival 30 us, deadline slack 2.5, 40%
preempting jobs, 10% task faults) keep the fabric overloaded: every trace preempts, checkpoints, and re-plans both
incrementally and in full, and the deadline-miss ratio stays steady
across seeds.  Lighter loads swing between all-hit and cascades of
misses from one seed to the next.  Trace generation and validation sit
outside the timed part of the round.
"""

from __future__ import annotations

import time
from statistics import mean

import harness
from harness import median

from repro.analysis.online import online_metrics
from repro.online import generate_trace, run_online
from repro.sim import FaultPlan, RecoveryPolicy, TransientTaskFaults
from repro.validate import check_online_trace

POLICY = RecoveryPolicy(max_retries=6)


class Online:
    def __init__(self, ctx: harness.Context) -> None:
        self.ctx = ctx
        self.traces_per_round = 1 if ctx.tiny else 2
        self.jobs = 6 if ctx.tiny else 40
        self.inputs_by_round: dict[int, list] = {}
        self.digests: dict[tuple, str] = {}  # (round, trace, kind) -> first digest
        self.samples: list[dict] = []  # one per untraced round
        self.ops: dict[str, list[harness.Timing]] = {"faults": [], "clean": []}
        self.validate_ms: list[float] = []

    def inputs(self, index: int) -> list:
        if index not in self.inputs_by_round:
            pairs = []
            for j in range(self.traces_per_round):
                seed = self.ctx.subseed("online", index, j)
                trace = generate_trace(
                    seed=seed % 100_000,
                    jobs=self.jobs,
                    mean_interarrival=30.0,
                    slack=2.5,
                    high_priority_fraction=0.4,
                )
                faults = FaultPlan([TransientTaskFaults(rate=0.1, seed=seed)])
                pairs.append((trace, faults))
            self.inputs_by_round[index] = pairs
        return self.inputs_by_round[index]

    def run(self, trace, faults, on_event=None):
        return run_online(trace, faults=faults, policy=POLICY, on_event=on_event)

    def round(self, index: int) -> harness.Timing:
        ctx, tracer = self.ctx, self.ctx.tracer
        pairs = self.inputs(index)
        results = {"faults": [], "clean": []}
        total = harness.Timing(ctx.meter)
        with tracer.span("bench", "online.round", op=index):
            for trace, faults in pairs:
                for kind, plan in (("faults", faults), ("clean", None)):
                    ctx.attempt()
                    with ctx.meter.timed() as timing:
                        with tracer.span("online", f"run_online {kind}", op=index):
                            results[kind].append(self.run(trace, plan))
                    total += timing
                    if not tracer.enabled:
                        self.ops[kind].append(timing)
        metrics = []
        for kind, runs in results.items():
            metrics += self.check(index, pairs, runs, kind)
        if not tracer.enabled:
            self.samples.append({
                "makespan_us": sum(r.makespan for runs in results.values() for r in runs),
                "misses": sum(m.deadline_misses for m in metrics),
                "judged": sum(m.jobs - m.departed for m in metrics),
            })
        return total

    def warm_up(self) -> None:
        """One fixed 12-job trace (the same in every run, so set-up time
        does not vary with the seed): lazy imports and caches."""
        trace = generate_trace(seed=0, jobs=12, mean_interarrival=30.0,
                               slack=2.5, high_priority_fraction=0.4)
        run_online(trace, policy=POLICY)

    def replay(self) -> None:
        """Run round 0's first trace again with its faults; its event
        log must match."""
        trace, faults = self.inputs(0)[0]
        self.ctx.attempt()
        self.check(0, [(trace, faults)], [self.run(trace, faults)], "faults")

    def check(self, index: int, pairs, results, kind: str) -> list:
        """Validate every run and compare its event log with the first
        run of the same trace: the runtime is deterministic."""
        ctx, tracer = self.ctx, self.ctx.tracer
        metrics = []
        for j, ((trace, _faults), result) in enumerate(zip(pairs, results)):
            t0 = time.perf_counter()
            with tracer.span("validate", "check_online_trace", op=index):
                report = check_online_trace(trace, result)
            self.validate_ms.append(1e3 * (time.perf_counter() - t0))
            ctx.check(
                report.ok,
                f"online round {index} {trace.name}: "
                f"{[str(v) for v in report.violations[:3]]}",
            )
            digest = harness.digest("\n".join(result.event_log()))
            first = self.digests.setdefault((index, j, kind), digest)
            ctx.check(first == digest,
                      f"online round {index} trace {j} ({kind}): event log changed on replay")
            metrics.append(online_metrics(result))
        return metrics


def run(ctx: harness.Context) -> dict:
    bench = Online(ctx)

    def setup(_index: int):
        bench.inputs_by_round.clear()
        bench.inputs(0)
        bench.warm_up()

    setup_s, _ = harness.setup_repeated(ctx, setup)
    plain, traced = harness.run_measurement(ctx, bench.round)
    bench.replay()
    ctx.record["fingerprint"] = harness.digest(
        sorted((repr(k), v) for k, v in bench.digests.items() if k[0] < harness.MIN_ROUNDS)
    )
    judged = sum(s["judged"] for s in bench.samples)
    harness.detail(ctx, "deadline_miss_ratio",
                   (sum(s["misses"] for s in bench.samples) / judged, "ratio"))
    harness.detail(ctx, "makespan_us", (median([s["makespan_us"] for s in bench.samples]), "us"))
    if ctx.trace:
        return harness.trace_metrics(ctx, plain, traced)
    # Means, not medians: here the times spread mostly because traces
    # differ (about 15% between traces of the same generator settings),
    # not from one-sided slowdowns, and the mean uses every trace.  Over
    # five runs, secondary_ms spread 0.05 (interquartile distance over
    # the median) as a mean against 0.13 as a median.
    return {
        "setup_s": (setup_s, "s"),
        "round_s": harness.time_metric(ctx, "round_s", "s", plain, stat=mean),
        "primary_ms": harness.time_metric(
            ctx, "primary_ms", "ms", bench.ops["faults"], stat=mean, scale=1e3),
        "secondary_ms": harness.time_metric(
            ctx, "secondary_ms", "ms", bench.ops["clean"], stat=mean, scale=1e3),
    }
