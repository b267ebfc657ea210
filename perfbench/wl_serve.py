"""``serve``: a ``repro serve`` daemon process driven closed-loop.

The daemon runs out of process (``--port 0 --workers 1 --store
<tmp>``), so the load generator does not share its interpreter lock.
Each round has two phases against the same store:

* cold: one client sends six distinct 60-task PA requests in turn;
  each is a miss that computes on the worker and writes the store.
  Only this client sends misses, so a miss never queues behind another.
* warm: two client threads each send those six requests twice; each is
  a store hit that reads the store.

Requests are made distinct by their ``seed`` field, which enters the
cache key but not PA's result, so the six instances are generated once
in set-up.  Hit latency is the primary class, miss latency the
secondary: they are reported separately, never pooled.
"""

from __future__ import annotations

import functools
import json
import tempfile
import threading
import time
from pathlib import Path

import harness
from daemon import Daemon
from harness import percentile

from repro.benchgen import paper_instance
from repro.engine import ServiceClient, ServiceError
from repro.model import Schedule
from repro.validate import check_schedule


class Serve:
    def __init__(self, ctx: harness.Context) -> None:
        self.ctx = ctx
        self.requests = 2 if ctx.tiny else 6
        self.passes = 1 if ctx.tiny else 2
        tasks = 10 if ctx.tiny else 60
        self.instances = [
            paper_instance(tasks, seed=ctx.subseed("serve", i))
            for i in range(self.requests)
        ]
        self.instance_dicts = [inst.to_dict() for inst in self.instances]
        self.daemon: Daemon | None = None
        self.next_key = 0
        self.sent_misses = 0
        self.sent_hits = 0
        self.lock = threading.Lock()
        self.digests: dict[int, list[str]] = {}
        self.expected_schedules: list[str] | None = None
        self.hits: list[harness.Timing] = []  # untraced, in ms
        self.misses: list[harness.Timing] = []
        self.round_hits: list[float] = []
        self.round_misses: list[float] = []

    def payload(self, i: int, key_seed: int) -> dict:
        return {"instance": self.instance_dicts[i], "algorithm": "pa",
                "options": {}, "seed": key_seed, "budget": None}

    def fresh_key(self) -> int:
        self.next_key += 1
        return self.next_key

    # -- set-up ---------------------------------------------------------

    def setup(self, index: int) -> Daemon:
        store = Path(tempfile.mkdtemp(prefix=f"store{index}-", dir=self.ctx.work))
        self.daemon = Daemon(self.ctx, store)
        self.ctx.attempt()
        body = self.daemon.client.schedule(self.payload(0, self.fresh_key()))
        self.ctx.check(body.get("source") == "computed", "serve warm-up was not computed")
        return self.daemon

    def teardown(self, daemon: Daemon) -> None:
        daemon.stop()

    # -- one round ------------------------------------------------------

    def round(self, index: int) -> harness.Timing:
        ctx, tracer = self.ctx, self.ctx.tracer
        keys = [self.fresh_key() for _ in range(self.requests)]
        self.round_hits, self.round_misses = [], []
        cold: list[str | None] = [None] * self.requests
        schedules = []
        with tracer.span("bench", "serve.round", op=index):
            with ctx.meter.timed() as cold_phase:
                for i, key_seed in enumerate(keys):
                    body = self.send(self.daemon.client, self.payload(i, key_seed),
                                     "computed", index)
                    if body is not None:
                        cold[i] = json.dumps(body["outcome"], sort_keys=True)
                        schedules.append(body["outcome"]["schedule"])
            threads = [
                threading.Thread(target=self.warm_client, args=(t, keys, cold, index))
                for t in range(2)
            ]
            with ctx.meter.timed() as warm_phase:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        self.check(index, schedules)
        if not tracer.enabled:
            # Each latency is scaled by the speed measured around its phase.
            self.misses += [cold_phase.like(ms) for ms in self.round_misses]
            self.hits += [warm_phase.like(ms) for ms in self.round_hits]
        total = harness.Timing(ctx.meter)
        total += cold_phase
        total += warm_phase
        return total

    def warm_client(self, t: int, keys, cold, index: int) -> None:
        client = ServiceClient(self.daemon.url, timeout=60.0)
        order = list(range(len(keys)))
        if t:
            order.reverse()
        for _ in range(self.passes):
            for i in order:
                body = self.send(client, self.payload(i, keys[i]), "store", index)
                if body is not None and cold[i] is not None:
                    self.ctx.check(
                        json.dumps(body["outcome"], sort_keys=True) == cold[i],
                        f"serve round {index}: hit differs from computed outcome",
                    )

    def send(self, client: ServiceClient, payload: dict, source: str, index: int):
        ctx, tracer = self.ctx, self.ctx.tracer
        ctx.attempt()
        with self.lock:
            if source == "computed":
                self.sent_misses += 1
            else:
                self.sent_hits += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("engine.service", f"POST /schedule {source}", op=index):
                body = client.schedule(payload, retry_backpressure=False)
        except (ServiceError, OSError) as exc:
            ctx.fail(f"serve round {index}: {source} request failed: {exc}")
            return None
        latency = 1e3 * (time.perf_counter() - t0)
        if not ctx.check(body.get("source") == source,
                         f"serve round {index}: expected {source}, got {body.get('source')}"):
            return None
        if source == "store":
            self.round_hits.append(latency)
        else:
            self.round_misses.append(latency)
        return body

    def check(self, index: int, schedules: list[dict]) -> None:
        """Validate the computed schedules (outside the timed part); the
        same instance must give the same schedule in every round."""
        ctx, tracer = self.ctx, self.ctx.tracer
        digests = []
        for inst, sched in zip(self.instances, schedules):
            with tracer.span("validate", "check_schedule", op=index):
                report = check_schedule(inst, Schedule.from_dict(sched))
            ctx.check(report.ok, f"serve round {index}: {[str(v) for v in report.violations[:3]]}")
            digests.append(harness.digest(sched))
        if self.expected_schedules is None:
            self.expected_schedules = digests
        ctx.check(digests == self.expected_schedules,
                  f"serve round {index}: computed schedules changed")
        self.digests.setdefault(index, digests)

    def check_metrics(self) -> dict:
        """The daemon's own counters must agree with what was sent."""
        snap = self.daemon.metrics()
        ctx = self.ctx
        ctx.check(snap["computed"] == 1 + self.sent_misses,
                  f"/metrics computed={snap['computed']}, sent {1 + self.sent_misses} distinct")
        ctx.check(snap["store_hits"] == self.sent_hits,
                  f"/metrics store_hits={snap['store_hits']}, sent {self.sent_hits} repeats")
        ctx.check(snap["rejected"] == 0, f"/metrics rejected={snap['rejected']}")
        ctx.check(snap["failures"] == 0, f"/metrics failures={snap['failures']}")
        return snap


def run(ctx: harness.Context) -> dict:
    # The work runs in three processes at once, so calibrate every CPU.
    ctx.meter.calibration = functools.partial(harness.calibrate, per_cpu=True)
    bench = Serve(ctx)
    try:
        setup_s, _ = harness.setup_repeated(ctx, bench.setup, bench.teardown)
        plain, traced = harness.run_measurement(ctx, bench.round)
        ctx.record["daemon_metrics"] = bench.check_metrics()
    finally:
        if bench.daemon is not None:
            bench.daemon.stop()
    ctx.record["requests"] = {"misses": bench.sent_misses, "hits": bench.sent_hits}
    ctx.record["fingerprint"] = harness.digest(
        [bench.digests[i] for i in range(harness.MIN_ROUNDS)]
    )
    harness.detail(ctx, "hit_p90_ms", harness.time_metric(
        ctx, "hit_p90_ms", "ms", bench.hits, stat=lambda v: percentile(v, 90)))
    if ctx.trace:
        return harness.trace_metrics(ctx, plain, traced)
    return {
        "setup_s": (setup_s, "s"),
        "round_s": harness.time_metric(ctx, "round_s", "s", plain),
        "primary_ms": harness.time_metric(ctx, "primary_ms", "ms", bench.hits),
        "secondary_ms": harness.time_metric(ctx, "secondary_ms", "ms", bench.misses),
    }
