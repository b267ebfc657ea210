"""Per-layer probes: fixed calls through each layer's public functions.

Every traced run (``--trace 1``) of every workload ends with one pass
of these probes, outside the timed rounds, so each workload reports the
same per-layer metrics, measured the same way.  Inputs are drawn from
the run seed at the workloads' sizes.  Spans are recorded around every
call, and ``self.<layer>_ms`` is each layer's self time over the pass.
The probes check their outputs like the workloads do; a mismatch counts
as a failed operation.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import median
from daemon import Daemon
from wl_online import Online
from wl_solve import CLASSES, Solve

from repro.benchgen import paper_instance
from repro.engine import ResultStore, ServiceError, get_backend
from repro.engine.backend import request_from_payload
from repro.model import Instance

# Layers whose self time is reported; every one is called by a probe.
LAYERS = (
    "cli", "model", "engine.store", "engine.service", "core",
    "core.randomized", "baselines.isk", "explore", "online", "validate",
)

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
_PACKAGES = ("scipy", "networkx", "numpy", "repro")


def run(ctx: harness.Context) -> dict:
    tracer = ctx.tracer
    since = len(tracer.spans)
    tracer.enabled = True
    try:
        out = _start_up(ctx)
        out.update(_engine(ctx))
        out.update(_service(ctx, out))
        out.update(_solvers(ctx))
        out.update(_online(ctx))
    finally:
        tracer.enabled = False
    self_ms = tracer.self_ms(since)
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = (self_ms.get(layer, 0.0), "ms")
    return out


def _payloads(ctx: harness.Context) -> list[dict]:
    tasks = 10 if ctx.tiny else 60
    count = 1 if ctx.tiny else 3
    return [
        {"instance": paper_instance(tasks, seed=ctx.subseed("probe", i)).to_dict(),
         "algorithm": "pa", "options": {}, "seed": i, "budget": None}
        for i in range(count)
    ]


# -- cli: interpreter start-up and imports, in child processes ------------

def _python(ctx: harness.Context, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    ctx.attempt()
    t0 = time.perf_counter()
    with ctx.tracer.span("cli", "python " + " ".join(args)[:40]):
        proc = subprocess.run(
            [sys.executable, *args], cwd=ctx.root, env=ctx.child_env(),
            capture_output=True, timeout=120,
        )
    wall = 1e3 * (time.perf_counter() - t0)
    ctx.check(proc.returncode == 0, f"python {' '.join(args)} exited {proc.returncode}")
    return wall, proc


def _start_up(ctx: harness.Context) -> dict:
    repeats = 1 if ctx.tiny else 2
    interp = [_python(ctx, "-c", "pass")[0] for _ in range(repeats + 1)]
    imports = []
    for _ in range(repeats):
        _, proc = _python(
            ctx, "-c",
            "import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)",
        )
        imports.append(1e3 * float(proc.stdout.decode().strip() or "nan"))
    by_package = {name: [] for name in _PACKAGES}
    for _ in range(repeats):
        _, proc = _python(ctx, "-X", "importtime", "-c", "import repro.cli")
        totals = _self_time_by_package(proc.stderr.decode(errors="replace"))
        for name in _PACKAGES:
            by_package[name].append(totals.get(name, 0.0))
    out = {
        "cli.interp_ms": (median(interp), "ms"),
        "cli.import_ms": (median(imports), "ms"),
    }
    for name in _PACKAGES:
        label = "repro_self" if name == "repro" else name
        out[f"cli.import_{label}_ms"] = (median(by_package[name]), "ms")
    return out


def _self_time_by_package(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times (ms) by top-level package."""
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            package = match.group(4).split(".")[0]
            totals[package] = totals.get(package, 0.0) + int(match.group(1)) / 1e3
    return totals


# -- model, engine.store: the steps the daemon runs per request ----------

def _engine(ctx: harness.Context) -> dict:
    tracer = ctx.tracer
    load, parse, key, get, put, encode, backend = [], [], [], [], [], [], []
    payloads = _payloads(ctx)
    get_backend("pa").run(request_from_payload(payloads[0]))  # warm-up
    with tempfile.TemporaryDirectory(dir=ctx.work) as tmp:
        store = ResultStore(tmp)
        for payload in payloads:
            ctx.attempt()
            text = json.dumps(payload["instance"])
            body = json.dumps(payload).encode()
            t0 = time.perf_counter()
            with tracer.span("model", "Instance.from_dict"):
                Instance.from_dict(json.loads(text))
            t1 = time.perf_counter()
            with tracer.span("model", "request_from_payload"):
                request = request_from_payload(json.loads(body))
            t2 = time.perf_counter()
            with tracer.span("model", "cache_key"):
                request.cache_key()
            t3 = time.perf_counter()
            with tracer.span("core", "pa"):
                outcome = get_backend("pa").run(request)
            t4 = time.perf_counter()
            with tracer.span("engine.store", "put"):
                store.put(request, outcome)
            t5 = time.perf_counter()
            with tracer.span("engine.store", "get"):
                hit = store.get(request)
            t6 = time.perf_counter()
            with tracer.span("engine.service", "encode"):
                json.dumps({"key": "", "source": "store", "elapsed": 0.0,
                            "outcome": hit.to_dict()}).encode()
            t7 = time.perf_counter()
            for samples, dt in ((load, t1 - t0), (parse, t2 - t1), (key, t3 - t2),
                                (backend, t4 - t3), (put, t5 - t4), (get, t6 - t5),
                                (encode, t7 - t6)):
                samples.append(1e3 * dt)
            ctx.check(hit is not None and hit.to_dict() == outcome.to_dict(),
                      "probe: store hit differs from the stored outcome")
    return {
        "model.instance_load_ms": (median(load), "ms"),
        "model.request_parse_ms": (median(parse), "ms"),
        "model.cache_key_ms": (median(key), "ms"),
        "store.get_ms": (median(get), "ms"),
        "store.put_ms": (median(put), "ms"),
        "engine.outcome_encode_ms": (median(encode), "ms"),
        "engine.backend_ms": (median(backend), "ms"),
    }


# -- engine.service and pool dispatch: a daemon process -------------------

def _service(ctx: harness.Context, steps: dict) -> dict:
    """One warm-up miss, then each payload once (misses) and three
    times more (hits) against a fresh daemon."""
    tracer = ctx.tracer
    payloads = _payloads(ctx)
    server_hit, server_miss, client_hit = [], [], []
    store = Path(tempfile.mkdtemp(prefix="probe-store-", dir=ctx.work))
    daemon = Daemon(ctx, store)
    try:
        client = daemon.client

        def send(payload: dict, source: str):
            ctx.attempt()
            t0 = time.perf_counter()
            try:
                with tracer.span("engine.service", f"POST /schedule {source}"):
                    body = client.schedule(payload, retry_backpressure=False)
            except (ServiceError, OSError) as exc:
                ctx.fail(f"probe: {source} request failed: {exc}")
                return None
            latency = 1e3 * (time.perf_counter() - t0)
            if not ctx.check(body.get("source") == source,
                             f"probe: expected {source}, got {body.get('source')}"):
                return None
            return latency, body

        send(dict(payloads[0], seed=-1), "computed")  # starts the pool worker
        computed = {}
        for i, payload in enumerate(payloads):
            sent = send(payload, "computed")
            if sent is not None:
                server_miss.append(1e3 * sent[1]["elapsed"])
                computed[i] = json.dumps(sent[1]["outcome"], sort_keys=True)
        hits = 0
        for _ in range(3):
            for i, payload in enumerate(payloads):
                hits += 1
                sent = send(payload, "store")
                if sent is None:
                    continue
                latency, body = sent
                server_hit.append(1e3 * body["elapsed"])
                client_hit.append(latency - 1e3 * body["elapsed"])
                ctx.check(json.dumps(body["outcome"], sort_keys=True) == computed.get(i),
                          "probe: hit differs from the computed outcome")
        snap = daemon.metrics()
        ctx.check(snap["computed"] == 1 + len(payloads),
                  f"probe /metrics computed={snap['computed']}")
        ctx.check(snap["store_hits"] == hits, f"probe /metrics store_hits={snap['store_hits']}")
        ctx.check(snap["rejected"] == 0, f"probe /metrics rejected={snap['rejected']}")
    finally:
        daemon.stop()
    miss = median(server_miss)
    out = {
        "service.server_hit_ms": (median(server_hit), "ms"),
        "service.server_miss_ms": (miss, "ms"),
        "service.client_ms": (median(client_hit), "ms"),
        "pool.dispatch_ms": (
            miss - sum(steps[name][0] for name in (
                "engine.backend_ms", "model.request_parse_ms",
                "model.cache_key_ms", "store.put_ms")),
            "ms",
        ),
    }
    for name in ("store_hits", "computed", "coalesced", "rejected", "queue_peak"):
        out[f"service.{name}"] = (snap[name], "count")
    return out


# -- core, floorplan, core.randomized, baselines.isk, explore, validate ---

def _solvers(ctx: harness.Context) -> dict:
    """Every solve class on round 0's first instance pair of ``solve``,
    then one sweep on its smaller instance."""
    tracer = ctx.tracer
    bench = Solve(ctx)
    bench.warm_up()
    pair = bench.pairs(0)[0]
    outcomes, class_s = [], {}
    for name, algorithm, layer, *_ in CLASSES:
        t0 = time.perf_counter()
        for inst in pair:
            with tracer.span(layer, algorithm):
                outcomes.append(bench.solve(0, name, algorithm, 0, inst))
        class_s[name] = time.perf_counter() - t0
    ctx.attempt()
    with tracer.span("explore", "run_sweep"):
        sweep = bench.sweep(pair[0])
    bench.check(0, outcomes, [sweep])
    pa = [o for key, _, o in outcomes if key[1] == "pa"]
    par = [o for key, _, o in outcomes if key[1] == "par"]
    isk = [o for key, _, o in outcomes if key[1] in ("is1", "is5")]
    planner = [o.metadata.get("floorplan_stats", {}) for o in pa + par]
    planner.append(sweep.planner_stats or {})
    queries = sum(s.get("queries", 0) for s in planner)
    hits = sum(s.get("cache_hits", 0) + s.get("dominance_hits", 0) for s in planner)
    restarts = sum(o.iterations for o in par)
    nodes = sum(o.metadata.get("nodes", 0) for o in isk)
    stats = [o.metadata.get("stats", {}) for o in isk]
    hint = sweep.hint_stats
    return {
        "core.pa_sched_ms": (1e3 * sum(o.scheduling_time for o in pa), "ms"),
        "floorplan.pa_fp_ms": (1e3 * sum(o.floorplanning_time for o in pa), "ms"),
        "floorplan.queries": (queries, "count"),
        "floorplan.dominance_hits": (
            sum(s.get("dominance_hits", 0) for s in planner), "count"),
        "floorplan.hit_ratio": (hits / queries if queries else 0.0, "ratio"),
        "randomized.restarts": (restarts, "count"),
        "randomized.restart_ms": (1e3 * class_s["par"] / max(1, restarts), "ms"),
        "isk.nodes": (nodes, "count"),
        "isk.node_us": (1e6 * (class_s["is1"] + class_s["is5"]) / max(1, nodes), "us"),
        "isk.bound_pruned": (sum(s.get("bound_pruned", 0) for s in stats), "count"),
        "isk.memo_hits": (sum(s.get("memo_hits", 0) for s in stats), "count"),
        "isk.fallbacks": (sum(s.get("fallback_completions", 0) for s in stats), "count"),
        "explore.points": (sweep.total_points, "count"),
        "explore.unique": (sweep.unique_requests, "count"),
        "explore.chains": (sweep.chains, "count"),
        "explore.hint_windows": (hint.get("hint_windows", 0), "count"),
        "explore.hint_pruned": (hint.get("hint_pruned", 0), "count"),
        "explore.hint_reruns": (hint.get("hint_reruns", 0), "count"),
        "validate.schedule_ms": (median(bench.validate_ms), "ms"),
    }


# -- online, validate ------------------------------------------------------

def _online(ctx: harness.Context) -> dict:
    """Round 0's first trace of ``online``, with its fault plan, with
    every runtime event counted through the ``on_event`` hook."""
    bench = Online(ctx)
    bench.warm_up()
    trace, faults = bench.inputs(0)[0]
    events = [0]

    def count(_event) -> None:
        events[0] += 1

    ctx.attempt()
    t0 = time.perf_counter()
    with ctx.tracer.span("online", "run_online"):
        result = bench.run(trace, faults, on_event=count)
    seconds = time.perf_counter() - t0
    (m,) = bench.check(0, [(trace, faults)], [result], "faults")
    return {
        "online.job_ms": (1e3 * seconds / m.jobs, "ms"),
        "online.events": (events[0], "count"),
        "online.replans": (m.replans, "count"),
        "online.replan_full": (m.replan_full, "count"),
        "online.preemptions": (m.preemptions, "count"),
        "online.checkpoints": (m.checkpoints, "count"),
        "validate.online_trace_ms": (median(bench.validate_ms), "ms"),
    }
