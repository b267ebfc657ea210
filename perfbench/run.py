"""End-to-end and per-layer benchmark of the scheduling system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads: ``cli``, ``solve``, ``serve``, ``online`` (see README.md in
this directory).  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``, ``--trace 1`` every per-layer metric: the tracing
overhead of the workload's own rounds, then one pass of the layer
probes (``probes.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run record (seed, environment, load average, determinism fingerprint).
``--size tiny`` shrinks every workload for the self-check
(``perfbench/selfcheck.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli", "solve", "serve", "online")


def _parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _declared(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` asks of this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _on_sigterm(signum, frame):
    # Turn SIGTERM into SystemExit so every ``finally`` (daemon
    # shutdown, temp-dir removal) runs.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _on_sigterm)

    work = harness.make_workdir(ROOT)
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.size == "tiny",
        root=ROOT,
        work=work,
    )
    load_start = harness.loadavg()
    t0 = time.perf_counter()
    try:
        module = importlib.import_module(f"wl_{args.workload}")
        metrics = module.run(ctx)
        if ctx.trace:
            metrics.update(importlib.import_module("probes").run(ctx))
    finally:
        harness.remove_workdir(work)
    wall = time.perf_counter() - t0

    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if ctx.trace:
        ctx.tracer.write(runs / f"spans-{stem}.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "wall_s": wall,
        "loadavg_start": load_start,
        "loadavg_end": harness.loadavg(),
        "environment": harness.environment(ROOT),
        "failures": ctx.failures,
        **ctx.record,
    }
    (runs / f"record-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    emitted = {name: unit for name, (_value, unit) in metrics.items()}
    if emitted != _declared(ctx.trace):
        print(f"error: emitted metrics {sorted(emitted.items())} differ from "
              f"BENCHMARK.json {sorted(_declared(ctx.trace).items())}", file=sys.stderr)
        return 1
    result = {
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
