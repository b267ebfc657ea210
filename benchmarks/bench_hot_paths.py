"""Hot-path kernel benchmark: scalar references vs vectorized backends.

The perf PR replaces three Python-loop hot paths with array kernels and
claims the swap is free of behaviour change:

* **dominance probe** — the packed per-axis profile index answers a
  miss-heavy query stream with one broadcast per store instead of a
  Python scan over every entry (`Floorplanner(probe=...)`),
* **timing passes** — CPM forward/backward as per-level
  ``maximum.reduceat`` sweeps (`PrecedenceGraph` ``backend=...``),
* **candidate enumeration** — minimal-window search via per-kind
  prefix sums + ``searchsorted`` and a pairwise containment-prune
  matrix (`candidate_placements`).

Two gates:

* the **combined speedup** — total scalar time over total vector time
  across the kernel sections — must be ``>= 5`` (the probe stream,
  the realistic dominant cost of PA-R restarts, carries most of it),
* an **equivalence sweep**: PA and serial+parallel PA-R schedules
  must be bit-identical between backends across every seed (>= 50
  seeds in the full profile).

The report is written to ``BENCH_hot_paths.json`` at the repo root —
the committed perf trajectory — and printed as JSON.

Runs standalone (JSON out) or under pytest::

    python benchmarks/bench_hot_paths.py --quick --out bench.json
    pytest benchmarks/bench_hot_paths.py -q
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _suite import write_trajectory

from repro.benchgen import paper_instance
from repro.core import PAOptions, do_schedule, pa_r_schedule, pa_r_schedule_parallel
from repro.core.timing import PrecedenceGraph
from repro.floorplan import Floorplanner
from repro.floorplan import placements as placements_mod
from repro.floorplan.device import FabricDevice, zynq_7z020
from repro.floorplan.floorplanner import FloorplanResult
from repro.model import ResourceVector

MIN_COMBINED_SPEEDUP = 5.0

_PROFILES = {
    "quick": dict(
        index_entries=384, probe_queries=300, probe_repeats=2,
        timing_graphs=((40, 8), (60, 10)), timing_repeats=3,
        enum_demands=24, enum_repeats=2,
        pa_seeds=50, pa_tasks=30,
        par_seeds=4, par_iterations=6,
    ),
    "full": dict(
        index_entries=512, probe_queries=600, probe_repeats=3,
        timing_graphs=((40, 8), (60, 10), (80, 12)), timing_repeats=5,
        enum_demands=48, enum_repeats=3,
        pa_seeds=50, pa_tasks=30,
        par_seeds=8, par_iterations=10,
    ),
}


# -- workload generation -----------------------------------------------------


def _random_demands(rng: random.Random, n_max: int = 5) -> list[ResourceVector]:
    out = []
    for _ in range(rng.randint(1, n_max)):
        d = {"CLB": rng.randrange(100, 2400, 100)}
        if rng.random() < 0.5:
            d["BRAM"] = rng.randrange(10, 80, 10)
        if rng.random() < 0.4:
            d["DSP"] = rng.randrange(20, 160, 20)
        out.append(ResourceVector(d))
    return out


def _canonical(demands) -> tuple:
    return tuple(sorted(tuple(sorted(d.items())) for d in demands))


def _build_index_entries(rng: random.Random, count: int):
    """Synthetic absorbable entries (the parallel PA-R warm-start path):
    feasible verdicts shipped back by restart workers."""
    entries, seen = [], set()
    while len(entries) < count:
        demands = _random_demands(rng)
        key = _canonical(demands)
        if key in seen:
            continue
        seen.add(key)
        entries.append(
            (
                demands,
                FloorplanResult(
                    feasible=True,
                    placements=None,
                    proven=True,
                    engine="backtrack",
                ),
            )
        )
    return entries, seen


def _probe_stream(rng: random.Random, entries, count: int):
    """Miss-heavy probe queries — the PA-R steady state, where every
    improving candidate carries a region signature nobody has seen.

    75% guaranteed misses: one region demands more CLBs than any single
    indexed region supplies, so no stored entry can dominate the query
    and the scalar probe must attempt a match against *every* entry.
    25% dominance bait: a stored entry with each region shrunk, which
    the identity matching answers — hits must survive the prefilter.
    """
    stream = []
    while len(stream) < count:
        if rng.random() < 0.25:
            base, _ = rng.choice(entries)
            stream.append(
                [
                    ResourceVector(
                        {k: max(1, v - 50) for k, v in d.items()}
                    )
                    for d in base
                ]
            )
        else:
            demands = _random_demands(rng)
            i = rng.randrange(len(demands))
            demands[i] = ResourceVector(
                {"CLB": 2500 + rng.randrange(0, 500, 10)}
            )
            stream.append(demands)
    return stream


# -- kernel sections ---------------------------------------------------------


def run_probe_section(params) -> dict:
    rng = random.Random(2024)
    entries, _ = _build_index_entries(rng, params["index_entries"])
    stream = _probe_stream(rng, entries, params["probe_queries"])

    timings = {}
    hits = {}
    for backend in ("vector", "scalar"):
        planner = Floorplanner(zynq_7z020(), probe=backend)
        planner.absorb(entries)
        best = float("inf")
        for _ in range(params["probe_repeats"]):
            hit_count = 0
            t0 = time.perf_counter()
            for demands in stream:
                ids = [f"R{i}" for i in range(len(demands))]
                if planner._dominance_probe(ids, demands) is not None:
                    hit_count += 1
            best = min(best, time.perf_counter() - t0)
        timings[backend] = best
        hits[backend] = hit_count
    assert hits["vector"] == hits["scalar"], (
        f"probe hit profile diverged: {hits}"
    )
    n = len(stream)
    return {
        "index_entries": params["index_entries"],
        "queries": n,
        "dominance_hits": hits["vector"],
        "scalar_s": timings["scalar"],
        "vector_s": timings["vector"],
        "per_query_us": {
            "scalar": 1e6 * timings["scalar"] / n,
            "vector": 1e6 * timings["vector"] / n,
        },
        "speedup": timings["scalar"] / timings["vector"],
    }


def _layered_graph(rng: random.Random, width: int, depth: int):
    """A wide layered DAG — the shape reconfiguration scheduling feeds
    the timing kernel (many parallel tasks, few levels)."""
    nodes = [f"n{l}_{w}" for l in range(depth) for w in range(width)]
    graph = PrecedenceGraph(nodes)
    for l in range(depth - 1):
        for w in range(width):
            for _ in range(3):
                graph.add_edge(
                    f"n{l}_{w}", f"n{l + 1}_{rng.randrange(width)}"
                )
    exe = {n: rng.uniform(0.5, 20.0) for n in nodes}
    return graph, exe


def run_timing_section(params) -> dict:
    rng = random.Random(7)
    graphs = [
        _layered_graph(rng, width, depth)
        for width, depth in params["timing_graphs"]
    ]
    timings = {"scalar": float("inf"), "vector": float("inf")}
    for backend in ("vector", "scalar"):
        for graph, exe in graphs:  # warm the level schedule + touch gate
            graph.compute_windows(exe, backend=backend)
            graph.compute_windows(exe, backend=backend)
            graph.compute_windows(exe, backend=backend)
        best = float("inf")
        for _ in range(params["timing_repeats"]):
            t0 = time.perf_counter()
            for graph, exe in graphs:
                graph.compute_windows(exe, backend=backend)
            best = min(best, time.perf_counter() - t0)
        timings[backend] = best
    sample_graph, sample_exe = graphs[0]
    scalar = sample_graph.compute_windows(sample_exe, backend="scalar")
    vector = sample_graph.compute_windows(sample_exe, backend="vector")
    assert vector.est == scalar.est and vector.lft == scalar.lft
    return {
        "graphs": list(params["timing_graphs"]),
        "scalar_s": timings["scalar"],
        "vector_s": timings["vector"],
        "speedup": timings["scalar"] / timings["vector"],
    }


def run_enumeration_section(params) -> dict:
    rng = random.Random(99)
    demands = [_random_demands(rng, n_max=1)[0] for _ in range(params["enum_demands"])]

    def sweep() -> float:
        # Fresh device per pass: enumeration is memoized per device and
        # the cold path is exactly what new worker processes pay.
        device = FabricDevice(
            name="bench", rows=3, columns=zynq_7z020().columns
        )
        t0 = time.perf_counter()
        for demand in demands:
            placements_mod.candidate_placements(device, demand)
        return time.perf_counter() - t0

    timings = {}
    saved = placements_mod._np
    try:
        for backend in ("vector", "scalar"):
            placements_mod._np = saved if backend == "vector" else None
            timings[backend] = min(
                sweep() for _ in range(params["enum_repeats"])
            )
    finally:
        placements_mod._np = saved

    # Equivalence on fresh devices, one per backend (the memo would
    # otherwise short-circuit the second run).
    try:
        placements_mod._np = None
        d1 = FabricDevice(name="eq1", rows=3, columns=zynq_7z020().columns)
        scalar = [placements_mod.candidate_placements(d1, d) for d in demands]
    finally:
        placements_mod._np = saved
    d2 = FabricDevice(name="eq2", rows=3, columns=zynq_7z020().columns)
    vector = [placements_mod.candidate_placements(d2, d) for d in demands]
    assert vector == scalar, "candidate enumeration diverged between backends"
    return {
        "demands": len(demands),
        "scalar_s": timings["scalar"],
        "vector_s": timings["vector"],
        "speedup": timings["scalar"] / timings["vector"],
    }


# -- equivalence sweep -------------------------------------------------------


def _schedule_sig(schedule) -> dict:
    return schedule.to_dict()


def run_equivalence_sweep(params) -> dict:
    checked = {"pa": 0, "pa_r_serial": 0, "pa_r_parallel": 0}

    for seed in range(params["pa_seeds"]):
        instance = paper_instance(params["pa_tasks"], seed=1000 + seed)
        sigs = []
        for backend in ("vector", "scalar"):
            opts = PAOptions(timing=backend)
            planner = Floorplanner.for_architecture(
                instance.architecture, probe=backend
            )
            schedule = do_schedule(instance, opts)
            planner.check(list(schedule.regions.values()))
            sigs.append(_schedule_sig(schedule))
        assert sigs[0] == sigs[1], f"PA diverged at seed {seed}"
        checked["pa"] += 1

    for seed in range(params["par_seeds"]):
        instance = paper_instance(params["pa_tasks"], seed=2000 + seed)
        serial_sigs, parallel_sigs = [], []
        for backend in ("vector", "scalar"):
            opts = PAOptions(timing=backend)
            serial = pa_r_schedule(
                instance,
                iterations=params["par_iterations"],
                options=opts,
                floorplanner=Floorplanner.for_architecture(
                    instance.architecture, probe=backend
                ),
                seed=seed,
            )
            parallel = pa_r_schedule_parallel(
                instance,
                iterations=params["par_iterations"],
                options=opts,
                floorplanner=Floorplanner.for_architecture(
                    instance.architecture, probe=backend
                ),
                seed=seed,
                jobs=2,
            )
            serial_sigs.append(_schedule_sig(serial.schedule))
            parallel_sigs.append(_schedule_sig(parallel.schedule))
        assert serial_sigs[0] == serial_sigs[1], f"PA-R diverged at seed {seed}"
        assert parallel_sigs[0] == parallel_sigs[1], (
            f"parallel PA-R diverged at seed {seed}"
        )
        checked["pa_r_serial"] += 1
        checked["pa_r_parallel"] += 1

    checked["total"] = sum(checked.values())
    checked["identical"] = True
    return checked


# -- assembly ----------------------------------------------------------------


def run_hot_paths_benchmark(profile: str = "quick") -> dict:
    params = _PROFILES[profile]
    sections = {
        "probe": run_probe_section(params),
        "timing": run_timing_section(params),
        "enumeration": run_enumeration_section(params),
    }
    scalar_total = sum(s["scalar_s"] for s in sections.values())
    vector_total = sum(s["vector_s"] for s in sections.values())
    return {
        "profile": profile,
        "sections": sections,
        "scalar_total_s": scalar_total,
        "vector_total_s": vector_total,
        "combined_speedup": scalar_total / vector_total,
        "equivalence": run_equivalence_sweep(params),
    }


# -- pytest entry points -----------------------------------------------------


def test_hot_paths_combined_speedup():
    report = run_hot_paths_benchmark("quick")
    sections = report["sections"]
    print(
        "\nhot paths: "
        + ", ".join(
            f"{name} x{sections[name]['speedup']:.1f}" for name in sections
        )
        + f" -> combined x{report['combined_speedup']:.1f}"
    )
    assert report["equivalence"]["identical"]
    assert report["combined_speedup"] >= MIN_COMBINED_SPEEDUP, (
        f"combined hot-path speedup x{report['combined_speedup']:.2f} "
        f"(need >= x{MIN_COMBINED_SPEEDUP})"
    )


# -- script mode -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI profile (small workload)")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--no-trajectory", action="store_true",
        help="skip refreshing BENCH_hot_paths.json at the repo root",
    )
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else "full"

    report = run_hot_paths_benchmark(profile)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if not args.no_trajectory:
        path = write_trajectory("hot_paths", report)
        print(f"wrote {path}", file=sys.stderr)
    return 0 if report["combined_speedup"] >= MIN_COMBINED_SPEEDUP else 1


if __name__ == "__main__":
    raise SystemExit(main())
