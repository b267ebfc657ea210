"""Floorplan hot-path benchmark: reference scans vs the numpy kernels.

Two floorplanner hot paths run as array kernels, and each claims to
change no result against the plain-Python scan it replaced (the scans
live in the test suite, ``tests/floorplan_reference.py``):

* **dominance probe** — the packed per-axis profile index answers a
  miss-heavy query stream with one broadcast per store instead of a
  Python scan over every entry (``Floorplanner`` vs
  ``ScanFloorplanner``),
* **candidate enumeration** — minimal-window search via per-kind
  prefix sums + ``searchsorted`` and a pairwise containment-prune
  matrix (``candidate_placements`` vs ``scan_candidate_placements``).

Two gates:

* the **combined speedup** — total scalar time over total vector time
  across the kernel sections — must be ``>= 5`` (the probe stream,
  the realistic dominant cost of PA-R restarts, carries most of it),
* an **equivalence sweep**: PA and serial+parallel PA-R schedules
  must be bit-identical between the production planner and the
  reference scan across every seed (>= 50 PA seeds).

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

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(_ROOT))  # the reference scans live in tests/
try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(_ROOT / "src"))

from _suite import write_trajectory

from repro.benchgen import paper_instance
from repro.core import pa_r_schedule, pa_r_schedule_parallel, pa_schedule
from repro.floorplan import Floorplanner
from repro.floorplan.device import FabricDevice, zynq_7z020
from repro.floorplan.floorplanner import FloorplanResult
from repro.floorplan.placements import candidate_placements
from repro.model import ResourceVector
from tests.floorplan_reference import ScanFloorplanner, scan_candidate_placements

#: The two planner limbs every section and the sweep compare.
_PLANNERS = {"vector": Floorplanner, "scalar": ScanFloorplanner}

MIN_COMBINED_SPEEDUP = 5.0

_PROFILES = {
    "quick": dict(
        index_entries=384, probe_queries=300, probe_repeats=2,
        enum_demands=24, enum_repeats=2,
        pa_seeds=50, pa_tasks=30,
        par_seeds=4, par_iterations=6,
    ),
    "full": dict(
        index_entries=512, probe_queries=600, probe_repeats=3,
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
    for backend, planner_cls in _PLANNERS.items():
        planner = planner_cls(zynq_7z020())
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


def run_enumeration_section(params) -> dict:
    rng = random.Random(99)
    demands = [_random_demands(rng, n_max=1)[0] for _ in range(params["enum_demands"])]

    enumerate_with = {
        "vector": candidate_placements,
        "scalar": scan_candidate_placements,
    }

    def sweep(backend: str) -> list:
        # Fresh device per pass: enumeration is memoized per device and
        # the cold path is exactly what new worker processes pay.
        device = FabricDevice(
            name="bench", rows=3, columns=zynq_7z020().columns
        )
        return [enumerate_with[backend](device, demand) for demand in demands]

    timings = {}
    for backend in ("vector", "scalar"):
        best = float("inf")
        for _ in range(params["enum_repeats"]):
            t0 = time.perf_counter()
            sweep(backend)
            best = min(best, time.perf_counter() - t0)
        timings[backend] = best
    assert sweep("vector") == sweep("scalar"), (
        "candidate enumeration diverged between backends"
    )
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
        for planner_cls in _PLANNERS.values():
            result = pa_schedule(
                instance,
                floorplanner=planner_cls.for_architecture(instance.architecture),
            )
            sigs.append((result.feasible, _schedule_sig(result.schedule)))
        assert sigs[0] == sigs[1], f"PA diverged at seed {seed}"
        checked["pa"] += 1

    for seed in range(params["par_seeds"]):
        instance = paper_instance(params["pa_tasks"], seed=2000 + seed)
        serial_sigs, parallel_sigs = [], []
        for planner_cls in _PLANNERS.values():
            serial = pa_r_schedule(
                instance,
                iterations=params["par_iterations"],
                floorplanner=planner_cls.for_architecture(instance.architecture),
                seed=seed,
            )
            parallel = pa_r_schedule_parallel(
                instance,
                iterations=params["par_iterations"],
                floorplanner=planner_cls.for_architecture(instance.architecture),
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
