"""IS-k search benchmark: apply/undo trail vs fork-per-option.

A fork-per-option window search spends most of its time duplicating
``PartialSchedule`` states — one deep-ish copy per ranked option per
node — while the production search applies each option in place,
recurses, and undoes from a mutation trail, visiting the exact same
tree.  On the Table I instance mix the trail search (plus read-only
option ranking and incumbent seeding) must be at least
``MIN_TRAIL_SPEEDUP`` times faster at IS-5 than the fork-per-option
reference search of the test suite (``tests/isk_reference.py``) while
producing byte-identical schedules.

Section ``search``: IS-5 over ``paper_instance`` sizes/seeds, reference
("copy") vs trail (memo off so the trees match node-for-node), identity
asserted on ``Schedule.to_dict()`` minus metadata.

Runs standalone (JSON out) or under pytest::

    python benchmarks/bench_isk_search.py --quick --out bench.json
    pytest benchmarks/bench_isk_search.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(_ROOT))  # the reference search lives in tests/
try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(_ROOT / "src"))

from _suite import write_trajectory

from repro.baselines import ISKOptions, ISKScheduler
from repro.benchgen import paper_instance
from tests.isk_reference import CopyISKScheduler

MIN_TRAIL_SPEEDUP = 3.0

_PROFILES = {
    "quick": dict(sizes=(20, 30), seeds=(2,), repeats=2),
    "full": dict(sizes=(20, 30, 40), seeds=(2, 5), repeats=3),
}


def _schedule_key(schedule) -> dict:
    """to_dict() minus metadata — node counts differ across searches."""
    payload = schedule.to_dict()
    payload.pop("metadata", None)
    return payload


def _run_is5(instance, engine: str):
    scheduler = CopyISKScheduler if engine == "copy" else ISKScheduler
    opts = ISKOptions(k=5, memo=False)
    t0 = time.perf_counter()
    result = scheduler(opts).schedule(instance)
    return time.perf_counter() - t0, result


def run_search_benchmark(profile: str = "quick") -> dict:
    params = _PROFILES[profile]
    cases = []
    copy_total = trail_total = 0.0
    for size in params["sizes"]:
        for seed in params["seeds"]:
            instance = paper_instance(size, seed=seed)
            copy_s = trail_s = float("inf")
            copy_res = trail_res = None
            for _ in range(params["repeats"]):
                s, copy_res = _run_is5(instance, "copy")
                copy_s = min(copy_s, s)
                s, trail_res = _run_is5(instance, "trail")
                trail_s = min(trail_s, s)
            assert _schedule_key(copy_res.schedule) == _schedule_key(
                trail_res.schedule
            ), f"searches diverged on tasks={size} seed={seed}"
            assert copy_res.nodes == trail_res.nodes, (
                f"node counts diverged on tasks={size} seed={seed}: "
                f"copy {copy_res.nodes} vs trail {trail_res.nodes}"
            )
            copy_total += copy_s
            trail_total += trail_s
            cases.append(
                {
                    "tasks": size,
                    "seed": seed,
                    "makespan": copy_res.schedule.makespan,
                    "nodes": copy_res.nodes,
                    "copy_s": copy_s,
                    "trail_s": trail_s,
                    "speedup": copy_s / trail_s if trail_s else float("inf"),
                }
            )
    return {
        "profile": profile,
        "cases": cases,
        "copy_total_s": copy_total,
        "trail_total_s": trail_total,
        "speedup": copy_total / trail_total if trail_total else float("inf"),
    }


# -- pytest entry points ----------------------------------------------------


def test_trail_speedup():
    report = run_search_benchmark("quick")
    print(
        f"\nIS-5 search [{len(report['cases'])} instances]: "
        f"copy {report['copy_total_s']:.2f}s, "
        f"trail {report['trail_total_s']:.2f}s "
        f"(x{report['speedup']:.1f})"
    )
    assert report["speedup"] >= MIN_TRAIL_SPEEDUP, (
        f"trail search only x{report['speedup']:.2f} faster than the copy "
        f"reference at IS-5 (need >= x{MIN_TRAIL_SPEEDUP})"
    )


# -- script mode ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI profile (small workload)")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--no-trajectory", action="store_true",
        help="skip refreshing BENCH_isk_search.json at the repo root",
    )
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else "full"

    report = {"search": run_search_benchmark(profile)}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    if not args.no_trajectory:
        path = write_trajectory("isk_search", report)
        print(f"wrote {path}", file=sys.stderr)
    return 0 if report["search"]["speedup"] >= MIN_TRAIL_SPEEDUP else 1


if __name__ == "__main__":
    raise SystemExit(main())
