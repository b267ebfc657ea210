"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per
metric, the median of the values and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py --workloads cli solve --seeds 1-10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", help="append every result line to this file")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(f"{workload} {seed} {line}\n")
            result = json.loads(line)
            if proc.returncode or not result.get("correct"):
                print(f"{workload} seed {seed}: failed run: {proc.stderr[-400:]}")
                continue
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        for name, vals in values.items():
            mid = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / mid
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:7s} {name:20s} n={len(vals):2d} median={mid:12.4f} "
                  f"spread={spread:6.3f} bound={bounds[name]:.2f}", flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
