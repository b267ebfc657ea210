"""Tiny-size self-check of the benchmark command.

Runs every workload at ``--size tiny`` in both modes and asserts that
the last output line has exactly the contract keys, that the run was
correct, and that it emits every metric ``BENCHMARK.json`` declares for
the mode (end-to-end with ``--trace 0``, per-layer with ``--trace 1``),
each with its declared unit and a number as its value, and no other.  Then copies only
``BENCHMARK.json`` and this directory into an empty directory and
asserts that the command fails there without printing a result.

    python3 perfbench/selfcheck.py        # from the checkout root; ~2 min
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: not correct: {proc.stderr[-500:]}")
    metrics = result["metrics"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"{where}: metric {name} missing")
    for name, entry in sorted(metrics.items()):
        if name not in declared:
            problems.append(f"{where}: metric {name} not declared in BENCHMARK.json")
        elif entry["unit"] != declared[name]:
            problems.append(f"{where}: {name} unit {entry['unit']} != {declared[name]}")
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"{where}: {name} value {entry['value']!r}")
    return problems


def check_fails_without_sources() -> list[str]:
    base = ROOT / ".perfbench" / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(Path(tmp), "solve", 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark without sources did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_fails_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
