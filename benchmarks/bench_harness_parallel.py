"""Parallel harness benchmark.

``run_quality(jobs=N)`` must beat the serial run wall-clock on a
multi-core host while producing the identical record stream.

Agreement is asserted unconditionally; the speedup assertion engages
only where it is meaningful (pool speedup needs >1 core — on a 1-core
runner the pool adds pure overhead and the test reports instead of
asserting).  The Section V-G incremental earliest starts are checked
snapshot by snapshot against the full CPM pass in the unit tests
(``tests/unit/test_reconf.py``).
"""

import os
import time

from repro.analysis.runner import ExperimentConfig, run_quality

from _suite import profile


def _config(jobs: int) -> ExperimentConfig:
    config = ExperimentConfig(profile=profile(), jobs=jobs)
    # Pin PA-R to a fixed restart count: identical work in both runs,
    # and the record streams become comparable field by field.
    config.pa_r_iteration_cap = 3
    return config


def _deterministic(records):
    return [
        (r.group, r.name, r.pa_makespan, r.pa_feasible, r.is1_makespan,
         r.is5_makespan, r.pa_r_makespan, r.pa_r_iterations)
        for r in records
    ]


def test_parallel_run_quality_agrees_and_speeds_up():
    t0 = time.perf_counter()
    serial = run_quality(_config(jobs=1))
    serial_s = time.perf_counter() - t0

    jobs = min(4, max(2, os.cpu_count() or 1))
    t0 = time.perf_counter()
    parallel = run_quality(_config(jobs=jobs))
    parallel_s = time.perf_counter() - t0

    assert _deterministic(serial.records) == _deterministic(parallel.records)
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(
        f"\nrun_quality[{profile()}]: serial {serial_s:.2f}s, "
        f"jobs={jobs} {parallel_s:.2f}s, speedup x{speedup:.2f}"
    )
    if (os.cpu_count() or 1) >= 2:
        # Pool overhead must at least be amortized on a real multi-core
        # host; the margin is deliberately lax for noisy CI boxes.
        assert speedup > 1.1, f"expected wall-clock speedup, got x{speedup:.2f}"
