"""``cli``: cold ``repro`` processes, one at a time.

Set-up writes a seeded 60-task instance with a ``repro generate``
process.  Each round runs one
``python -m repro schedule <inst> --algorithm pa -o <out>`` process
(the primary class) and then one ``python -m repro validate <inst>
<out>`` process on its output (the secondary class).  Every process of
a class does the same work, so a percentile of a class's wall times is
a percentile over one homogeneous class.  Most of that time is
interpreter start-up and imports; PA itself takes tens of
milliseconds.  Outputs are validated in process outside the timed part.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time

import harness

from repro.model import Instance, Schedule
from repro.validate import check_schedule


# Calibration for this workload: a child interpreter importing a fixed
# set of standard-library modules, which calls no code under test.  A
# ``repro`` process is mostly start-up and imports (file lookups,
# unmarshalling, loading shared objects), whose speed on a shared host
# follows the in-process calibration work poorly.  Over five runs of ten
# ``repro schedule`` processes, the median scaled by this calibration
# spread 0.07 (interquartile distance over the median) against 0.13
# scaled by the in-process work and 0.20 raw.
_STDLIB_IMPORTS = (
    "import argparse, asyncio, csv, dataclasses, decimal, email.mime.multipart, "
    "http.client, inspect, json, logging.handlers, sqlite3, ssl, typing, "
    "unittest, xml.etree.ElementTree"
)
PROCESS_REFERENCE_S = 0.15


def process_calibration(ctx: harness.Context) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_IMPORTS],
        cwd=ctx.root, env=ctx.child_env(), capture_output=True, timeout=60,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"calibration process exited {proc.returncode}")
    return seconds


class Cli:
    def __init__(self, ctx: harness.Context) -> None:
        self.ctx = ctx
        self.tasks = 10 if ctx.tiny else 60
        self.instance_path = ctx.work / "instance.json"
        self.instance = None
        self.expected: bytes | None = None
        self.ops: list[harness.Timing] = []  # untraced schedule processes
        self.validations: list[harness.Timing] = []  # untraced validate processes
        self.digests: dict[int, str] = {}

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.ctx.root,
            env=self.ctx.child_env(),
            capture_output=True,
            timeout=120,
        )

    def setup(self, _index: int) -> None:
        ctx = self.ctx
        ctx.attempt()
        proc = self.python(
            "-m", "repro", "generate", "--tasks", str(self.tasks),
            "--seed", str(ctx.seed), "-o", str(self.instance_path),
        )
        if not ctx.check(proc.returncode == 0, f"repro generate exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-300:]}"):
            raise SystemExit(1)
        self.instance = Instance.from_dict(json.loads(self.instance_path.read_text()))

    def timed(self, command: str, index: int, *args: str):
        """One ``repro <command>`` process, timed; returns ``(timing,
        process)``."""
        tracer = self.ctx.tracer
        self.ctx.attempt()
        with self.ctx.meter.timed() as timing:
            with tracer.span("cli", f"repro {command}", op=index):
                proc = self.python("-m", "repro", command, *args)
        return timing, proc

    def round(self, index: int) -> harness.Timing:
        ctx, tracer = self.ctx, self.ctx.tracer
        out = ctx.work / "schedule.json"
        with tracer.span("bench", "cli.round", op=index):
            timing, proc = self.timed(
                "schedule", index, str(self.instance_path),
                "--algorithm", "pa", "-o", str(out),
            )
            total = harness.Timing(ctx.meter)
            total += timing
            if not tracer.enabled:
                self.ops.append(timing)
            if out.exists():
                timing, check = self.timed("validate", index, str(self.instance_path), str(out))
                total += timing
                if not tracer.enabled:
                    self.validations.append(timing)
                ctx.check(
                    check.returncode == 0 and check.stdout.startswith(b"OK:"),
                    f"cli round {index}: repro validate exited {check.returncode}: "
                    f"{check.stdout.decode(errors='replace')[-300:]}",
                )
        self.check(index, proc, out)
        return total

    def check(self, index: int, proc, out) -> None:
        ctx, tracer = self.ctx, self.ctx.tracer
        if not ctx.check(
            proc.returncode == 0,
            f"cli round {index}: repro schedule exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-300:]}",
        ):
            return
        data = out.read_bytes()
        out.unlink()
        with tracer.span("validate", "check_schedule", op=index):
            with tracer.span("model", "Schedule.from_dict", op=index):
                schedule = Schedule.from_dict(json.loads(data))
            report = check_schedule(self.instance, schedule)
        ctx.check(report.ok, f"cli round {index}: {[str(v) for v in report.violations[:3]]}")
        if self.expected is None:
            self.expected = data
        ctx.check(data == self.expected, f"cli round {index}: output differs from round 0's")
        self.digests.setdefault(index, harness.digest(data))


def run(ctx: harness.Context) -> dict:
    ctx.meter.calibration = functools.partial(process_calibration, ctx)
    ctx.meter.reference = PROCESS_REFERENCE_S
    bench = Cli(ctx)
    setup_s, _ = harness.setup_repeated(ctx, bench.setup)
    plain, traced = harness.run_measurement(ctx, bench.round)
    ctx.record["fingerprint"] = harness.digest(
        [bench.digests[i] for i in range(harness.MIN_ROUNDS)]
    )
    if ctx.trace:
        return harness.trace_metrics(ctx, plain, traced)
    return {
        "setup_s": (setup_s, "s"),
        "round_s": harness.time_metric(ctx, "round_s", "s", plain),
        "primary_ms": harness.time_metric(ctx, "primary_ms", "ms", bench.ops, scale=1e3),
        "secondary_ms": harness.time_metric(
            ctx, "secondary_ms", "ms", bench.validations, scale=1e3),
    }
