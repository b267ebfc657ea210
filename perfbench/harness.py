"""Shared machinery of the benchmark: run context, round loop, spans,
statistics, environment record and determinism fingerprint.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# Rounds every run measures at least.  The determinism fingerprint
# covers exactly these rounds, so it does not depend on machine speed.
MIN_ROUNDS = 3

_NULL_SPAN = nullcontext()


class Tracer:
    """In-memory span recorder.  Disabled, ``span`` returns a shared
    no-op context, so untraced rounds pay one attribute test per call.

    A span is ``(id, parent_id, layer, name, op, start, end)``; parents
    are tracked per thread, so concurrent client threads nest correctly.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, layer: str, name: str | None = None, op=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, layer, name or layer, op)

    def self_ms(self, since: int = 0) -> dict[str, float]:
        """Self time of each layer over the spans recorded from index
        ``since`` on: a span's duration minus the time its children
        cover, summed by layer, in milliseconds."""
        spans = self.spans[since:]
        child_time: dict[int, float] = {}
        for _sid, parent, _layer, _name, _op, start, end in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, _parent, layer, _name, _op, start, end in spans:
            own = (end - start) - child_time.get(sid, 0.0)
            totals[layer] = totals.get(layer, 0.0) + own
        return {layer: 1e3 * t for layer, t in totals.items()}

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "layer", "name", "op", "start", "end")
        path.write_text(
            json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n"
        )


class _Span:
    __slots__ = ("tracer", "layer", "name", "op", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, layer: str, name: str, op) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.op = op

    def __enter__(self):
        stack = getattr(self.tracer._local, "stack", None)
        if stack is None:
            stack = self.tracer._local.stack = []
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.layer, self.name, self.op, self.start, end)
        )


@dataclass
class Context:
    """Everything one workload run needs; created by ``run.py``."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    root: Path
    work: Path
    tracer: Tracer = field(default_factory=Tracer)
    meter: "Meter" = field(init=False)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self.meter = Meter(self.tracer)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr, flush=True)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def child_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def subseed(self, *parts) -> int:
        """A seed derived from the run seed; the same parts give the
        same value in every process."""
        text = ":".join(str(p) for p in (self.seed, *parts))
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# Calibration: fixed interpreter work that calls no code under test.
# This machine's speed drifts by up to 1.8x within seconds to minutes,
# and CPU time drifts with wall time, so the cores themselves slow down.
# Every timed piece of work is bracketed by calibrations and its time
# scaled by a reference time (CAL_REFERENCE_S here) over their mean, which reports it at one
# reference speed.  Raw values go to the run record.  Over 75 s of
# alternating calibrations and PA, IS-1, instance generation and online
# runs, this mix (compile, JSON round trip, dict updates, string sort)
# cut the drift of 12-second medians from about 10% to 1-3%; an
# object-allocation mix left 4-6%.
_CAL_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    return [a * {i} + b for _ in range(3)]\n"
    for i in range(150)
)
_CAL_DATA = {f"k{i}": [i, str(i), {"x": i * 0.5}] for i in range(1500)}
CAL_REFERENCE_S = 0.035


def calibrate(per_cpu: bool = False) -> float:
    """Wall time of one pass of the calibration work, with the collector
    off so the cost does not depend on the process's heap.  With
    ``per_cpu`` one pass runs pinned to each allowed CPU in turn and the
    mean is returned: the speed of the whole machine, for work spread
    over several processes."""
    gc.disable()
    try:
        if not per_cpu:
            return _calibration_pass()
        cpus = os.sched_getaffinity(0)
        try:
            total = 0.0
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                total += _calibration_pass()
            return total / len(cpus)
        finally:
            os.sched_setaffinity(0, cpus)
    finally:
        gc.enable()


def _calibration_pass() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        compile(_CAL_SOURCE, "<calibration>", "exec")
        json.loads(json.dumps(_CAL_DATA))
        counts: dict[int, int] = {}
        for i in range(15000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        sorted(str(x) for x in range(4000))
    return time.perf_counter() - t0


class Timing:
    """Timed work: the raw wall times of its pieces, and their sum
    scaled to the reference speed.  Each piece is ``(seconds, index of
    the calibration taken right after it)``."""

    def __init__(self, meter: "Meter", pieces: list | None = None) -> None:
        self.meter = meter
        self.pieces: list[tuple[float, int]] = pieces or []

    @property
    def raw(self) -> float:
        return sum(seconds for seconds, _ in self.pieces)

    @property
    def value(self) -> float:
        return sum(seconds * self.meter.factor(i) for seconds, i in self.pieces)

    @property
    def factor(self) -> float:
        raw = self.raw
        return self.value / raw if raw else 1.0

    def __iadd__(self, other: "Timing") -> "Timing":
        self.pieces += other.pieces
        return self

    def like(self, seconds: float) -> "Timing":
        """``seconds`` of work done during this timing's last piece."""
        return Timing(self.meter, [(seconds, self.pieces[-1][1])])


class Meter:
    """Times pieces of work between calibrations.  The calibration that
    ends one piece also starts the next, unless more than ``_REUSE_S``
    of untimed work (validation) ran in between.  A piece is scaled by
    ``reference`` over the mean of the calibrations just before and
    after it.  (Medians over six calibrations around each piece steadied
    ten-run spreads no better: the drift is as fast as the pieces.)
    ``calibration`` is the calibration work, a callable returning its
    wall time; a workload may choose work that matches its own."""

    _REUSE_S = 0.25

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.calibration = calibrate
        self.reference = CAL_REFERENCE_S
        self._last_at: float | None = None
        self.calibrations: list[float] = []

    def _calibrate(self) -> None:
        with self.tracer.span("calibration"):
            self.calibrations.append(self.calibration())
        self._last_at = time.perf_counter()

    def factor(self, index: int) -> float:
        """Speed factor of the piece ended by calibration ``index``."""
        before, after = self.calibrations[index - 1], self.calibrations[index]
        return 2 * self.reference / (before + after)

    @contextmanager
    def timed(self):
        if self._last_at is None or time.perf_counter() - self._last_at > self._REUSE_S:
            self._calibrate()
        timing = Timing(self)
        t0 = time.perf_counter()
        yield timing
        seconds = time.perf_counter() - t0
        self._calibrate()
        timing.pieces.append((seconds, len(self.calibrations) - 1))


def measure_rounds(run_round, seconds: float) -> list[Timing]:
    """Run ``run_round(index)`` at least :data:`MIN_ROUNDS` times and
    then while another round fits in ``seconds``.  ``run_round`` returns
    the :class:`Timing` of its timed part."""
    rounds: list[Timing] = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(len(rounds)))
        if len(rounds) >= MIN_ROUNDS:
            elapsed = time.perf_counter() - started
            if elapsed + median([r.raw for r in rounds]) > seconds:
                return rounds


def run_measurement(ctx: Context, run_round):
    """The measured rounds: ``(untraced, traced)`` lists of
    :class:`Timing`; ``traced`` is None in an untraced run.

    Untraced runs spend all of ``ctx.seconds`` on untraced rounds.
    Traced runs spend half on untraced rounds, then replay round
    indices 0, 1, ... with spans on for the other half.
    """
    if not ctx.trace:
        plain, traced = measure_rounds(run_round, ctx.seconds), None
    else:
        plain = measure_rounds(run_round, ctx.seconds / 2)
        ctx.tracer.enabled = True
        try:
            traced = measure_rounds(run_round, ctx.seconds / 2)
        finally:
            ctx.tracer.enabled = False
    ctx.record["rounds"] = {"untraced": len(plain), "traced": len(traced or ())}
    ctx.record["calibration_s"] = ctx.meter.calibrations
    return plain, traced


def trace_metrics(ctx: Context, plain: list[Timing], traced: list[Timing]) -> dict:
    """Per-layer metrics of the workload's own traced rounds: the
    tracing overhead, spans per round and machine speed.  Self time per
    layer over the traced rounds goes to the run record."""
    rounds = len(traced)
    ctx.record["self_ms_per_round"] = {
        layer: ms / rounds for layer, ms in sorted(ctx.tracer.self_ms().items())
    }
    return {
        # Traced round i replays untraced round i's inputs.
        "trace.overhead_ms": (
            1e3 * median([t.value - u.value for u, t in zip(plain, traced)]),
            "ms",
        ),
        "trace.spans": (len(ctx.tracer.spans) / rounds, "count"),
        "speed.factor": (median([r.factor for r in plain + traced]), "ratio"),
    }


def setup_repeated(ctx: Context, setup_once, teardown=None, repeats: int = 5):
    """Set the workload up ``repeats`` times; returns the median
    speed-scaled set-up time and the last set-up's value.  Earlier
    values go to ``teardown`` (untimed) before the next set-up."""
    timings = []
    value = None
    for index in range(repeats):
        if index and teardown is not None:
            teardown(value)
        with ctx.meter.timed() as timing:
            value = setup_once(index)
        timings.append(timing)
    return time_metric(ctx, "setup_s", "s", timings)[0], value


def time_metric(ctx: Context, name: str, unit: str, timings: list[Timing],
                stat=None, scale: float = 1.0) -> tuple[float, str]:
    """``stat`` (default median) of the speed-scaled ``timings`` times
    ``scale``; the same statistic of the raw times, and every scaled
    sample, go to the record."""
    stat = stat or median
    ctx.record.setdefault("raw", {})[name] = scale * stat([t.raw for t in timings])
    ctx.record.setdefault("samples", {})[name] = [scale * t.value for t in timings]
    return scale * stat([t.value for t in timings]), unit


def detail(ctx: Context, name: str, metric: tuple[float, str]) -> None:
    """Record a workload-specific figure that is not a metric of the
    manifest (a per-class sum, a tail latency, a quality measure)."""
    ctx.record.setdefault("detail", {})[name] = {"value": metric[0], "unit": metric[1]}


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1..99), linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return statistics.median(values)


def digest(obj) -> str:
    text = obj if isinstance(obj, (bytes, str)) else json.dumps(obj, sort_keys=True)
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def source_digest(root: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src/`` — identifies the
    measured code in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def make_workdir(root: Path) -> Path:
    base = root / ".perfbench" / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
