"""Scheduling-as-a-service: a long-running asyncio front-end over the
scheduler backends and the content-addressed result store.

``repro serve`` turns the PR-4 batch harness into a daemon that takes
sustained traffic (DESIGN.md §12).  The request path, in order:

1. **Canonicalize.**  The JSON body is parsed into a
   :class:`~repro.engine.backend.ScheduleRequest`; everything below is
   keyed by its :meth:`~repro.engine.backend.ScheduleRequest.cache_key`.
2. **Store first.**  A warm hit is answered straight from the
   :class:`~repro.engine.store.ResultStore` — bit-identical to the
   stored bytes, zero backend invocations, no queue interaction.
3. **Coalesce.**  If an identical request is already in flight, the
   new arrival awaits the *same* per-key future instead of spending a
   second backend invocation — N concurrent duplicates cost exactly
   one execution.
4. **Admit or reject.**  A miss that would start a new execution while
   ``queue_limit`` executions are already pending is rejected with
   HTTP 429 and a ``Retry-After`` header (backpressure, not queueing
   collapse).
5. **Execute.**  Admitted misses run on a bounded worker pool
   (processes by default) under a per-request timeout; the outcome is
   written back to the store (which may LRU-evict colder entries to
   stay under its size budget) and fanned out to every coalesced
   waiter.

The HTTP layer is deliberately tiny — stdlib ``asyncio`` streams and
hand-rolled HTTP/1.1 (no new dependencies), JSON in / JSON out,
``Connection: close``:

===========================  ===========================================
``POST /schedule``           body = inline request (see
                             :func:`~repro.engine.backend.request_from_payload`);
                             responds ``{"key", "source", "elapsed",
                             "outcome"}``
``GET  /metrics``            counters, rates, queue depth, latency
                             percentiles, store stats
``GET  /healthz``            liveness probe
``POST /shutdown``           graceful stop (drains, then exits)
===========================  ===========================================

:class:`ServiceClient` (blocking, ``urllib``-based) and
:func:`run_batch_remote` make ``repro batch --server URL`` the first
client: a manifest drained through a shared daemon instead of a
private pool.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .backend import (
    EngineError,
    ScheduleOutcome,
    ScheduleRequest,
    get_backend,
    request_from_payload,
    request_to_payload,
)
from .batch import BatchRecord, BatchReport
from .store import ResultStore

#: Deadline for reading one whole request — request line, headers and
#: body — before the connection is answered with 408 [s].
REQUEST_READ_TIMEOUT = 30.0
#: Largest accepted ``Content-Length``; a larger declared body is
#: answered with 413 before any of it is read [bytes].  The largest
#: request the repo's generators produce (a 100-task instance) is
#: about 54 KB.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Longest request line or header line; a longer one is answered with
#: 431 (the asyncio stream default) [bytes].
MAX_LINE_BYTES = 64 * 1024
#: Most header lines read per request; one more is answered with 431.
MAX_HEADER_COUNT = 100

__all__ = [
    "ServiceConfig",
    "ServiceMetrics",
    "SchedulerService",
    "ServiceThread",
    "ServiceClient",
    "ServiceError",
    "run_batch_remote",
]


class ServiceError(RuntimeError):
    """A request the service answered with a non-200 status."""

    def __init__(self, message: str, status: int = 500) -> None:
        super().__init__(message)
        self.status = status


class _RequestTimeout(ServiceError):
    def __init__(self, message: str) -> None:
        super().__init__(message, status=504)


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; 431 past ``MAX_LINE_BYTES``."""
    try:
        return await reader.readline()
    except ValueError:  # the stream's LimitOverrunError, re-raised
        raise ServiceError(
            f"request line or header over {MAX_LINE_BYTES} bytes", 431
        ) from None


@dataclass
class ServiceConfig:
    """Knobs of one daemon instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 8177  # 0 = pick a free port (bound port in .url)
    workers: int = 1  # backend executor size
    queue_limit: int = 64  # in-flight executions before 429
    request_timeout: float | None = 300.0  # per-execution deadline [s]
    retry_after: float = 1.0  # advertised 429 back-off [s]
    executor: str = "process"  # "process" | "thread" (tests/embedding)
    log_interval: float = 0.0  # periodic metrics log line [s]; 0 = off


class ServiceMetrics:
    """Counters + a bounded latency reservoir (p50/p99 over the last
    4096 answered requests)."""

    def __init__(self) -> None:
        self.requests = 0
        self.store_hits = 0
        self.coalesced = 0
        self.computed = 0
        self.failures = 0
        self.timeouts = 0
        self.rejected = 0
        self.queue_peak = 0
        self._latencies: deque[float] = deque(maxlen=4096)

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def latency_percentile(self, q: float) -> float:
        if not self._latencies:
            return 0.0
        data = sorted(self._latencies)
        return data[min(len(data) - 1, round(q * (len(data) - 1)))]

    def snapshot(self, queue_depth: int, store: ResultStore | None) -> dict:
        served = self.store_hits + self.coalesced + self.computed
        return {
            "requests": self.requests,
            "store_hits": self.store_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
            "hit_rate": self.store_hits / served if served else 0.0,
            "coalesce_rate": self.coalesced / served if served else 0.0,
            "queue_depth": queue_depth,
            "queue_peak": self.queue_peak,
            "latency_ms": {
                "p50": 1e3 * self.latency_percentile(0.50),
                "p99": 1e3 * self.latency_percentile(0.99),
                "window": len(self._latencies),
            },
            "store": store.stats if store is not None else None,
        }


def _execute_payload(payload: dict) -> dict:
    """Run one request on its backend (executor worker)."""
    request = request_from_payload(payload)
    return get_backend(request.algorithm).run(request).to_dict()


class SchedulerService:
    """The daemon: an asyncio HTTP server in front of a worker pool.

    Lifecycle: :meth:`start` binds and begins serving, :meth:`stop`
    closes down; :meth:`run` is start + wait-for-shutdown + stop in one
    awaitable (what the CLI and :class:`ServiceThread` drive).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        store: ResultStore | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store
        self.metrics = ServiceMetrics()
        self.port: int | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._server: asyncio.AbstractServer | None = None
        self._executor = None
        self._closing: asyncio.Event | None = None
        self._log_task: asyncio.Task | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> "SchedulerService":
        workers = max(1, self.config.workers)
        if self.config.executor == "thread":
            self._executor = ThreadPoolExecutor(max_workers=workers)
        else:
            self._executor = ProcessPoolExecutor(max_workers=workers)
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.log_interval > 0:
            self._log_task = asyncio.ensure_future(self._log_loop())
        return self

    async def stop(self) -> None:
        if self._log_task is not None:
            self._log_task.cancel()
            self._log_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def request_shutdown(self) -> None:
        if self._closing is not None:
            self._closing.set()

    async def run(self, on_ready: Callable[[], None] | None = None) -> None:
        await self.start()
        if on_ready is not None:
            on_ready()
        try:
            await self._closing.wait()
        finally:
            await self.stop()

    async def _log_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.log_interval)
            print(self.render_metrics_line(), flush=True)

    def render_metrics_line(self) -> str:
        snap = self.metrics.snapshot(len(self._inflight), self.store)
        store = snap["store"]
        return (
            f"serve: {snap['requests']} requests — "
            f"hits {snap['store_hits']} ({snap['hit_rate'] * 100:.0f}%), "
            f"coalesced {snap['coalesced']} "
            f"({snap['coalesce_rate'] * 100:.0f}%), "
            f"computed {snap['computed']}, rejected {snap['rejected']}, "
            f"depth {snap['queue_depth']} (peak {snap['queue_peak']}), "
            f"evictions {store['evictions'] if store else 0}, "
            f"p50 {snap['latency_ms']['p50']:.1f}ms "
            f"p99 {snap['latency_ms']['p99']:.1f}ms"
        )

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=REQUEST_READ_TIMEOUT
                )
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {"error": "request timed out"})
                return
            except ServiceError as exc:
                await self._respond(writer, exc.status, {"error": str(exc)})
                return
            if request is None:
                return
            method, target, body = request
            status, payload, extra = await self._route(
                method.upper(), target.partition("?")[0], body
            )
            await self._respond(writer, status, payload, extra)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        """``(method, target, body)`` of one request, or ``None`` when the
        client closed before sending a request line.  Raises
        :class:`ServiceError` (400/413/431) for a request refused unread."""
        request_line = await _read_line(reader)
        if not request_line:
            return None
        try:
            method, target, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ServiceError("malformed request", 400) from None
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_COUNT + 1):
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ServiceError(f"more than {MAX_HEADER_COUNT} headers", 431)
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ServiceError("invalid Content-Length", 400)
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body over {MAX_BODY_BYTES} bytes", 413
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    _STATUS_TEXT = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        408: "Request Timeout",
        413: "Content Too Large",
        429: "Too Many Requests",
        431: "Request Header Fields Too Large",
        500: "Internal Server Error",
        504: "Gateway Timeout",
    }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {self._STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, Mapping[str, str] | None]:
        if path == "/healthz":
            return 200, {"ok": True}, None
        if path == "/metrics":
            return 200, self.metrics.snapshot(len(self._inflight), self.store), None
        if path == "/shutdown" and method == "POST":
            self.request_shutdown()
            return 200, {"ok": True, "stopping": True}, None
        if path == "/schedule" and method == "POST":
            return await self._schedule(body)
        return 404, {"error": f"no route for {method} {path}"}, None

    # -- the request path ---------------------------------------------------

    async def _schedule(
        self, body: bytes
    ) -> tuple[int, dict, Mapping[str, str] | None]:
        t0 = time.perf_counter()
        self.metrics.requests += 1
        try:
            payload = json.loads(body.decode("utf-8"))
            request = request_from_payload(payload)
            get_backend(request.algorithm).check_request(request)
            key = request.cache_key()
        except (EngineError, ValueError, KeyError, TypeError) as exc:
            self.metrics.failures += 1
            return 400, {"error": str(exc)}, None

        # 1. Store first: warm hits bypass coalescing and admission.
        if self.store is not None:
            cached = await asyncio.to_thread(self.store.get, request)
            if cached is not None:
                self.metrics.store_hits += 1
                elapsed = time.perf_counter() - t0
                self.metrics.observe_latency(elapsed)
                return 200, self._envelope(key, "store", cached.to_dict(), elapsed), None

        # 2. Coalesce onto an identical in-flight execution, or admit.
        shared = self._inflight.get(key)
        if shared is not None:
            self.metrics.coalesced += 1
            source = "coalesced"
        else:
            depth = len(self._inflight)
            if depth >= self.config.queue_limit:
                self.metrics.rejected += 1
                return (
                    429,
                    {
                        "error": "queue full",
                        "queue_depth": depth,
                        "retry_after": self.config.retry_after,
                    },
                    {"Retry-After": f"{self.config.retry_after:g}"},
                )
            shared = asyncio.get_running_loop().create_future()
            self._inflight[key] = shared
            self.metrics.queue_peak = max(self.metrics.queue_peak, depth + 1)
            asyncio.ensure_future(self._execute(key, request, shared))
            source = "computed"

        # 3. Every waiter — leader included — shares one result.
        try:
            outcome_dict = await asyncio.shield(shared)
        except ServiceError as exc:
            return exc.status, {"error": str(exc), "key": key}, None
        except Exception as exc:  # defensive: never drop a connection
            return 500, {"error": str(exc), "key": key}, None
        elapsed = time.perf_counter() - t0
        self.metrics.observe_latency(elapsed)
        return 200, self._envelope(key, source, outcome_dict, elapsed), None

    @staticmethod
    def _envelope(key: str, source: str, outcome: dict, elapsed: float) -> dict:
        return {"key": key, "source": source, "elapsed": elapsed, "outcome": outcome}

    async def _execute(
        self, key: str, request: ScheduleRequest, future: asyncio.Future
    ) -> None:
        """Leader task for one cache key: run, store, fan out."""
        try:
            outcome_dict = await self._run_backend(request)
            self.metrics.computed += 1
            if self.store is not None:
                await asyncio.to_thread(
                    self.store.put, request, ScheduleOutcome.from_dict(outcome_dict)
                )
            if not future.done():
                future.set_result(outcome_dict)
        except asyncio.TimeoutError:
            self.metrics.timeouts += 1
            self.metrics.failures += 1
            if not future.done():
                future.set_exception(
                    _RequestTimeout(
                        f"request exceeded {self.config.request_timeout:g}s"
                    )
                )
        except Exception as exc:
            self.metrics.failures += 1
            if not future.done():
                status = 400 if isinstance(exc, EngineError) else 500
                future.set_exception(ServiceError(str(exc), status=status))
        finally:
            self._inflight.pop(key, None)

    async def _run_backend(self, request: ScheduleRequest) -> dict:
        loop = asyncio.get_running_loop()
        payload = request_to_payload(request)
        timeout = self.config.request_timeout
        try:
            work = loop.run_in_executor(self._executor, _execute_payload, payload)
            if timeout:
                return await asyncio.wait_for(work, timeout)
            return await work
        except (asyncio.TimeoutError, asyncio.CancelledError):
            # Not a pool failure (TimeoutError is an OSError on 3.11+).
            raise
        except (BrokenProcessPool, OSError, PermissionError):
            # Pool unavailable (sandbox, dead worker): run in a thread —
            # backends are pure functions of the request, so a re-run is
            # safe, just slower.
            work = asyncio.to_thread(_execute_payload, payload)
            if timeout:
                return await asyncio.wait_for(work, timeout)
            return await work


class ServiceThread:
    """A service running on its own event loop in a daemon thread —
    the embedding used by tests, benchmarks and in-process smoke
    drivers.  ``with ServiceThread(config, store) as handle: ...``
    yields a started handle whose ``.url`` is ready for clients."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        store: ResultStore | None = None,
    ) -> None:
        self.service = SchedulerService(config, store=store)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return self.service.url

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return self

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            await self.service.run(on_ready=self._ready.set)

        try:
            asyncio.run(_main())
        finally:
            self._ready.set()  # unblock start() even on failure

    def stop(self) -> None:
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.service.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServiceClient:
    """Blocking JSON-over-HTTP client (stdlib ``urllib`` only).

    :meth:`schedule` retries 429 backpressure responses using the
    server-advertised ``Retry-After`` (bounded by ``max_attempts``);
    every other non-200 raises :class:`ServiceError`.
    """

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request_raw(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict, Mapping[str, str]]:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8")), dict(resp.headers)
        except urllib.error.HTTPError as err:
            raw = err.read().decode("utf-8", "replace")
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError:
                parsed = {"error": raw or err.reason}
            return err.code, parsed, dict(err.headers or {})

    def schedule(
        self,
        request: "ScheduleRequest | dict",
        retry_backpressure: bool = True,
        max_attempts: int = 60,
        timing: dict | None = None,
    ) -> dict:
        """POST one request.  Pass a dict as ``timing`` to receive the
        client-side cost breakdown: ``attempts``, ``http_s`` (time in
        ``urlopen``), ``backpressure_wait_s`` (429 Retry-After sleeps),
        and ``total_s`` — populated even when the call raises, so
        remote profiles account for failed requests too."""
        payload = (
            request_to_payload(request)
            if isinstance(request, ScheduleRequest)
            else dict(request)
        )
        attempts = max(1, max_attempts)
        t_start = time.perf_counter()
        http_s = 0.0
        wait_s = 0.0
        tries = 0
        try:
            for attempt in range(attempts):
                tries += 1
                t_http = time.perf_counter()
                try:
                    status, body, headers = self.request_raw(
                        "POST", "/schedule", payload
                    )
                finally:
                    http_s += time.perf_counter() - t_http
                if status == 429 and retry_backpressure and attempt < attempts - 1:
                    try:
                        delay = float(headers.get("Retry-After", 1.0))
                    except (TypeError, ValueError):
                        delay = 1.0
                    delay = max(0.05, delay)
                    wait_s += delay
                    time.sleep(delay)
                    continue
                if status != 200:
                    raise ServiceError(
                        str(body.get("error", f"HTTP {status}")), status=status
                    )
                return body
            raise ServiceError("backpressure retries exhausted", status=429)
        finally:
            if timing is not None:
                timing.update(
                    attempts=tries,
                    http_s=http_s,
                    backpressure_wait_s=wait_s,
                    total_s=time.perf_counter() - t_start,
                )

    def metrics(self) -> dict:
        status, body, _ = self.request_raw("GET", "/metrics")
        if status != 200:
            raise ServiceError(str(body.get("error", status)), status=status)
        return body

    def healthy(self) -> bool:
        try:
            status, body, _ = self.request_raw("GET", "/healthz")
        except (urllib.error.URLError, ConnectionError, OSError):
            return False
        return status == 200 and bool(body.get("ok"))

    def wait_ready(self, deadline: float = 30.0) -> bool:
        t_end = time.monotonic() + deadline
        while time.monotonic() < t_end:
            if self.healthy():
                return True
            time.sleep(0.1)
        raise ServiceError(f"service at {self.base_url} not ready in {deadline:g}s")

    def shutdown(self) -> None:
        try:
            self.request_raw("POST", "/shutdown")
        except (urllib.error.URLError, ConnectionError, OSError):
            pass  # already gone


def _remote_profile_report(
    timing: Mapping, body: Mapping | None, error: str | None
) -> dict:
    """A client-side profile for one remote request, shaped like a
    :meth:`repro.perf.PhaseProfiler.report` (``total_wall_s`` +
    ``phases`` with ``wall_s``/``calls``/``wall_pct``) so the same
    tooling reads local and remote profiles.  The backend's own phase
    split lives server-side; what the client can attribute is the HTTP
    round-trip and any 429 backpressure waits."""
    total = timing.get("total_s", 0.0)

    def _phase(wall: float, calls: int) -> dict:
        return {
            "wall_s": wall,
            "cpu_s": 0.0,
            "calls": calls,
            "wall_pct": (wall / total * 100.0) if total > 0 else 0.0,
        }

    attempts = int(timing.get("attempts", 1))
    report = {
        "remote": True,
        "total_wall_s": total,
        "phases": {
            "http_roundtrip": _phase(timing.get("http_s", 0.0), attempts),
            "backpressure_wait": _phase(
                timing.get("backpressure_wait_s", 0.0), max(0, attempts - 1)
            ),
        },
        "counters": {"attempts": attempts},
    }
    if body is not None:
        report["server"] = {
            "source": body.get("source", "computed"),
            "elapsed": body.get("elapsed", 0.0),
        }
    if error is not None:
        report["error"] = error
    return report


def run_batch_remote(
    requests: Sequence[ScheduleRequest],
    server: str,
    jobs: int = 8,
    progress: Callable[[str], None] | None = None,
    timeout: float = 600.0,
    profile_dir: str | Path | None = None,
) -> BatchReport:
    """Drain a manifest through a running service (``repro batch
    --server URL``).

    Each request is POSTed to ``/schedule`` from a small thread pool
    (HTTP waits are I/O-bound — the server owns the compute
    concurrency); 429s honor ``Retry-After`` and retry, hard failures
    become ``source="failed"`` records.  Records keep manifest order.

    ``profile_dir`` writes one ``item-<index>.json`` per request with
    the *client-side* cost breakdown (HTTP round-trip, backpressure
    queue wait, server-reported elapsed) — the remote counterpart of
    ``run_batch``'s per-request phase profiles.
    """
    client = ServiceClient(server, timeout=timeout)
    t_start = time.perf_counter()
    profile_path: Path | None = None
    if profile_dir is not None:
        profile_path = Path(profile_dir)
        profile_path.mkdir(parents=True, exist_ok=True)

    def _one(indexed: tuple[int, ScheduleRequest]) -> BatchRecord:
        index, request = indexed
        key = request.cache_key()
        timing: dict = {}
        body = None
        error = None
        try:
            body = client.schedule(request, timing=timing)
        except (ServiceError, urllib.error.URLError, ConnectionError, OSError) as exc:
            error = str(exc)
        if profile_path is not None:
            (profile_path / f"item-{index}.json").write_text(
                json.dumps(
                    _remote_profile_report(timing, body, error),
                    indent=2,
                    sort_keys=True,
                )
            )
        if error is not None:
            return BatchRecord(
                index=index,
                key=key,
                algorithm=request.algorithm,
                instance=request.instance.name,
                source="failed",
                feasible=False,
                makespan=0.0,
                elapsed=0.0,
                error=error,
            )
        outcome = body["outcome"]
        return BatchRecord(
            index=index,
            key=body.get("key", key),
            algorithm=request.algorithm,
            instance=request.instance.name,
            source=body.get("source", "computed"),
            feasible=outcome["feasible"],
            makespan=outcome["makespan"],
            elapsed=body.get("elapsed", 0.0),
        )

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        records = list(pool.map(_one, enumerate(requests)))
    if progress is not None:
        for record in records:
            if record.source == "failed":
                progress(f"[{record.index}] FAILED: {record.error}")
            else:
                progress(
                    f"[{record.index}] {record.algorithm} {record.instance}: "
                    f"{record.source} makespan={record.makespan:.1f}"
                )
    return BatchReport(records=records, elapsed=time.perf_counter() - t_start)
