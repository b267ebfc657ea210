"""A ``repro serve`` daemon process for the benchmark: started in its
own process group, ready once it prints its URL, stopped and reaped
with every process of the group on every exit path."""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness

from repro.engine import ServiceClient, ServiceError

_READY = re.compile(r"serving on (http://\S+)")


class Daemon:
    """One ``repro serve`` process in its own process group, so that
    its pool worker is stopped with it."""

    def __init__(self, ctx: harness.Context, store: Path) -> None:
        self.log = open(ctx.work / f"daemon-{store.name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--store", str(store)],
            cwd=ctx.root,
            env=ctx.child_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            start_new_session=True,
        )
        try:
            self.url = self._wait_ready(timeout=60.0)
        except BaseException:
            _signal_group(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            _wait_group_gone(self.proc.pid, timeout=10.0)
            self.proc.stdout.close()
            self.log.close()
            raise
        self.client = ServiceClient(self.url, timeout=60.0)

    def _wait_ready(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        buffer = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buffer:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("repro serve did not become ready")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"repro serve exited {self.proc.wait()}")
                buffer += chunk
        match = _READY.search(buffer.decode(errors="replace"))
        if not match:
            raise RuntimeError(f"unexpected daemon banner {buffer!r}")
        return match.group(1)

    def metrics(self) -> dict:
        status, body, _ = self.client.request_raw("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics returned {status}", status=status)
        return body

    def stop(self) -> None:
        """Ask for a clean shutdown; escalate to signals on the whole
        process group; return once every process in it has ended."""
        pgid = self.proc.pid
        try:
            if self.proc.poll() is None:
                try:
                    self.client.request_raw("POST", "/shutdown")
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    _signal_group(pgid, signal.SIGTERM)
                    try:
                        self.proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        _signal_group(pgid, signal.SIGKILL)
                        self.proc.wait()
            _wait_group_gone(pgid, timeout=10.0)
        finally:
            self.proc.stdout.close()
            self.log.close()


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    _signal_group(pgid, signal.SIGKILL)
