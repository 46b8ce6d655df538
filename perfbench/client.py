"""Load generator: a fresh server process per launch, driven over real
keep-alive HTTP sockets from one asyncio client.

Open-loop connections send each request at its scheduled time whether or
not earlier ones have returned (HTTP/1.1 pipelining); latency runs from the
scheduled send to the decoded answer, so a stall also charges the requests
queued behind it.  The closed loop sends its next batch as soon as the
previous answer is decoded.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.workload import Op, Plan

SERVER = Path(__file__).resolve().parent / "server.py"
LAUNCH_TIMEOUT_S = 170.0
DRAIN_TIMEOUT_S = 60.0


class ServerProcess:
    """One launched server; ``setup_s`` runs from launch to healthy."""

    def __init__(self, workload: str, seed: int, n: int, *, wal_path: str | None = None,
                 trace_sample_rate: float = 0.0, trace_capacity: int = 256) -> None:
        command = [sys.executable, str(SERVER), "--workload", workload, "--seed", str(seed),
                   "--n", str(n), "--trace-sample-rate", str(trace_sample_rate),
                   "--trace-capacity", str(trace_capacity)]
        if wal_path is not None:
            command += ["--wal-path", wal_path]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], LAUNCH_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line.startswith(b"listening "):
                raise RuntimeError(f"server did not start (exit code {self.proc.poll()})")
            self.port = int(line.split()[1])
            health = get_json(self.port, "/healthz")
            if health.get("status") != "ok":
                raise RuntimeError(f"server unhealthy: {health}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def cpu_s(self) -> float:
        """CPU time the server has used so far (user + system, all threads)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def get_json(port: int, path: str) -> dict:
    """One blocking GET on a short-lived connection (health, scrapes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return json.loads(body)
    finally:
        conn.close()


class Result:
    """What one request saw: timing, status and the decoded answer."""

    __slots__ = ("op", "due", "sent", "done", "status", "body_bytes", "answer")

    def __init__(self, op: Op, due: float, sent: float | None) -> None:
        self.op = op
        self.due = due
        self.sent = sent
        self.done: float | None = None
        self.status = 0  # stays 0 when no response arrived
        self.body_bytes = 0
        self.answer: dict | None = None

    @property
    def ok(self) -> bool:
        return self.done is not None and 200 <= self.status < 300 and self.answer is not None

    @property
    def latency(self) -> float:
        return self.done - self.due

    def finish(self, status: int, body: bytes) -> None:
        self.status = status
        self.body_bytes = len(body)
        payload = json.loads(body)
        self.done = time.perf_counter()
        if 200 <= status < 300:
            self.answer = _columns(self.op.kind, payload)


def _columns(kind: str, payload: dict) -> dict:
    """Decoded JSON -> compact arrays for the oracle (after timing)."""
    if kind == "insert":
        return {"version": int(payload["version"]), "inserted": int(payload["inserted"])}
    if kind == "query":
        bound = payload["error_bound"]
        return {
            "values": np.array([payload["value"]], dtype=np.float64),
            "guaranteed": np.array([payload["guaranteed"]]),
            "fallback": np.array([payload["exact_fallback"]]),
            "bounds": np.array([np.nan if bound is None else bound]),
            "version": int(payload["version"]),
        }
    return {
        "values": np.array(payload["values"], dtype=np.float64),
        "guaranteed": np.array(payload["guaranteed"], dtype=bool),
        "fallback": np.array(payload["exact_fallback"], dtype=bool),
        "bounds": np.array([np.nan if b is None else b for b in payload["error_bounds"]]),
        "version": int(payload["version"]),
    }


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    status = int(line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _open_loop(port: int, ops: list[Op], t0: float, results: list[Result]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    inflight: asyncio.Queue[Result] = asyncio.Queue()

    async def receive() -> None:
        for _ in range(len(ops)):
            record = await inflight.get()
            status, body = await _read_response(reader)
            record.finish(status, body)

    receiver = asyncio.create_task(receive())
    try:
        for op in ops:
            record = Result(op, t0 + op.due, None)
            results.append(record)
            delay = record.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if receiver.done():
                continue  # the connection failed: never sent, counts as failed
            record.sent = time.perf_counter()
            writer.write(op.raw)
            inflight.put_nowait(record)
        await receiver
    finally:
        receiver.cancel()
        writer.close()


async def _closed_loop(port: int, pool: list[Op], end: float, results: list[Result]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        calls = 0
        while time.perf_counter() < end:
            op = pool[calls % len(pool)]
            calls += 1
            now = time.perf_counter()
            record = Result(op, now, None)  # closed loop: never late
            results.append(record)
            record.sent = time.perf_counter()
            writer.write(op.raw)
            status, body = await _read_response(reader)
            record.finish(status, body)
    finally:
        writer.close()


async def _drive(port: int, plan: Plan, seconds: float) -> list[Result]:
    results: list[Result] = []
    t0 = time.perf_counter() + 0.05
    tasks = [asyncio.create_task(_open_loop(port, ops, t0, results))
             for ops in plan.open_ops if ops]
    if plan.closed_pool:
        tasks.append(asyncio.create_task(
            _closed_loop(port, plan.closed_pool, t0 + seconds, results)))
    _, pending = await asyncio.wait(tasks, timeout=seconds + DRAIN_TIMEOUT_S)
    for task in pending:
        task.cancel()
    # A connection that broke or timed out leaves its requests unanswered;
    # they count as failed, so its exception needs no further handling.
    await asyncio.gather(*tasks, return_exceptions=True)
    return results


def drive(port: int, plan: Plan, seconds: float) -> list[Result]:
    """Run one plan against a live server; returns every request's record."""
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_drive(port, plan, seconds))
    finally:
        gc.enable()

