"""PolyFit end-to-end benchmark: socket-to-answer latency and throughput.

    python3 perfbench/run.py --workload serve-scalar --seed 1 --seconds 20 --trace 0

Each run launches fresh server processes (``perfbench/server.py``) over
records generated from ``--seed``, drives one of them over keep-alive HTTP
for ``--seconds``, checks every answer against an independent oracle and
prints one JSON line per result; the last line is
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: set-up time, the server's CPU
time per answered query, answer error and peak memory.  Client-visible
latency (p50/p90/p99 per request kind) and batch throughput are measured
and printed on the report line, but are not metrics: on a shared host they
move with the CPU time the host takes away from the VM (steal) by far more
than any bound a regression gate could use; the server's CPU time moves
much less.  ``--trace 1`` drives an untraced and then a traced server
(trace sampling 1.0) and reports the per-layer metrics: server spans and
instruments plus in-process timings of each layer's public functions on the
same inputs (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run it from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro import Aggregate  # noqa: E402
from repro.index.guarantees import certified_absolute_bound  # noqa: E402
from repro.kernels import runtime_info  # noqa: E402

from perfbench import workload as wl  # noqa: E402
from perfbench.client import Result, ServerProcess, drive, get_json  # noqa: E402
from perfbench.layers import traced_layers  # noqa: E402
from perfbench.oracle import (  # noqa: E402
    Verdict, check_answers, max_truth, sum_truth, visible_sum_truth,
)

#: Server launches per run; ``setup_s`` is their median, the last is driven.
SETUPS = 2
#: The generator counts as fallen behind past these send delays (ms).
LATE_P99_LIMIT_MS = 20.0
LATE_MAX_LIMIT_MS = 250.0
TRACE_CAPACITY = 1 << 17
SCRATCH = ROOT / ".perfbench_tmp"

E2E_UNITS = {
    "setup_s": "s", "server_cpu_us_per_query": "us", "mean_rel_err": "ratio", "rss_mb": "MB",
}


@dataclass
class Drive:
    """One driven server: its requests and what it reported afterwards."""

    setup_s: float
    results: list[Result]
    end: float
    server_cpu_s: float  # over the drive
    rss_mb: float
    wal_bytes: int
    scraped: dict = field(default_factory=dict)

    @property
    def cpu_per_query_s(self) -> float:
        """Server CPU seconds per query answered (scalar and batched); the
        CPU covers all the server did over the drive, inserts included."""
        answered = sum(r.op.lows.size for r in self.results if r.ok and r.op.lows is not None)
        return self.server_cpu_s / max(answered, 1)


@dataclass
class Outcome:
    """Oracle and failure accounting over one drive."""

    verdict: Verdict
    attempted: int
    failed: int
    statuses: dict[str, int]  # HTTP status of failed requests ("0": no answer)
    latencies: dict[str, list[float]]  # kind -> ms, failures included
    batch_queries: int
    batch_seconds: float


@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A temporary directory inside the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):  # still in use by another directory
            SCRATCH.rmdir()


@contextmanager
def launched(args, *, trace_sample_rate: float = 0.0) -> Iterator[tuple[ServerProcess, Path]]:
    """A fresh server (and fresh WAL) for the block; both go afterwards.

    Yields the server and its WAL path (which exists on ingest-mixed only).
    """
    with scratch_dir("run-") as run_dir:
        wal = Path(run_dir) / "ingest.wal"
        server = ServerProcess(
            args.workload, args.seed, args.n,
            wal_path=str(wal) if args.workload == "ingest-mixed" else None,
            trace_sample_rate=trace_sample_rate,
            trace_capacity=TRACE_CAPACITY if trace_sample_rate else 256,
        )
        try:
            yield server, wal
        finally:
            server.stop()


def setup_only(args) -> float:
    with launched(args) as (server, _):
        return server.setup_s


def launch_and_drive(args, plan: wl.Plan, *, trace_sample_rate: float = 0.0) -> Drive:
    with launched(args, trace_sample_rate=trace_sample_rate) as (server, wal):
        cpu_before = server.cpu_s()
        results = drive(server.port, plan, args.seconds)
        end = time.perf_counter()
        server_cpu_s = server.cpu_s() - cpu_before
        scraped = {}
        if trace_sample_rate:
            scraped = {"traces": get_json(server.port, "/traces"),
                       "metrics": get_json(server.port, "/metrics.json")}
        return Drive(server.setup_s, results, end, server_cpu_s, server.peak_rss_mb(),
                     wal.stat().st_size if wal.exists() else 0, scraped)


def attach_static_truth(plan: wl.Plan, records: wl.Records) -> None:
    """Precompute the truth of every query against the static indexes."""
    ops = [op for conn in plan.open_ops for op in conn] + plan.closed_pool
    for index, measures, truth_fn in (("default", records.sums, sum_truth),
                                      ("max", records.walk, max_truth)):
        picked = [op for op in ops if op.lows is not None and op.index == index]
        if not picked:
            continue
        lows = np.concatenate([op.lows for op in picked])
        highs = np.concatenate([op.highs for op in picked])
        truth = truth_fn(records.keys, measures, lows, highs)
        offset = 0
        for op in picked:
            op.truth = truth[offset:offset + op.lows.size]
            offset += op.lows.size


def ingest_truth(results: list[Result], plan: wl.Plan, records: wl.Records) -> dict:
    """Truth per answered query, from the rows visible at its version.

    Chunk ``c`` is visible at version ``v`` once its insert was acknowledged
    with a version ``<= v``.  After the first unacknowledged chunk nothing
    newer can be verified, so such answers get no truth (and count as
    misses).
    """
    acks: dict[int, int] = {r.op.chunk: r.answer["version"] for r in results
                            if r.op.kind == "insert" and r.op.chunk >= 0 and r.ok}
    acked = []
    for chunk in range(len(acks) + 1):
        if chunk not in acks:
            break
        acked.append(acks[chunk])
    limit = acked[-1] if acked else 0
    answered = [r for r in results if r.op.lows is not None and r.ok
                and r.answer["version"] <= limit]
    if not answered:
        return {}
    lows = np.concatenate([r.op.lows for r in answered])
    highs = np.concatenate([r.op.highs for r in answered])
    visible = np.concatenate([
        np.full(r.op.lows.size, np.searchsorted(acked, r.answer["version"], side="right"))
        for r in answered
    ])
    truth = visible_sum_truth(records.keys, records.sums, plan.insert_keys,
                              plan.insert_sums, wl.INGEST_CHUNK, visible, lows, highs)
    out, offset = {}, 0
    for r in answered:
        out[id(r)] = truth[offset:offset + r.op.lows.size]
        offset += r.op.lows.size
    return out


def _size(op: wl.Op) -> int:
    """Operations one request stands for: its queries, or one insert."""
    return op.lows.size if op.lows is not None else 1


def assess(d: Drive, plan: wl.Plan, records: wl.Records, workload: str) -> Outcome:
    """Oracle verdict, failure counts and latencies of one drive."""
    truths = ingest_truth(d.results, plan, records) if workload == "ingest-mixed" else {}
    verdict = Verdict()
    latencies: dict[str, list[float]] = {"query": [], "batch": [], "insert": []}
    attempted = failed = batch_queries = 0
    batch_seconds = 0.0
    statuses: dict[str, int] = {}
    for r in d.results:
        size = _size(r.op)
        attempted += size
        if not r.ok:
            failed += size
            statuses[str(r.status)] = statuses.get(str(r.status), 0) + 1
            latencies[r.op.kind].append((d.end - r.due) * 1e3)
            continue
        latencies[r.op.kind].append(r.latency * 1e3)
        if r.op.kind == "batch":
            batch_queries += size
            batch_seconds += r.latency
        if r.op.kind == "insert":
            miss = int(r.answer["inserted"] != r.op.keys.size)
            verdict.add(Verdict(checked=1, misses=miss))
            failed += miss
            continue
        truth = truths.get(id(r)) if workload == "ingest-mixed" else r.op.truth
        if truth is None:
            failed += size
            verdict.add(Verdict(checked=size, misses=size))
            continue
        a = r.answer
        _, v = check_answers(a["values"], a["guaranteed"], a["fallback"],
                                  a["bounds"], truth, r.op.eps_rel)
        verdict.add(v)
        failed += v.misses
    # Requests a timed-out drive never scheduled failed too.
    open_ops = {id(op): op for conn in plan.open_ops for op in conn}
    recorded = {id(r.op) for r in d.results}
    missing = sum(_size(op) for key, op in open_ops.items() if key not in recorded)
    attempted += missing
    failed += missing
    return Outcome(verdict, attempted, failed, statuses, latencies, batch_queries,
                   batch_seconds)


def e2e_metrics(d: Drive, o: Outcome, setups: list[float]) -> dict[str, float]:
    """On the open-loop workloads the queries answered are fixed by the
    schedule; on bulk-batch they are what the closed loop got done."""
    return {
        "setup_s": statistics.median(setups),
        "server_cpu_us_per_query": d.cpu_per_query_s * 1e6,
        "mean_rel_err": o.verdict.mean_rel_err,
        "rss_mb": d.rss_mb,
    }


def client_view(o: Outcome) -> dict:
    """What the client saw: latency percentiles (ms) per request kind, and
    batched queries answered per second of batch-call latency."""
    return {
        "latency_ms": {kind: {f"p{q}": float(np.percentile(values, q)) for q in (50, 90, 99)}
                       for kind, values in o.latencies.items() if values},
        "batch_qps": o.batch_queries / o.batch_seconds if o.batch_seconds else 0.0,
    }


def lateness(d: Drive, plan: wl.Plan) -> dict:
    """How late the open-loop generator sent, and whether it fell behind."""
    scheduled = {id(op) for conn in plan.open_ops for op in conn}
    late = np.array([(r.sent - r.due) * 1e3 for r in d.results
                     if id(r.op) in scheduled and r.sent is not None])
    p99 = float(np.percentile(late, 99)) if late.size else 0.0
    worst = float(late.max()) if late.size else 0.0
    return {"late_p99_ms": p99, "late_max_ms": worst,
            "valid": p99 <= LATE_P99_LIMIT_MS and worst <= LATE_MAX_LIMIT_MS}


def cpu_steal() -> tuple[int, int]:
    """(steal, total) CPU ticks so far: time the host gave this VM's CPUs
    to others, which slows every run it overlaps."""
    with open("/proc/stat", encoding="ascii") as stat:
        ticks = [int(t) for t in stat.readline().split()[1:]]
    return ticks[7], sum(ticks)


def git_sha() -> str | None:
    """The checked-out commit, when the tree is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.exists() else None


def stamp(args) -> dict:
    """Where and on what the numbers were measured."""
    return {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "kernels": runtime_info(), "n": args.n,
        "batch_sizes": {"bulk": wl.BULK_BATCH, "probe": wl.PROBE_BATCH},
        "seed": args.seed, "seconds": args.seconds, "git_sha": git_sha(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=wl.N_KEYS,
                        help="base records (smaller for quick checks)")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its server (via the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    records = wl.make_records(args.seed, args.n)
    bound = certified_absolute_bound(wl.SUM_DELTA, Aggregate.SUM)
    plan = wl.make_plan(args.workload, args.seed, args.seconds, records, bound)
    attach_static_truth(plan, records)

    steal_before = cpu_steal()
    setups = [setup_only(args) for _ in range(SETUPS - 1)]
    base = launch_and_drive(args, plan)
    steal_after = cpu_steal()
    setups.append(base.setup_s)
    outcome = assess(base, plan, records, args.workload)
    metrics = e2e_metrics(base, outcome, setups)
    units = E2E_UNITS
    report = {
        "workload": args.workload, "trace": args.trace, "stamp": stamp(args),
        "cpu_steal_frac": (steal_after[0] - steal_before[0])
        / max(steal_after[1] - steal_before[1], 1),
        **lateness(base, plan), "setups_s": setups,
        "samples": {kind: len(values) for kind, values in outcome.latencies.items()},
        "fail_frac": outcome.failed / max(outcome.attempted, 1),
        "failed_statuses": outcome.statuses,
        "oracle": {"checked": outcome.verdict.checked, "misses": outcome.verdict.misses,
                   "fallbacks": outcome.verdict.fallbacks},
        "end_to_end": metrics, **client_view(outcome),
    }
    attempted, failed = outcome.attempted, outcome.failed
    checked, misses = outcome.verdict.checked, outcome.verdict.misses
    if args.trace:
        traced = launch_and_drive(args, plan, trace_sample_rate=1.0)
        traced_outcome = assess(traced, plan, records, args.workload)
        with scratch_dir("replay-") as replay_dir:
            metrics, units = traced_layers(args, plan, records, base, traced,
                                           traced_outcome, lateness(base, plan), replay_dir)
        attempted += traced_outcome.attempted
        failed += traced_outcome.failed
        checked += traced_outcome.verdict.checked
        misses += traced_outcome.verdict.misses
        report["per_layer"] = metrics
    print(json.dumps(report))
    print(json.dumps({
        "correct": checked > 0 and misses == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
