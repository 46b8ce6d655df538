"""Per-layer attribution for the traced run (``--trace 1``).

Three sources, all on the same generated inputs as the end-to-end run:

* the traced server's own record: ``/traces`` (sampling 1.0) for the
  coalescer queue wait, epoch pin and engine execution of every ``/query``,
  and ``/metrics.json`` for HTTP routing time, coalescer batches and WAL
  fsyncs;
* the client's record of the same requests (wire time, body sizes,
  generator lateness);
* in-process timings of each layer's public functions (index build, the
  engine stages, and a replay of the run's inserts for insert, compaction
  and overlay costs).

HTTP and coverage figures refer to the workload's headline request kind:
``/query_batch`` on bulk-batch, ``/query`` elsewhere.  The tracing overhead
is the traced server's extra CPU time per answered query.
Layers a workload does not exercise report 0.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro import Guarantee, PolyFitIndex, UpdatablePolyFitIndex
from repro.index.directory import SegmentDirectory
from repro.queries.batch import resolve_batch_certificates

from perfbench import workload as wl

ENDPOINTS = {"query": "/query", "batch": "/query_batch", "insert": "/insert"}
REPS = 7
CALLS = 300  # batch-of-one calls timed per index

PER_LAYER_UNITS = {
    "http.wire_ms": "ms", "http.route_ms": "ms", "http.body_kb": "KiB",
    "coalescer.queue_wait_ms": "ms", "coalescer.flush_ms": "ms",
    "coalescer.batch_size": "count", "host.pin_ms": "ms", "host.exec_ms": "ms",
    "engine.call_us": "us", "engine.estimate_ns": "ns", "engine.locate_ns": "ns",
    "engine.certify_ns": "ns", "engine.exact_ns": "ns", "engine.fallback_ratio": "ratio",
    "overlay.snapshot_ms": "ms", "overlay.delta_ns": "ns", "ingest.insert_ms": "ms",
    "ingest.compactions": "count", "ingest.compact_ms": "ms",
    "ingest.compact_max_ms": "ms", "wal.fsyncs": "count", "wal.fsync_ms": "ms",
    "wal.bytes_per_row": "B", "build.s": "s", "build.segments": "count",
    "client.late_p99_ms": "ms", "client.late_max_ms": "ms",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


# ---------------------------------------------------------------------- #
# Server-side record
# ---------------------------------------------------------------------- #


def _samples(snapshot: dict, name: str, **labels: str) -> list[dict]:
    samples = snapshot.get(name, {}).get("samples", [])
    return [s for s in samples if all(s["labels"].get(k) == v for k, v in labels.items())]


def _total(snapshot: dict, name: str, field: str = "value", **labels: str) -> float:
    return float(sum(s[field] for s in _samples(snapshot, name, **labels)))


def _mean(snapshot: dict, name: str, **labels: str) -> float:
    count = _total(snapshot, name, "count", **labels)
    return _total(snapshot, name, "sum", **labels) / count if count else 0.0


def _span_means(traces: dict) -> dict[str, float]:
    """Mean milliseconds per span name over the traced ``/query`` requests."""
    totals: dict[str, float] = {}
    payloads = traces.get("traces", [])
    for trace in payloads:
        for span in trace["spans"]:
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["duration_ms"]
    return {name: total / len(payloads) for name, total in totals.items()} if payloads else {}


def server_layers(traced, kind: str, insert_rows: int) -> dict[str, float]:
    snap = traced.scraped["metrics"]
    spans = _span_means(traced.scraped["traces"])
    ok = [r for r in traced.results if r.ok and r.op.kind == kind]
    endpoint = ENDPOINTS[kind]
    route_s = _total(snap, "repro_http_request_seconds", "sum", endpoint=endpoint)
    route_n = _total(snap, "repro_http_request_seconds", "count", endpoint=endpoint)
    client_rtt = sum(r.done - r.sent for r in ok)
    return {
        "http.wire_ms": (client_rtt - route_s) / len(ok) * 1e3 if ok else 0.0,
        "http.route_ms": route_s / route_n * 1e3 if route_n else 0.0,
        "http.body_kb": sum(len(r.op.raw) + r.body_bytes for r in ok) / len(ok) / 1024
        if ok else 0.0,
        "coalescer.queue_wait_ms": _mean(snap, "repro_coalescer_queue_wait_seconds") * 1e3,
        "coalescer.flush_ms": _mean(snap, "repro_coalescer_flush_seconds") * 1e3,
        "coalescer.batch_size": _mean(snap, "repro_coalescer_batch_size"),
        "host.pin_ms": spans.get("pin", 0.0),
        "host.exec_ms": spans.get("engine_exec", 0.0),
        "wal.fsyncs": _total(snap, "repro_wal_fsyncs_total"),
        "wal.fsync_ms": _mean(snap, "repro_wal_fsync_seconds") * 1e3,
        "wal.bytes_per_row": traced.wal_bytes / insert_rows if insert_rows else 0.0,
    }


# ---------------------------------------------------------------------- #
# In-process timings of the layers' public functions
# ---------------------------------------------------------------------- #


def _median_s(fn, reps: int = REPS) -> float:
    fn()  # warm lazy payloads and caches
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def engine_layers(
    index: PolyFitIndex, eps_rel: float, keys: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> dict[str, float]:
    """Per-query engine stage costs on one batch, a batch-of-one call, and
    the whole batch call (``batch_call_s``)."""
    n = lows.size
    relative = Guarantee.relative(eps_rel)
    directory = SegmentDirectory.from_segments(index.segments)
    # The directory is probed at the bounds snapped to the record keys.
    corners = np.concatenate((
        keys[np.clip(np.searchsorted(keys, highs, side="right") - 1, 0, None)],
        keys[np.clip(np.searchsorted(keys, lows, side="left") - 1, 0, None)],
    ))
    approx = index.estimate_batch(lows, highs)
    fallback = index.query_batch(lows, highs, relative).exact_fallback
    guarantees = (None, Guarantee.absolute(index.certified_bound), relative)
    calls = min(CALLS, n)

    def batch_of_one() -> None:
        for i in range(calls):
            index.query_batch(lows[i:i + 1], highs[i:i + 1], guarantees[i % 3])

    return {
        "engine.call_us": _median_s(batch_of_one, 3) / calls * 1e6,
        "engine.estimate_ns": _median_s(lambda: index.estimate_batch(lows, highs)) / n * 1e9,
        "engine.locate_ns": _median_s(lambda: directory.locate_batch(corners)) / n * 1e9,
        "engine.certify_ns": _median_s(lambda: resolve_batch_certificates(
            approx, error_bound=index.certified_bound, guarantee=relative,
            exact_for_mask=lambda mask: np.zeros(int(mask.sum())),
            absolute_fallback=False,
        )) / n * 1e9,
        "engine.exact_ns": _median_s(
            lambda: index.exact_batch(lows[fallback], highs[fallback])
        ) / max(int(fallback.sum()), 1) * 1e9,
        "batch_call_s": _median_s(lambda: index.query_batch(lows, highs, relative)),
    }


def ingest_layers(
    updatable: UpdatablePolyFitIndex, inserts: list[wl.Op], lows, highs, *, queried: bool
) -> dict[str, float]:
    """Replay the run's inserts in order: insert, compaction and overlay
    costs.  ``queried`` says whether the run's queries read this index
    (otherwise its overlay is off the query path and reports 0)."""
    insert_ms, compact_ms, snapshot_ms = [], [], []
    delta_ns = 0.0
    half_full = updatable.policy.max_buffer // 2
    for op in inserts:
        epoch = updatable.epoch
        started = time.perf_counter()
        updatable.insert(op.keys, op.sums)
        elapsed = (time.perf_counter() - started) * 1e3
        (compact_ms if updatable.epoch != epoch else insert_ms).append(elapsed)
        started = time.perf_counter()
        overlay = updatable.snapshot()
        snapshot_ms.append((time.perf_counter() - started) * 1e3)
        if queried and not delta_ns and updatable.buffer_size >= half_full:
            base = overlay.base
            delta_ns = (
                _median_s(lambda: overlay.estimate_batch(lows, highs))
                - _median_s(lambda: base.estimate_batch(lows, highs))
            ) / lows.size * 1e9
    return {
        "ingest.insert_ms": statistics.median(insert_ms) if insert_ms else 0.0,
        "ingest.compactions": float(len(compact_ms)),
        "ingest.compact_ms": statistics.fmean(compact_ms) if compact_ms else 0.0,
        "ingest.compact_max_ms": max(compact_ms, default=0.0),
        "overlay.snapshot_ms": statistics.median(snapshot_ms) if queried else 0.0,
        "overlay.delta_ns": delta_ns,
    }


def in_process_layers(
    args, plan: wl.Plan, records: wl.Records, wal_dir: str
) -> dict[str, float]:
    """Build the workload's indexes here and time each layer on them.

    The ingest index gets a WAL in ``wal_dir``, as on the server, so the
    replayed inserts and compactions pay the same fsyncs.
    """
    rng = np.random.default_rng([args.seed, 5])
    lows, highs = wl.query_ranges(rng, records.keys, wl.BULK_BATCH)
    started = time.perf_counter()
    indexes = wl.build_indexes(args.workload, records, args.seed,
                               wal_path=Path(wal_dir) / "replay.wal")
    out = {"build.s": time.perf_counter() - started,
           "build.segments": float(sum(index.num_segments for index in indexes.values()))}
    ingest = args.workload == "ingest-mixed"
    updatable = indexes["default"] if ingest else indexes["side"]
    engines = [(updatable.base if ingest else indexes["default"], wl.SUM_EPS_REL)]
    if "max" in indexes:
        engines.append((indexes["max"], wl.MAX_EPS_REL))
    stages = [engine_layers(index, eps, records.keys, lows, highs) for index, eps in engines]
    for name in stages[0]:
        out[name] = statistics.fmean(stage[name] for stage in stages)
    inserts = [op for conn in plan.open_ops for op in conn if op.kind == "insert"]
    try:
        out.update(ingest_layers(updatable, inserts, lows, highs, queried=ingest))
    finally:
        if updatable.wal is not None:
            updatable.wal.close()
    return out


def traced_layers(args, plan, records, base, traced, traced_outcome, late: dict,
                  wal_dir: str):
    """Every per-layer metric of one workload, with their units."""
    kind = "batch" if args.workload == "bulk-batch" else "query"  # the headline kind
    insert_rows = sum(r.op.keys.size for r in traced.results
                      if r.ok and r.op.kind == "insert" and r.op.chunk >= 0)
    metrics = server_layers(traced, kind, insert_rows)
    metrics.update(in_process_layers(args, plan, records, wal_dir))
    batch_call_s = metrics.pop("batch_call_s")
    verdict = traced_outcome.verdict
    metrics["engine.fallback_ratio"] = verdict.fallbacks / max(verdict.checked, 1)
    metrics["client.late_p99_ms"] = late["late_p99_ms"]
    metrics["client.late_max_ms"] = late["late_max_ms"]
    metrics["trace.overhead_frac"] = traced.cpu_per_query_s / base.cpu_per_query_s - 1.0
    # Coverage: the measured, non-overlapping stages of a headline request
    # against the client's wall time from send to decoded answer.
    if kind == "query":
        spans = _span_means(traced.scraped["traces"])
        covered_ms = sum(spans.get(name, 0.0)
                         for name in ("queue_wait", "pin", "cache_probe", "engine_exec"))
    else:
        covered_ms = batch_call_s * 1e3
    wall_ms = statistics.fmean((r.done - r.sent) * 1e3 for r in traced.results
                               if r.ok and r.op.kind == kind)
    metrics["trace.coverage_frac"] = covered_ms / wall_ms
    return {name: metrics[name] for name in PER_LAYER_UNITS}, PER_LAYER_UNITS
