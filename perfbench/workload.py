"""Seeded inputs shared by the benchmark client and its server process.

Everything here is a pure function of the seed: the server process
regenerates the records from the seed it is launched with, and the client
regenerates the same records for its oracle and the same request plan.  The
program under test only ever sees the generated records and requests.

Each workload has a dominant traffic (the reason it exists) plus light
secondary traffic of the other two request kinds, so that every end-to-end
metric is measured on every workload.  Scalar queries and the secondary
128-query batches cycle the guarantees none / absolute (at the certified
bound) / relative (0.05).  A connection is pipelined, so the server answers
its requests in order: each secondary request is sent midway between two
requests of its connection's main traffic, where it neither waits behind
one nor holds the next one up, and its latency is its own.

``serve-scalar``
    Open-loop ``/query`` at 150 qps over two connections against the static
    SUM index.  Secondary: ``/query_batch`` at 20/s, 20-row ``/insert`` into
    a small side index at 20/s.
``bulk-batch``
    Closed-loop 4096-query ``/query_batch`` on one connection, alternating
    the SUM index (relative 0.05) and the MAX index (relative 0.01).
    Secondary, on the second connection: ``/query`` at 25 qps and side
    ``/insert`` at 20/s.
``ingest-mixed``
    A WAL-backed updatable SUM index.  Connection 0 sends 500-row
    ``/insert`` chunks at 20/s (plus ``/query_batch`` at 20/s), connection 1
    sends ``/query`` at 100 qps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from repro import Aggregate, IndexConfig, PolyFitIndex, UpdatablePolyFitIndex
from repro.config import FitConfig

KEY_SPAN = 1e9
N_KEYS = 1_000_000
SUM_DELTA = 100.0
MAX_DELTA = 2.0
SUM_EPS_REL = 0.05
MAX_EPS_REL = 0.01
BULK_BATCH = 4096
PROBE_BATCH = 128
SIDE_KEYS = 10_000
INDEX_CONFIG = IndexConfig(fit=FitConfig(degree=1))

# A fixed six-cluster key mixture (centre, width, weight), TWEET-like: the
# seed draws the sample, never the shape, so figures stay comparable
# across seeds.
_CLUSTERS = np.array(
    [
        (0.12, 0.0040, 0.10),
        (0.30, 0.0090, 0.22),
        (0.41, 0.0016, 0.18),
        (0.58, 0.0060, 0.15),
        (0.73, 0.0024, 0.25),
        (0.88, 0.0100, 0.10),
    ]
)

# AR(1) coefficient of the MAX walk: ~2000-step memory, stationary sd ~32.
_WALK_RHO = 1.0 - 1.0 / 2000.0

# Operation kinds and the guarantee mix of scalar /query traffic.
GUARANTEES = ("none", "absolute", "relative")


@dataclass(frozen=True)
class Records:
    """Sorted keys with a SUM measure (1-20) and a MAX measure (walk)."""

    keys: np.ndarray
    sums: np.ndarray
    walk: np.ndarray


def make_records(seed: int, n: int = N_KEYS) -> Records:
    """The base dataset: clustered keys, integer sums, an HKI-like walk."""
    rng = np.random.default_rng([seed, 1])
    centres, widths, weights = _CLUSTERS.T
    cluster = rng.choice(len(weights), size=n, p=weights / weights.sum())
    keys = rng.normal(centres[cluster], widths[cluster]) * KEY_SPAN
    keys = np.sort(np.clip(np.round(keys), 0.0, KEY_SPAN))
    sums = rng.integers(1, 21, size=n).astype(np.float64)
    # Mean-reverting unit-step walk around a fixed slow profile: the steps
    # set the local roughness (and so the MAX segment count), the profile
    # fixes where range maxima are small enough to fail the certificate.
    position = np.linspace(0.0, 1.0, n)
    profile = 380.0 + 290.0 * np.sin(2.0 * np.pi * 3.0 * position)
    noise = lfilter([1.0], [1.0, -_WALK_RHO], rng.normal(0.0, 1.0, size=n))
    walk = np.maximum(profile + noise, 1.0)
    return Records(keys, sums, walk)


def build_indexes(
    workload: str, records: Records, seed: int, wal_path=None
) -> dict[str, object]:
    """The named indexes a workload's server hosts, built from public API.

    ingest-mixed serves one updatable SUM index logging to ``wal_path``; the
    others a static SUM index (and, on bulk-batch, a static MAX index) plus
    the small updatable ``side`` index that takes their secondary inserts.
    """
    if workload == "ingest-mixed":
        return {"default": UpdatablePolyFitIndex.build(
            records.keys, records.sums, Aggregate.SUM, delta=SUM_DELTA,
            config=INDEX_CONFIG, wal_path=wal_path,
        )}
    indexes: dict[str, object] = {"default": PolyFitIndex.build(
        records.keys, records.sums, Aggregate.SUM, delta=SUM_DELTA, config=INDEX_CONFIG,
    )}
    if workload == "bulk-batch":
        indexes["max"] = PolyFitIndex.build(
            records.keys, records.walk, Aggregate.MAX, delta=MAX_DELTA, config=INDEX_CONFIG,
        )
    side_keys, side_sums = side_records(seed)
    indexes["side"] = UpdatablePolyFitIndex.build(
        side_keys, side_sums, Aggregate.SUM, delta=SUM_DELTA, config=INDEX_CONFIG,
    )
    return indexes


# ---------------------------------------------------------------------- #
# Request plans
# ---------------------------------------------------------------------- #

WORKLOADS = ("serve-scalar", "bulk-batch", "ingest-mixed")

SCALAR_QPS = {"serve-scalar": 150.0, "bulk-batch": 25.0, "ingest-mixed": 100.0}
PROBE_RATE = 20.0  # secondary /query_batch and side /insert calls per second
INGEST_RATE = 20.0  # /insert chunks per second on ingest-mixed
INGEST_CHUNK = 500
SIDE_CHUNK = 20
LATE_SHARE = 0.05  # ingest rows whose key lands in the recent window
LATE_WINDOW = 10  # chunks
BULK_POOL = 16  # distinct 4096-query batches per index, cycled


@dataclass
class Op:
    """One request: where and when it goes, and what the oracle needs."""

    conn: int
    due: float  # seconds after the run starts (closed loop: set at send)
    kind: str  # "query" | "batch" | "insert"
    raw: bytes  # the whole HTTP request
    index: str = "default"
    lows: np.ndarray | None = None
    highs: np.ndarray | None = None
    guarantee: dict | None = None  # the request's guarantee field
    chunk: int = -1  # ingest chunk number for /insert on the ingest index
    keys: np.ndarray | None = None  # /insert rows
    sums: np.ndarray | None = None
    truth: np.ndarray | None = field(default=None, repr=False)

    @property
    def eps_rel(self) -> float | None:
        """Epsilon of a relative guarantee (None for any other)."""
        if self.guarantee is None or self.guarantee["kind"] != "relative":
            return None
        return self.guarantee["epsilon"]


@dataclass
class Plan:
    """Open-loop ops per connection, plus an optional closed-loop pool."""

    open_ops: list[list[Op]]
    closed_pool: list[Op]
    insert_keys: np.ndarray  # ingest rows in chunk order (empty if none)
    insert_sums: np.ndarray


def http_request(path: str, payload: dict) -> bytes:
    """A keep-alive HTTP/1.1 POST carrying ``payload`` as JSON."""
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def query_ranges(
    rng: np.random.Generator, anchors: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ranges near the data with log-uniform widths from 10 to the key span.

    Narrow ranges hold few records, fail the relative certificate and take
    the exact fallback; wide ones certify.  Widths and anchor ranks are
    stratified (one draw per equal-probability stratum, randomly paired), so
    every run sees the same spread of widths and of positions in the data.
    ``anchors`` must be sorted.
    """
    def strata() -> np.ndarray:
        return (rng.permutation(count) + rng.uniform(0.0, 1.0, count)) / count

    low_w, high_w = np.log(10.0), np.log(KEY_SPAN)
    widths = np.exp(low_w + strata() * (high_w - low_w))
    starts = anchors[(strata() * anchors.size).astype(np.intp)]
    lows = np.maximum(starts - rng.uniform(0.0, 1.0, count) * widths, 0.0)
    return lows, lows + widths


def side_records(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The small updatable side index that takes secondary inserts."""
    rng = np.random.default_rng([seed, 2])
    keys = np.sort(rng.uniform(0.0, KEY_SPAN, SIDE_KEYS))
    return keys, rng.integers(1, 21, SIDE_KEYS).astype(np.float64)


def ingest_rows(seed: int, chunks: int) -> tuple[np.ndarray, np.ndarray]:
    """Insert rows in chunk order: keys climb past the base span, and a
    small share arrives late, inside the last few chunks' key window."""
    rng = np.random.default_rng([seed, 3])
    width = INGEST_CHUNK * KEY_SPAN / N_KEYS  # base density
    chunk_ids = np.repeat(np.arange(chunks), INGEST_CHUNK)
    offsets = rng.uniform(0.0, 1.0, chunk_ids.size)
    late = (rng.uniform(0.0, 1.0, chunk_ids.size) < LATE_SHARE) & (chunk_ids > 0)
    offsets[late] = -rng.uniform(0.0, 1.0, late.sum()) * np.minimum(
        LATE_WINDOW, chunk_ids[late]
    )
    keys = np.round(KEY_SPAN + 1.0 + (chunk_ids + offsets) * width)
    return keys, rng.integers(1, 21, keys.size).astype(np.float64)


def _guarantee(kind: str, certified_bound: float) -> dict | None:
    """The request's guarantee field: none, absolute at the certified
    bound, or relative at ``SUM_EPS_REL``."""
    if kind == "absolute":
        return {"kind": "absolute", "epsilon": certified_bound}
    if kind == "relative":
        return {"kind": "relative", "epsilon": SUM_EPS_REL}
    return None


def _scalar_ops(rng, anchors, count, qps, conns, certified_bound):
    """Scalar ``/query`` ops cycling the guarantee mix; each guarantee kind
    gets its own stratified set of ranges."""
    per_kind = [query_ranges(rng, anchors, -(-count // len(GUARANTEES)))
                for _ in GUARANTEES]
    ops = []
    for i in range(count):
        lows, highs = per_kind[i % len(GUARANTEES)]
        j = slice(i // len(GUARANTEES), i // len(GUARANTEES) + 1)
        payload = {"low": float(lows[j][0]), "high": float(highs[j][0])}
        guarantee = _guarantee(GUARANTEES[i % len(GUARANTEES)], certified_bound)
        if guarantee is not None:
            payload["guarantee"] = guarantee
        ops.append(Op(conn=conns[i % len(conns)], due=i / qps, kind="query",
                      raw=http_request("/query", payload), lows=lows[j], highs=highs[j],
                      guarantee=guarantee))
    return ops


def _batch_op(rng, anchors, size, guarantee, index, conn, due):
    lows, highs = query_ranges(rng, anchors, size)
    payload = {"lows": lows.tolist(), "highs": highs.tolist(), "index": index}
    if guarantee is not None:
        payload["guarantee"] = guarantee
    return Op(conn=conn, due=due, kind="batch", raw=http_request("/query_batch", payload),
              index=index, lows=lows, highs=highs, guarantee=guarantee)


def _in_gaps(ops, conn, count, phase):
    """Due times of up to ``count`` secondary requests at ``PROBE_RATE`` on
    connection ``conn``: each goes midway between the two requests of
    ``ops`` on that connection around ``(i + phase) / PROBE_RATE``."""
    dues = np.sort([op.due for op in ops if op.conn == conn])
    mids = (dues[:-1] + dues[1:]) / 2.0
    targets = (np.arange(count) + phase) / PROBE_RATE
    return mids[np.searchsorted(mids, targets[targets <= mids[-1]])]


def _probe_batches(rng, anchors, dues, conn, certified_bound):
    """Secondary 128-query batches, cycling the scalar guarantee mix."""
    return [
        _batch_op(rng, anchors, PROBE_BATCH,
                  _guarantee(GUARANTEES[i % len(GUARANTEES)], certified_bound),
                  "default", conn, float(due))
        for i, due in enumerate(dues)
    ]


def _side_inserts(rng, dues, conn):
    ops = []
    for due in dues:
        keys = rng.uniform(0.0, KEY_SPAN, SIDE_CHUNK)
        sums = rng.integers(1, 21, SIDE_CHUNK).astype(np.float64)
        payload = {"keys": keys.tolist(), "measures": sums.tolist(), "index": "side"}
        ops.append(Op(conn=conn, due=float(due), kind="insert",
                      raw=http_request("/insert", payload), index="side",
                      keys=keys, sums=sums))
    return ops


def make_plan(
    workload: str, seed: int, seconds: float, records: Records, certified_bound: float
) -> Plan:
    """Every request of one run, pre-encoded so the client only sends bytes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, 4])
    anchors = records.keys
    scalar_count = int(seconds * SCALAR_QPS[workload])
    probes = int(seconds * PROBE_RATE)
    empty = np.empty(0)
    if workload == "serve-scalar":
        ops = _scalar_ops(rng, anchors, scalar_count, SCALAR_QPS[workload], (0, 1),
                          certified_bound)
        ops += _probe_batches(rng, anchors, _in_gaps(ops, 0, probes, 0.25), 0, certified_bound)
        ops += _side_inserts(rng, _in_gaps(ops, 1, probes, 0.75), 1)
        return Plan(_by_conn(ops, 2), [], empty, empty)
    if workload == "bulk-batch":
        pool = []
        for _ in range(BULK_POOL):
            pool.append(_batch_op(rng, anchors, BULK_BATCH,
                                  {"kind": "relative", "epsilon": SUM_EPS_REL}, "default", 0, 0.0))
            pool.append(_batch_op(rng, anchors, BULK_BATCH,
                                  {"kind": "relative", "epsilon": MAX_EPS_REL}, "max", 0, 0.0))
        ops = _scalar_ops(rng, anchors, scalar_count, SCALAR_QPS[workload], (1,),
                          certified_bound)
        ops += _side_inserts(rng, _in_gaps(ops, 1, probes, 0.5), 1)
        return Plan(_by_conn(ops, 2), pool, empty, empty)
    chunks = int(seconds * INGEST_RATE)
    keys, sums = ingest_rows(seed, chunks)
    # Queries also reach into the key range the inserts are filling.
    anchors = np.sort(np.concatenate((records.keys, keys)))
    ops = _scalar_ops(rng, anchors, scalar_count, SCALAR_QPS[workload], (1,),
                      certified_bound)
    for c in range(chunks):
        rows = slice(c * INGEST_CHUNK, (c + 1) * INGEST_CHUNK)
        payload = {"keys": keys[rows].tolist(), "measures": sums[rows].tolist()}
        ops.append(Op(conn=0, due=c / INGEST_RATE, kind="insert",
                      raw=http_request("/insert", payload), chunk=c,
                      keys=keys[rows], sums=sums[rows]))
    ops += _probe_batches(rng, anchors, _in_gaps(ops, 0, probes, 0.25), 0, certified_bound)
    return Plan(_by_conn(ops, 2), [], keys, sums)


def _by_conn(ops: list[Op], conns: int) -> list[list[Op]]:
    return [sorted((op for op in ops if op.conn == c), key=lambda op: op.due)
            for c in range(conns)]
