"""The benchmark's server process: one fresh ``repro`` server per launch.

Built from the public API only, with the ``repro serve`` defaults (1 ms
coalescer tick, instruments on, no result cache, one shard, auto kernel).
The records come from :mod:`perfbench.workload` for the given seed.

    python3 perfbench/server.py --workload serve-scalar --seed 1 [--wal-path F]

Prints ``listening <port>`` once bound, serves until SIGTERM or SIGINT,
then drains and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.serve import EngineHost, ServeServer  # noqa: E402

from perfbench import workload as wl  # noqa: E402


async def serve(server: ServeServer) -> None:
    await server.start("127.0.0.1", 0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    print(f"listening {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, default=wl.N_KEYS)
    parser.add_argument("--wal-path", default=None, help="the ingest index's WAL file")
    parser.add_argument("--trace-sample-rate", type=float, default=0.0)
    parser.add_argument("--trace-capacity", type=int, default=256)
    args = parser.parse_args(argv)
    records = wl.make_records(args.seed, args.n)
    indexes = wl.build_indexes(args.workload, records, args.seed, args.wal_path)
    hosts = {name: EngineHost(index, name=name) for name, index in indexes.items()}
    server = ServeServer(
        hosts,
        trace_sample_rate=args.trace_sample_rate,
        trace_capacity=args.trace_capacity,
        trace_seed=args.seed,
    )
    asyncio.run(serve(server))
    for host in hosts.values():
        wal = getattr(host.index, "wal", None)
        if wal is not None:
            wal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
