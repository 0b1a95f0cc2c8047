#!/usr/bin/env python
"""Record the extraction-service baseline (BENCH_service.json).

Measures `repro serve` end-to-end over its unix-socket wire protocol:
one in-process :class:`~repro.service.server.ReproServer`, driven by
``NUM_CLIENTS`` concurrent
:class:`~repro.service.client.ServiceClient` threads over a mixed
workload — small and mid-size RMAT-B graphs, the thread-team
(``process``) and serial (``superstep``) engines, repeated graphs that exercise the
content-hash result cache and ``no_cache`` requests that force real
dispatches.  Every request round-trips the full stack: framing, JSON
decode, cache lookup, admission queue, dispatch, encode.

Recorded figures are aggregate ``requests_per_sec`` plus p50/p99
per-request latency; the regression guard re-drives the same workload
and fails if throughput drops more than 2x (BENCH_service.json).

Re-record on a quiet machine after intentional changes:

    PYTHONPATH=src python benchmarks/bench_service.py
    # or: repro bench --record service
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

SERVICE_PATH = Path(__file__).resolve().parent / "BENCH_service.json"

#: Concurrent clients (the ISSUE's floor is 8; the guard re-uses the
#: recorded count so the comparison stays apples-to-apples).
NUM_CLIENTS = 8

#: Requests issued by each client over the mixed workload.
REQUESTS_PER_CLIENT = 12

NUM_WORKERS = 2
SEED = 7


def _workload():
    """The per-client request menu: (graph, config, no_cache) triples.

    Mixed by design — two sizes, a thread-team and a serial engine,
    repeats that hit the cache, and ``no_cache`` rows that always reach
    a dispatcher.  Every client walks the same menu (offset by its id)
    so cache hits and real dispatches interleave under contention.
    """
    from repro import rmat_b

    small = rmat_b(5, seed=SEED)
    medium = rmat_b(8, seed=SEED + 1)
    large = rmat_b(9, seed=SEED + 2)
    return [
        (small, {"engine": "superstep"}, False),
        (medium, {"engine": "process"}, False),
        (small, {"engine": "superstep"}, True),
        (large, {"engine": "process"}, False),
        (medium, {"engine": "process"}, True),
        (small, {"engine": "superstep", "maximalize": True}, False),
        (large, {"engine": "superstep", "schedule": "asynchronous"}, False),
        (medium, {"engine": "reference"}, False),
    ]


def measure_service(
    num_clients: int = NUM_CLIENTS,
    requests_per_client: int = REQUESTS_PER_CLIENT,
) -> dict:
    """Drive a live server with ``num_clients`` concurrent clients.

    Returns aggregate throughput and latency percentiles over every
    request issued (``num_clients * requests_per_client`` total).
    """
    import numpy as np

    from repro.service import ReproServer, ServiceClient, ServiceConfig

    menu = _workload()
    latencies: list[list[float]] = [[] for _ in range(num_clients)]
    errors: list[BaseException] = []

    def run_client(cid: int, socket_path: str) -> None:
        try:
            with ServiceClient(socket_path=socket_path) as client:
                for i in range(requests_per_client):
                    graph, config, no_cache = menu[(cid + i) % len(menu)]
                    t0 = time.perf_counter()
                    client.extract(graph, config=config, no_cache=no_cache)
                    latencies[cid].append(time.perf_counter() - t0)
        except BaseException as exc:  # surfaced below; never swallowed
            errors.append(exc)

    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            socket_path=str(Path(tmp) / "bench.sock"),
            num_workers=NUM_WORKERS,
            queue_depth=max(32, 4 * num_clients),
        )
        with ReproServer(config) as server:
            threads = [
                threading.Thread(
                    target=run_client,
                    args=(cid, config.socket_path),
                    name=f"bench-client-{cid}",
                )
                for cid in range(num_clients)
            ]
            wall_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - wall_start
            stats = server.stats()

    if errors:
        raise errors[0]
    flat = np.sort(np.concatenate([np.asarray(c) for c in latencies]))
    total = int(flat.size)
    assert total == num_clients * requests_per_client
    return {
        "requests_per_sec": total / wall,
        "num_clients": num_clients,
        "requests_per_client": requests_per_client,
        "num_requests": total,
        "wall_seconds": wall,
        "latency_ms": {
            "p50": float(np.percentile(flat, 50)) * 1e3,
            "p99": float(np.percentile(flat, 99)) * 1e3,
            "max": float(flat[-1]) * 1e3,
        },
        "cache_hits": stats["cache_hits"],
        "dispatches": stats["dispatches"],
    }


def record(path: Path = SERVICE_PATH) -> dict:
    measured = measure_service()
    payload = {
        **measured,
        "num_workers": NUM_WORKERS,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    lat = payload["latency_ms"]
    print(
        f"service: {payload['requests_per_sec']:.1f} req/s over "
        f"{payload['num_clients']} clients "
        f"(p50 {lat['p50']:.1f} ms, p99 {lat['p99']:.1f} ms) -> {path}"
    )
    return payload


if __name__ == "__main__":
    record()
