#!/usr/bin/env python
"""Quickstart for the extraction service: `repro serve` + ServiceClient.

Starts the daemon as a real subprocess on a unix socket, then walks the
client workflow end to end:

1. extract over the wire (synchronous schedule; a dispatcher thread runs it);
2. repeat the identical request and observe the content-hash result
   cache answering without dispatching;
3. request server-side verification (``verify=True``) on a maximalized
   extraction — the response is certified chordal *and* maximal;
4. read the live ``stats`` counters;
5. shut down gracefully with SIGTERM and confirm the daemon drains,
   exits 0, and unlinks its socket.

Every step is asserted, so this file doubles as the CI smoke test for
the service stack:

    PYTHONPATH=src python examples/service_quickstart.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import rmat_b, verify_extraction
from repro.service import ServiceClient


def wait_for_socket(path: str, proc: subprocess.Popen, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if proc.poll() is not None:
            raise SystemExit(f"repro serve exited early with rc={proc.returncode}")
        time.sleep(0.05)
    raise SystemExit(f"repro serve did not create {path} within {timeout}s")


def main() -> None:
    tmp = tempfile.mkdtemp(prefix="repro-svc-")
    sock = str(Path(tmp) / "repro.sock")
    env = {**os.environ, "PYTHONPATH": "src"}
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", sock,
        ],
        env=env,
    )
    try:
        wait_for_socket(sock, server)
        graph = rmat_b(8, seed=11)
        with ServiceClient(socket_path=sock) as client:
            assert client.ping()["ok"]

            # 1. first extraction runs on a dispatcher thread
            config = {"engine": "superstep", "schedule": "synchronous"}
            first = client.extract(graph, config=config)
            assert not first.cached and first.served_by == "inline"
            print(f"inline  : {first.num_edges} chordal edges "
                  f"in {first.num_iterations} iterations")

            # 2. identical request -> content-hash cache, bit-identical
            again = client.extract(graph, config=config)
            assert again.cached and again.served_by == "cache"
            assert (again.edges == first.edges).all()
            print(f"cache   : {again.num_edges} edges (hit, no dispatch)")

            # 3. server-side verification of a maximalized extraction
            certified = client.extract(
                graph,
                config={**config, "maximalize": True},
                verify=True,
            )
            assert certified.verified
            report = verify_extraction(graph, certified.edges)
            assert report.ok, str(report)
            print(f"verified: {certified.num_edges} edges — {report}")

            # 4. live counters
            stats = client.stats()
            assert stats["cache_hits"] >= 1
            assert stats["dispatches"] >= 2
            print(f"stats   : {stats['requests']} requests, "
                  f"{stats['cache_hits']} cache hits, "
                  f"{stats['dispatches']} dispatches")

        # 5. graceful drain on SIGTERM
        server.send_signal(signal.SIGTERM)
        rc = server.wait(timeout=30.0)
        assert rc == 0, f"repro serve exited rc={rc} on SIGTERM"
        assert not os.path.exists(sock), "socket not unlinked on shutdown"
        print("shutdown: drained, rc=0, socket unlinked")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    main()
