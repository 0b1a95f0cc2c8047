"""Fault injection against a live extraction service (``service_stress``).

Run with ``pytest --run-service-stress tests/test_service_faults.py``
(see ``tests/README.md`` for the replay recipe).  Scenarios:

* clients that vanish mid-request must cost nothing but their own lost
  response — no wedged queue, no leaked connection threads;
* queue saturation must answer late clients ``BUSY`` while every
  admitted request completes (explicit backpressure, no unbounded
  buffering);
* a request must honour its deadline with a typed ``TIMEOUT``;
* shutdown must drain: admitted requests answered, later ones refused.

``dispatch_delay_s`` is the server's built-in fault-injection seam — an
artificial pre-execution pause that makes "mid-request" and "queue
full" timing deterministic.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import rmat_b
from repro.errors import ReproError
from repro.service import (
    ProtocolError,
    ReproServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    protocol,
)

pytestmark = pytest.mark.service_stress

def _server_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        socket_path=str(tmp_path / "svc.sock"),
        queue_depth=8,
        request_timeout=90.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ---------------------------------------------------------------------------
# Client death


def test_clients_vanishing_mid_request_leak_nothing(tmp_path):
    graph = rmat_b(7, seed=4)
    payload = {
        "op": "extract",
        "graph": protocol.encode_graph(graph),
        "no_cache": True,
    }
    with ReproServer(_server_config(tmp_path)) as server:
        before_threads = threading.active_count()
        for _ in range(5):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            sock.connect(server.config.socket_path)
            protocol.send_message(sock, payload)
            sock.close()  # gone before the response exists
        # the server must still serve, with no queue wedge ...
        with ServiceClient(
            socket_path=server.config.socket_path, timeout=120.0
        ) as client:
            result = client.extract(graph, config={"engine": "superstep"})
            assert result.num_edges > 0
            stats = client.stats()
            assert stats["queue_depth"] == 0
        # ... and no connection-thread leak once the dust settles.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if threading.active_count() <= before_threads + 1:
                break
            time.sleep(0.2)
        assert threading.active_count() <= before_threads + 1


def test_client_half_close_after_request_still_gets_response(tmp_path):
    graph = rmat_b(6, seed=5)
    with ReproServer(_server_config(tmp_path)) as server:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(60.0)
        sock.connect(server.config.socket_path)
        with sock:
            protocol.send_message(
                sock, {"op": "extract", "graph": protocol.encode_graph(graph)}
            )
            sock.shutdown(socket.SHUT_WR)  # we will never send again
            response = protocol.recv_message(sock)
            assert response["ok"] is True
            assert protocol.decode_edges(response).shape[1] == 2


# ---------------------------------------------------------------------------
# Backpressure and deadlines


def test_queue_saturation_answers_busy_and_serves_the_admitted(tmp_path):
    graph = rmat_b(6, seed=6)
    config = _server_config(
        tmp_path, queue_depth=2, dispatch_delay_s=0.5, request_timeout=60.0
    )
    results: dict[int, tuple[str, object]] = {}

    with ReproServer(config) as server:

        def hit(i):
            try:
                with ServiceClient(
                    socket_path=server.config.socket_path, timeout=120.0
                ) as c:
                    r = c.extract(
                        graph, config={"engine": "superstep"}, no_cache=True
                    )
                    results[i] = ("ok", r.num_edges)
            except ServiceError as exc:
                results[i] = ("error", exc.code)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert all(not t.is_alive() for t in threads)

        outcomes = [results[i] for i in sorted(results)]
        oks = [o for o in outcomes if o[0] == "ok"]
        errors = [o[1] for o in outcomes if o[0] == "error"]
        # every admitted request completed; every rejection was typed BUSY
        assert len(oks) >= 2  # at least the queue capacity's worth
        assert errors and set(errors) == {protocol.BUSY}
        assert len(oks) + len(errors) == 10
        edge_counts = {o[1] for o in oks}
        assert len(edge_counts) == 1  # same graph, same deterministic answer
        # and the server is idle again afterwards
        with ServiceClient(socket_path=server.config.socket_path) as c:
            assert c.stats()["busy_rejections"] == len(errors)


def test_request_deadline_times_out_typed(tmp_path):
    graph = rmat_b(6, seed=7)
    config = _server_config(tmp_path, dispatch_delay_s=2.0)
    with ReproServer(config) as server:
        with ServiceClient(
            socket_path=server.config.socket_path, timeout=60.0
        ) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.extract(
                    graph,
                    config={"engine": "superstep"},
                    no_cache=True,
                    timeout=0.3,
                )
            elapsed = time.monotonic() - start
            assert excinfo.value.code == protocol.TIMEOUT
            assert elapsed < 2.0  # answered at the deadline, not after the work
            assert client.stats()["timeouts"] == 1
            # the server finishes (and caches) the abandoned work; it
            # keeps serving new requests afterwards
            assert client.ping()["pong"]


# ---------------------------------------------------------------------------
# Shutdown drain


def test_shutdown_drains_in_flight_requests(tmp_path):
    graphs = [rmat_b(6, seed=s) for s in (10, 11, 12)]
    config = _server_config(
        tmp_path, dispatch_delay_s=0.3, queue_depth=8, drain_timeout=30.0
    )
    results: dict[int, object] = {}
    with ReproServer(config) as server:

        def submit(i):
            try:
                with ServiceClient(
                    socket_path=server.config.socket_path, timeout=120.0
                ) as c:
                    results[i] = c.extract(
                        graphs[i], config={"engine": "superstep"}, no_cache=True
                    )
            except (ServiceError, ReproError) as exc:
                results[i] = exc

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.15)  # all three admitted, first one mid-delay
        server.shutdown()  # must drain, not drop
        for t in threads:
            t.join(timeout=60.0)
        assert all(not t.is_alive() for t in threads)
    for i in range(3):
        assert not isinstance(results[i], Exception), (i, results[i])
        assert results[i].num_edges > 0
    # after shutdown, new connections are refused cleanly
    with pytest.raises((ReproError, OSError)):
        ServiceClient(socket_path=config.socket_path)


def test_late_requests_during_drain_fail_typed_or_closed(tmp_path):
    graph = rmat_b(6, seed=13)
    config = _server_config(tmp_path, dispatch_delay_s=0.5, drain_timeout=30.0)
    with ReproServer(config) as server:
        early = ServiceClient(socket_path=server.config.socket_path, timeout=60.0)
        late = ServiceClient(socket_path=server.config.socket_path, timeout=60.0)
        slow = threading.Thread(
            target=lambda: early.extract(
                graph, config={"engine": "superstep"}, no_cache=True
            )
        )
        slow.start()
        time.sleep(0.1)
        stopper = threading.Thread(target=server.shutdown)
        stopper.start()
        time.sleep(0.1)
        # a request on an already-open connection during the drain: either
        # a typed SHUTTING_DOWN or a clean connection-closed error —
        # never a hang, never an untyped failure.
        try:
            late.extract(graph, config={"engine": "superstep"})
        except ServiceError as exc:
            assert exc.code in (protocol.SHUTTING_DOWN, protocol.BUSY)
        except (ReproError, ProtocolError, OSError):
            pass
        finally:
            late.close()
        slow.join(timeout=60.0)
        stopper.join(timeout=60.0)
        early.close()
        assert not slow.is_alive() and not stopper.is_alive()


# ---------------------------------------------------------------------------
# End-to-end through the real CLI daemon


def test_cli_daemon_serves_and_drains_on_sigterm(tmp_path):
    sock_path = str(tmp_path / "cli.sock")
    graph_path = str(tmp_path / "g.mtx")
    out_path = str(tmp_path / "g.chordal.txt")
    env = {**os.environ, "PYTHONPATH": "src"}
    subprocess.run(
        [sys.executable, "-m", "repro", "generate", "rmat-b",
         "--scale", "7", "--seed", "3", "-o", graph_path],
        env=env, check=True,
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock_path],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(sock_path):
            assert time.monotonic() < deadline, "daemon never bound its socket"
            time.sleep(0.1)
        extract = subprocess.run(
            [sys.executable, "-m", "repro", "extract", graph_path,
             "--server", sock_path, "--schedule", "synchronous", "--maximalize",
             "--verify", "-o", out_path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert extract.returncode == 0, extract.stderr
        assert "verified=chordal,maximal" in extract.stderr
        assert os.path.exists(out_path)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            assert server.wait(timeout=60) == 0
        except subprocess.TimeoutExpired:  # pragma: no cover - diagnostic
            server.kill()
            raise AssertionError("daemon did not drain on SIGTERM")
    assert not os.path.exists(sock_path)
