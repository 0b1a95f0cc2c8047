"""Wire-protocol certification for the extraction service.

Two layers:

* pure codec tests — framing, graph/edge payloads, config decoding and
  the cache identities, over ``socket.socketpair`` (no server);
* live-server tests — a module-scoped ``repro serve`` daemon answering
  real sockets: round trips whose outputs pass ``verify_extraction``,
  plus every malformed-input class (truncated frames, oversized length
  prefixes, invalid JSON, unknown ops/fields) and a seeded fuzz loop of
  random byte blobs — each must produce exactly one *typed* error
  response (or a clean close), never a hang and never a traceback over
  the wire, and the server must keep serving afterwards.
"""

from __future__ import annotations

import os
import socket
import struct
import sys

import numpy as np
import pytest

from repro import build_graph, rmat_b, rmat_er, verify_extraction
from repro.core.config import ExtractionConfig
from repro.errors import ReproError
from repro.graph.weights import attach_edge_weights
from repro.service import (
    ERROR_CODES,
    ProtocolError,
    ReproServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service import protocol
from tests.conftest import live_engine


# ---------------------------------------------------------------------------
# Framing (socketpair, no server)


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def test_message_round_trip():
    a, b = _pair()
    with a, b:
        message = {"op": "ping", "nested": {"x": [1, 2, 3]}}
        protocol.send_message(a, message)
        assert protocol.recv_message(b) == message


def test_clean_eof_is_none():
    a, b = _pair()
    with b:
        a.close()
        assert protocol.recv_message(b) is None


def test_truncated_header_is_protocol_error():
    a, b = _pair()
    with a, b:
        a.sendall(protocol.MAGIC[:2])  # 2 of 8 header bytes
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.recv_message(b)


def test_truncated_payload_is_protocol_error():
    a, b = _pair()
    with a, b:
        a.sendall(protocol.HEADER.pack(protocol.MAGIC, 100) + b'{"op"')
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match="truncated|payload"):
            protocol.recv_message(b)


def test_bad_magic_is_protocol_error():
    a, b = _pair()
    with a, b:
        a.sendall(b"EVIL" + struct.pack("!I", 2) + b"{}")
        with pytest.raises(ProtocolError, match="magic"):
            protocol.recv_message(b)


def test_oversized_length_prefix_is_protocol_error():
    a, b = _pair()
    with a, b:
        a.sendall(protocol.HEADER.pack(protocol.MAGIC, 2**31))
        with pytest.raises(ProtocolError, match="oversized"):
            protocol.recv_message(b)


def test_invalid_json_payload_is_protocol_error():
    a, b = _pair()
    with a, b:
        protocol.write_frame(a, b"not json at all")
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.recv_message(b)


def test_non_object_json_is_protocol_error():
    a, b = _pair()
    with a, b:
        protocol.write_frame(a, b"[1, 2, 3]")
        with pytest.raises(ProtocolError, match="object"):
            protocol.recv_message(b)


def test_write_frame_refuses_oversized_payload():
    a, b = _pair()
    with a, b:
        with pytest.raises(ProtocolError, match="refusing"):
            protocol.write_frame(a, b"x" * 100, max_frame=10)


# ---------------------------------------------------------------------------
# Graph / edge payload codecs


@pytest.fixture
def graph():
    return rmat_b(6, seed=11)


def test_csr_payload_round_trip(graph):
    decoded = protocol.decode_graph(protocol.encode_graph(graph, binary=True))
    assert decoded.num_vertices == graph.num_vertices
    assert (decoded.edge_array() == graph.edge_array()).all()


def test_edge_list_payload_round_trip(graph):
    decoded = protocol.decode_graph(protocol.encode_graph(graph, binary=False))
    assert decoded.num_vertices == graph.num_vertices
    assert (
        np.sort(decoded.edge_array(), axis=0)
        == np.sort(graph.edge_array(), axis=0)
    ).all()


def test_weighted_payload_round_trips_both_shapes(triangle):
    weighted = attach_edge_weights(
        triangle, {(0, 1): 1.5, (1, 2): 2.0, (0, 2): 0.25}
    )
    for binary in (True, False):
        decoded = protocol.decode_graph(
            protocol.encode_graph(weighted, binary=binary)
        )
        assert decoded.has_weights
        assert decoded.total_weight == pytest.approx(weighted.total_weight)


def test_both_shapes_share_one_content_hash(graph):
    via_csr = protocol.decode_graph(protocol.encode_graph(graph, binary=True))
    via_edges = protocol.decode_graph(protocol.encode_graph(graph, binary=False))
    assert (
        protocol.graph_content_hash(via_csr)
        == protocol.graph_content_hash(via_edges)
        == protocol.graph_content_hash(graph)
    )


def test_relabeled_graph_hashes_distinctly():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    relabeled = build_graph(4, [(3, 2), (2, 1), (1, 0)])  # same up to names
    iso = build_graph(4, [(0, 2), (2, 1), (1, 3)])  # genuinely relabeled
    assert protocol.graph_content_hash(g) == protocol.graph_content_hash(relabeled)
    assert protocol.graph_content_hash(g) != protocol.graph_content_hash(iso)


def test_weighted_and_unweighted_hash_distinctly(triangle):
    weighted = attach_edge_weights(
        triangle, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
    )
    assert protocol.graph_content_hash(triangle) != protocol.graph_content_hash(
        weighted
    )


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {"mystery": 1},
        {"csr": {"indptr": "AA==", "indices": "AA==", "bogus": 1}},
        {"csr": "not an object"},
        {"csr": {"indptr": 17, "indices": "AA=="}},
        {"csr": {"indptr": "!!!not base64!!!", "indices": "AA=="}},
        {"n": 2, "edges": [[0, 1]], "csr": {}},
        {"edges": "not a list"},
        {"edges": [[0, 1, 2]]},
        {"edges": [[0, "x"]]},
        {"n": -3, "edges": []},
        {"n": 2, "edges": [[0, 1]], "weights": [1.0, 2.0]},
    ],
)
def test_malformed_graph_payloads_are_bad_graph(payload):
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_graph(payload)
    assert excinfo.value.code == protocol.BAD_GRAPH


def test_asymmetric_csr_is_bad_graph():
    # Arc 0->1 with no 1->0 back-arc: structurally valid CSR, not a graph.
    payload = {
        "csr": {
            "n": 2,
            "indptr": protocol._b64(np.array([0, 1, 1]), "<i8"),
            "indices": protocol._b64(np.array([1]), "<i8"),
        }
    }
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_graph(payload)
    assert excinfo.value.code == protocol.BAD_GRAPH


def test_csr_with_mismatched_arc_weights_is_bad_graph():
    # One edge whose two arcs disagree on its weight is not a weighted graph.
    payload = {
        "csr": {
            "n": 2,
            "indptr": protocol._b64(np.array([0, 1, 2]), "<i8"),
            "indices": protocol._b64(np.array([1, 0]), "<i8"),
            "weights": protocol._b64(np.array([1.0, 5.0]), "<f8"),
        }
    }
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_graph(payload)
    assert excinfo.value.code == protocol.BAD_GRAPH


def _python_calls(fn, *args) -> int:
    """Python function calls made by ``fn(*args)``, counted with
    ``sys.setprofile`` (calls into C are not counted)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_decode_graph_call_count_is_size_independent():
    # Timing-free scaling guard: validating a wire graph is whole-array
    # work, so a 64x larger payload makes exactly as many Python calls.
    # A per-vertex (or per-edge) loop on the request path fails this.
    small, large = (protocol.encode_graph(rmat_er(s, seed=1)) for s in (8, 14))
    _python_calls(protocol.decode_graph, small)  # settle first-call imports
    assert _python_calls(protocol.decode_graph, small) == _python_calls(
        protocol.decode_graph, large
    )


def test_edges_round_trip():
    edges = np.array([[0, 1], [2, 5], [3, 4]], dtype=np.int64)
    assert (protocol.decode_edges(protocol.encode_edges(edges)) == edges).all()
    empty = protocol.decode_edges(protocol.encode_edges(np.empty((0, 2))))
    assert empty.shape == (0, 2)


def test_edges_decode_rejects_corrupt_payloads():
    good = protocol.encode_edges(np.array([[0, 1]]))
    with pytest.raises(ProtocolError, match="odd"):
        protocol.decode_edges(
            {"edges_b64": protocol._b64(np.array([1, 2, 3]), "<i8")}
        )
    with pytest.raises(ProtocolError, match="num_edges"):
        protocol.decode_edges({**good, "num_edges": 7})


# ---------------------------------------------------------------------------
# Config / timeout decoding and cache identity


def test_decode_config_defaults_to_default_config():
    assert protocol.decode_config(None) == ExtractionConfig()
    assert protocol.decode_config({}) == ExtractionConfig()


def test_decode_config_accepts_every_allowed_field():
    config = protocol.decode_config(
        {
            "engine": "superstep",
            "schedule": "synchronous",
            "num_threads": 2,
            "renumber": "bfs",
            "stitch": True,
            "maximalize": True,
            "max_iterations": 5,
        }
    )
    assert config.engine == "superstep"
    assert config.maximalize and config.stitch
    assert config.max_iterations == 5


@pytest.mark.parametrize(
    "payload, code",
    [
        ("nope", protocol.INVALID_CONFIG),
        ({"mystery_knob": 1}, protocol.INVALID_CONFIG),
        ({"num_workers": 8}, protocol.INVALID_CONFIG),
        ({"collect_trace": True}, protocol.INVALID_CONFIG),
        ({"cost_params": {"a": 1}}, protocol.INVALID_CONFIG),
        ({"variant": "unoptimized"}, protocol.INVALID_CONFIG),
        ({"engine": "no-such-engine"}, protocol.INVALID_CONFIG),
        ({"engine": "superstep", "schedule": "sideways"}, protocol.INVALID_CONFIG),
        ({"num_threads": 0}, protocol.INVALID_CONFIG),
        ({"num_threads": protocol.MAX_THREADS + 1}, protocol.INVALID_CONFIG),
        ({"engine": "superstep", "num_threads": 10**6}, protocol.INVALID_CONFIG),
        ({"num_threads": 2.5}, protocol.INVALID_CONFIG),
        ({"num_threads": True}, protocol.INVALID_CONFIG),
        ({"max_iterations": 1.5}, protocol.INVALID_CONFIG),
    ],
)
def test_decode_config_rejections_are_typed(payload, code):
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_config(payload)
    assert excinfo.value.code == code


def test_decode_timeout():
    assert protocol.decode_timeout(None, 12.5) == 12.5
    assert protocol.decode_timeout(3, 12.5) == 3.0
    for bad in ("5", True, 0, -1, protocol.MAX_TIMEOUT + 1):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_timeout(bad, 12.5)
        assert excinfo.value.code == protocol.BAD_REQUEST


def test_config_cache_key_identifies_resolved_regimes():
    explicit = ExtractionConfig(engine="superstep", schedule="asynchronous")
    defaulted = ExtractionConfig(engine="superstep")  # resolves to asynchronous
    assert protocol.config_cache_key(
        explicit.resolved()
    ) == protocol.config_cache_key(defaulted.resolved())
    other = ExtractionConfig(engine="superstep", schedule="synchronous")
    assert protocol.config_cache_key(other.resolved()) != protocol.config_cache_key(
        explicit.resolved()
    )


# ---------------------------------------------------------------------------
# Live server


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("svc") / "repro.sock")
    config = ServiceConfig(
        socket_path=sock,
        queue_depth=8,
        request_timeout=60.0,
    )
    with ReproServer(config) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(socket_path=server.config.socket_path) as c:
        yield c


def _raw_connection(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(server.config.socket_path)
    return sock


def test_ping_reports_versions(client):
    pong = client.ping()
    assert pong["pong"] and pong["protocol"] == protocol.PROTOCOL_VERSION


@pytest.mark.parametrize("engine", ["superstep", "native", "process", "reference"])
def test_extract_round_trip_is_verified_valid(client, engine):
    graph = rmat_b(7, seed=len(engine))
    result = client.extract(
        graph, config={"engine": live_engine(engine), "maximalize": True},
        no_cache=True,
    )
    report = verify_extraction(graph, result.edges)
    assert report.ok, report
    assert result.served_by == "inline"


def test_csr_and_edge_list_payloads_yield_identical_edges(client):
    graph = rmat_b(6, seed=23)
    config = {"engine": "superstep", "schedule": "synchronous"}
    via_csr = client.extract(graph, config=config, no_cache=True, binary=True)
    via_edges = client.extract(graph, config=config, no_cache=True, binary=False)
    assert (via_csr.edges == via_edges.edges).all()


def test_weighted_graph_served_by_weighted_engine(client):
    weighted = attach_edge_weights(
        build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        {(0, 1): 4.0, (1, 2): 1.0, (2, 3): 4.0, (0, 3): 1.0},
    )
    result = client.extract(weighted, config={"engine": "weighted"})
    report = verify_extraction(weighted, result.edges, check_maximal=False)
    assert report.ok, report


def test_failing_extraction_costs_only_its_own_request(client, monkeypatch):
    """Dispatchers run requests in-process: an engine that raises answers
    that one request with a typed INTERNAL error, and the same
    connection keeps being served."""
    from repro.core.engines import ENGINES, EngineSpec

    def explode(graph, config):
        raise RuntimeError("engine blew up")

    monkeypatch.setitem(ENGINES, "exploding", EngineSpec(name="exploding", run_fn=explode))
    with pytest.raises(ServiceError) as excinfo:
        client.extract(rmat_b(5, seed=1), config={"engine": "exploding"})
    assert excinfo.value.code == protocol.INTERNAL
    assert "engine blew up" in str(excinfo.value)
    assert client.extract(rmat_b(5, seed=1), config={"engine": "superstep"}).num_edges > 0


def test_unknown_op_is_bad_request_and_connection_survives(server):
    with _raw_connection(server) as sock:
        protocol.send_message(sock, {"op": "frobnicate"})
        response = protocol.recv_message(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.BAD_REQUEST
        protocol.send_message(sock, {"op": "ping"})  # same connection
        assert protocol.recv_message(sock)["ok"] is True


@pytest.mark.parametrize(
    "request_message, code",
    [
        ({"op": "extract"}, protocol.BAD_REQUEST),
        (
            {"op": "extract", "graph": {"n": 2, "edges": [[0, 1]]}, "sneaky": 1},
            protocol.BAD_REQUEST,
        ),
        ({"op": "extract", "graph": {"edges": "zzz"}}, protocol.BAD_GRAPH),
        (
            {
                "op": "extract",
                "graph": {"n": 2, "edges": [[0, 1]]},
                "config": {"num_workers": 64},
            },
            protocol.INVALID_CONFIG,
        ),
        (
            {
                "op": "extract",
                "graph": {"n": 2, "edges": [[0, 1]]},
                "config": {"mystery": True},
            },
            protocol.INVALID_CONFIG,
        ),
        (
            {
                "op": "extract",
                "graph": {"n": 2, "edges": [[0, 1]]},
                "timeout": "soon",
            },
            protocol.BAD_REQUEST,
        ),
    ],
)
def test_bad_extract_requests_get_typed_errors(server, request_message, code):
    with _raw_connection(server) as sock:
        protocol.send_message(sock, request_message)
        response = protocol.recv_message(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == code
        assert "Traceback" not in response["error"]["message"]


def test_client_raises_typed_service_error(client, triangle):
    with pytest.raises(ServiceError) as excinfo:
        client.extract(triangle, config={"engine": "no-such-engine"})
    assert excinfo.value.code == protocol.INVALID_CONFIG


def _expect_one_typed_error_then_close(sock):
    """After garbage, the server sends at most one BAD_FRAME error and
    closes; it must never hang or send a second frame."""
    try:
        response = protocol.recv_message(sock)
    except (ProtocolError, OSError):
        return  # server slammed the door mid-frame — also acceptable
    if response is not None:
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.BAD_FRAME
        assert response["error"]["code"] in ERROR_CODES
        # Nothing after the error frame: clean EOF, or a reset when the
        # server closed with unread garbage still buffered.
        try:
            assert protocol.recv_message(sock) is None
        except (ProtocolError, OSError):
            pass


def test_truncated_frame_over_live_socket(server):
    with _raw_connection(server) as sock:
        sock.sendall(protocol.HEADER.pack(protocol.MAGIC, 500) + b"only this")
        sock.shutdown(socket.SHUT_WR)
        _expect_one_typed_error_then_close(sock)


def test_oversized_prefix_over_live_socket(server):
    with _raw_connection(server) as sock:
        sock.sendall(protocol.HEADER.pack(protocol.MAGIC, 2**31 - 1))
        _expect_one_typed_error_then_close(sock)


def test_invalid_json_over_live_socket(server):
    with _raw_connection(server) as sock:
        protocol.write_frame(sock, b"\xff\xfe not json")
        _expect_one_typed_error_then_close(sock)


def test_fuzzed_byte_prefixes_never_hang_or_leak_tracebacks(server):
    rng = np.random.default_rng(0xC0FFEE)
    for trial in range(25):
        blob = rng.integers(0, 256, size=int(rng.integers(1, 64))).astype(
            np.uint8
        ).tobytes()
        with _raw_connection(server) as sock:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            _expect_one_typed_error_then_close(sock)
    # ... and the server still serves real work afterwards.
    with ServiceClient(socket_path=server.config.socket_path) as c:
        assert c.ping()["pong"]


def test_stats_op_reports_counters(client, triangle):
    client.extract(triangle)
    stats = client.stats()
    assert stats["requests"] >= 1
    assert stats["queue_capacity"] == 8
    assert stats["cache"]["max_entries"] == 128
    assert stats["dispatchers"] == 1
    assert stats["dispatches"] >= 1


def test_client_requires_exactly_one_address():
    with pytest.raises(ReproError, match="exactly one"):
        ServiceClient()
    with pytest.raises(ReproError, match="exactly one"):
        ServiceClient(socket_path="/tmp/x", host="localhost", port=1)


def test_tcp_listener_serves_too():
    config = ServiceConfig(host="127.0.0.1", port=0)
    with ReproServer(config) as srv:
        host, port = srv.tcp_address
        with ServiceClient(host=host, port=port) as c:
            result = c.extract(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
            assert result.num_edges == 3


def test_protocol_shutdown_op_drains_and_stops(tmp_path):
    sock_path = str(tmp_path / "stop.sock")
    server = ReproServer(ServiceConfig(socket_path=sock_path)).start()
    with ServiceClient(socket_path=sock_path) as c:
        assert c.shutdown()["stopping"]
    server._stopped.wait(timeout=30.0)
    assert server._stopped.is_set()
    assert not os.path.exists(sock_path)
    # a restart attempt is a clean error, not an undefined state
    with pytest.raises(ReproError, match="restarted"):
        server.start()


def test_shutdown_op_can_be_disabled(tmp_path):
    sock_path = str(tmp_path / "nostop.sock")
    config = ServiceConfig(socket_path=sock_path, allow_remote_shutdown=False)
    with ReproServer(config) as srv:
        with ServiceClient(socket_path=sock_path) as c:
            with pytest.raises(ServiceError) as excinfo:
                c.shutdown()
            assert excinfo.value.code == protocol.BAD_REQUEST
            assert c.ping()["pong"]  # still alive
