"""Result-cache certification for the extraction service.

The cache's identity is ``graph_content_hash × config_cache_key`` over
the *resolved* config.  These tests pin the contract from the outside,
using the server's dispatch counters as instrumentation: a hit must
return the bit-identical stored edge set *without dispatching*
(``dispatches`` unchanged), while any
change of graph content (relabeling, weights) or resolved regime is a
miss.  The LRU ceilings (entries and bytes) are pinned both through the
:class:`~repro.service.server.ResultCache` unit surface and through a
live server sized to evict.

A hash-only probe (``{"op": "extract", "hash": ...}``) reaches the same
entries without shipping the graph; its misses answer ``NOT_CACHED``
and are counted as ``probe_misses``, apart from the cache's misses.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro import build_graph, rmat_b
from repro.graph.weights import attach_edge_weights
from repro.service import ReproServer, ServiceClient, ServiceConfig, protocol
from repro.service.server import ResultCache


def _dispatches(stats) -> int:
    return stats["dispatches"]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("svc-cache") / "repro.sock")
    config = ServiceConfig(socket_path=sock, cache_entries=64)
    with ReproServer(config) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(socket_path=server.config.socket_path) as c:
        yield c


def test_cache_hit_is_bit_identical_and_never_touches_a_pool(client):
    graph = rmat_b(7, seed=42)
    config = {"engine": "superstep", "schedule": "synchronous", "num_threads": 2}
    first = client.extract(graph, config=config)
    assert not first.cached and first.served_by == "inline"
    before = client.stats()
    second = client.extract(graph, config=config)
    after = client.stats()
    assert second.cached and second.served_by == "cache"
    assert (second.edges == first.edges).all()
    assert second.edges.dtype == first.edges.dtype
    # the hit was served without any dispatcher involvement
    assert _dispatches(after) == _dispatches(before)
    assert after["cache_hits"] == before["cache_hits"] + 1


def test_same_content_different_wire_shape_is_a_hit(client):
    graph = rmat_b(6, seed=43)
    config = {"engine": "superstep", "schedule": "synchronous"}
    first = client.extract(graph, config=config, binary=True)
    second = client.extract(graph, config=config, binary=False)
    assert second.cached
    assert (second.edges == first.edges).all()


def test_relabeled_isomorphic_graph_misses(client):
    # Same structure, different vertex names -> different content.
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    relabeled = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])
    genuinely = build_graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    config = {"engine": "superstep"}
    client.extract(g, config=config)
    assert client.extract(relabeled, config=config).cached  # same edge set
    assert not client.extract(genuinely, config=config).cached


def test_weighted_and_unweighted_same_topology_miss(client):
    square = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    weighted = attach_edge_weights(
        square, {(0, 1): 4.0, (1, 2): 1.0, (2, 3): 4.0, (0, 3): 1.0}
    )
    config = {"engine": "weighted"}
    unweighted_result = client.extract(square, config=config)
    weighted_result = client.extract(weighted, config=config)
    assert not weighted_result.cached  # weights are part of the identity
    assert client.extract(square, config=config).cached
    assert client.extract(weighted, config=config).cached
    # ... and different weights are a different graph again
    reweighted = attach_edge_weights(
        square, {(0, 1): 1.0, (1, 2): 4.0, (2, 3): 1.0, (0, 3): 4.0}
    )
    assert not client.extract(reweighted, config=config).cached
    assert unweighted_result.num_edges == weighted_result.num_edges == 3


def test_differing_resolved_configs_miss(client):
    graph = rmat_b(6, seed=44)
    base = client.extract(graph, config={"engine": "superstep"})
    assert not base.cached
    for other in (
        {"engine": "superstep", "schedule": "synchronous"},
        {"engine": "superstep", "maximalize": True},
        {"engine": "superstep", "stitch": True},
        {"engine": "superstep", "renumber": "bfs"},
        {"engine": "reference"},
    ):
        assert not client.extract(graph, config=other).cached, other


def test_default_and_explicit_schedule_share_one_entry(client):
    # schedule=None resolves to the engine default — same cache row.
    graph = rmat_b(6, seed=45)
    client.extract(graph, config={"engine": "superstep"})
    explicit = client.extract(
        graph, config={"engine": "superstep", "schedule": "asynchronous"}
    )
    assert explicit.cached


def test_thread_count_shares_one_entry(client):
    # No thread count changes an edge set, so it is not part of the key.
    graph = rmat_b(6, seed=47)
    config = {"engine": "superstep", "schedule": "synchronous"}
    first = client.extract(graph, config={**config, "num_threads": 1})
    assert not first.cached
    second = client.extract(graph, config={**config, "num_threads": 2})
    assert second.cached
    assert (second.edges == first.edges).all()


def test_no_cache_bypasses_both_lookup_and_store(client):
    graph = rmat_b(6, seed=46)
    config = {"engine": "superstep", "schedule": "synchronous", "stitch": True}
    client.extract(graph, config=config, no_cache=True)
    before = client.stats()
    repeat = client.extract(graph, config=config, no_cache=True)
    after = client.stats()
    assert not repeat.cached
    assert _dispatches(after) == _dispatches(before) + 1
    # no_cache runs did not populate the cache either
    assert not client.extract(graph, config=config, no_cache=True).cached


def test_verify_runs_at_most_once_per_cached_entry(client):
    graph = rmat_b(6, seed=47)
    config = {"engine": "superstep", "maximalize": True}
    before = client.stats()
    first = client.extract(graph, config=config, verify=True)
    mid = client.stats()
    assert first.verified and not first.cached
    assert mid["verifications"] == before["verifications"] + 1
    # verified hits are served from the stored bit: no re-verification,
    # no dispatch
    for _ in range(3):
        again = client.extract(graph, config=config, verify=True)
        assert again.cached and again.verified
    after = client.stats()
    assert after["verifications"] == mid["verifications"]
    assert _dispatches(after) == _dispatches(mid)


def test_unverified_hit_is_verified_once_on_demand(client):
    graph = rmat_b(6, seed=48)
    config = {"engine": "superstep", "maximalize": True}
    plain = client.extract(graph, config=config)  # populates, unverified
    assert not plain.verified
    before = client.stats()
    hit = client.extract(graph, config=config, verify=True)
    mid = client.stats()
    assert hit.cached and hit.verified
    assert mid["verifications"] == before["verifications"] + 1
    assert _dispatches(mid) == _dispatches(before)  # verified the cached edges
    # a probe cannot verify: one NOT_CACHED, then one resend with the
    # graph (plus the stats request itself)
    assert mid["probe_misses"] == before["probe_misses"] + 1
    assert mid["requests"] == before["requests"] + 3
    # the unverified entry counts one hit, on the resend that verifies it
    assert mid["cache"]["hits"] == before["cache"]["hits"] + 1
    # the bit is now stored: further verified hits are free, and the
    # probe alone answers them
    assert client.extract(graph, config=config, verify=True).verified
    after = client.stats()
    assert after["verifications"] == mid["verifications"]
    assert after["requests"] == mid["requests"] + 2


def test_mutate_invalidates_only_the_mutated_graphs_entries(server):
    mutated = rmat_b(6, seed=49)
    bystander = rmat_b(6, seed=50)
    config = {"engine": "superstep"}
    with ServiceClient(socket_path=server.config.socket_path) as client:
        client.extract(mutated, config=config)
        client.extract(bystander, config=config)
        before = client.stats()
        opened = client.mutate(graph=mutated)
        assert opened.session == "opened"
        assert opened.num_graph_edges == mutated.num_edges
        # opening alone mutates nothing and evicts nothing
        assert client.stats()["cache_invalidations"] == before[
            "cache_invalidations"
        ]
        u, v = (int(x) for x in mutated.edge_array()[0])
        step = client.mutate(ops=[("delete", u, v)], verify=True)
        assert step.session == "continued"
        assert step.applied == {
            "applied": 1,
            "inserted": 0,
            "retained": 0,
            "deleted": 1,
        }
        assert step.verified
        assert step.num_graph_edges == mutated.num_edges - 1
        after = client.stats()
        assert after["mutations"] == before["mutations"] + 1
        assert after["cache_invalidations"] > before["cache_invalidations"]
        # targeted: the mutated graph's entry is gone (its hash probe
        # misses), the bystander's hits
        assert not client.extract(mutated, config=config).cached
        assert client.stats()["probe_misses"] == after["probe_misses"] + 1
        assert client.extract(bystander, config=config).cached
        # round trip: reinserting restores the original graph, and the
        # answer is that graph's maximalizing extraction
        restored = client.mutate(ops=[("insert", u, v)])
        assert restored.num_graph_edges == mutated.num_edges
        expected = client.extract(
            mutated, config={"engine": "superstep", "maximalize": True}
        )
        assert np.array_equal(restored.edges, expected.edges)


def _ask(server, *messages):
    """Send ``messages`` on one raw connection; their replies, in order."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(server.config.socket_path)
        replies = []
        for message in messages:
            protocol.send_message(sock, message)
            replies.append(protocol.recv_message(sock))
    return replies


def _probe(graph, config=None):
    message = {"op": "extract", "hash": protocol.graph_content_hash(graph)}
    if config is not None:
        message["config"] = config
    return message


def test_hash_hit_is_bit_identical_to_a_graph_hit(server):
    graph = rmat_b(7, seed=61)
    config = {"engine": "superstep", "maximalize": True}
    shipped = {"op": "extract", "graph": protocol.encode_graph(graph), "config": config}
    miss, graph_hit, hash_hit = _ask(server, shipped, shipped, _probe(graph, config))
    assert miss["ok"] and not miss["cached"]
    assert graph_hit["cached"] and graph_hit["served_by"] == "cache"
    edges, probe_edges = graph_hit.pop("edges"), hash_hit.pop("edges")
    assert probe_edges.dtype == edges.dtype
    assert probe_edges.tobytes() == edges.tobytes()
    assert hash_hit == graph_hit  # every metadata field, value for value


def test_unknown_hash_answers_not_cached_without_a_dispatch(server, client):
    graph = rmat_b(6, seed=62)  # never sent to this server
    before = client.stats()
    (reply,) = _ask(server, _probe(graph))
    after = client.stats()
    assert reply["ok"] is False
    assert reply["error"]["code"] == protocol.NOT_CACHED
    assert _dispatches(after) == _dispatches(before)
    assert after["probe_misses"] == before["probe_misses"] + 1
    assert after["cache"]["misses"] == before["cache"]["misses"]
    assert after["cache_hits"] == before["cache_hits"]


def test_first_request_counts_one_miss_and_a_repeat_one_hit(client):
    graph = rmat_b(6, seed=63)
    before = client.stats()
    assert not client.extract(graph).cached  # probe miss, then a real miss
    mid = client.stats()
    assert mid["probe_misses"] == before["probe_misses"] + 1
    assert mid["cache"]["misses"] == before["cache"]["misses"] + 1
    assert client.extract(graph).cached  # the probe hits
    after = client.stats()
    assert after["cache"]["hits"] == mid["cache"]["hits"] + 1
    assert after["cache"]["misses"] == mid["cache"]["misses"]
    assert after["probe_misses"] == mid["probe_misses"]


class _ProtocolOneServer(ReproServer):
    """A daemon that predates hash probes: ``hash`` is an unknown field."""

    def _handle_extract(self, request):
        if "hash" in request:
            return protocol.error_response(
                protocol.BAD_REQUEST, "unknown request field(s) ['hash']"
            )
        return super()._handle_extract(request)


def test_client_falls_back_to_the_graph_on_a_daemon_without_probes(
    tmp_path, client
):
    graph, other = rmat_b(6, seed=64), rmat_b(6, seed=65)
    config = ServiceConfig(socket_path=str(tmp_path / "old.sock"))
    with _ProtocolOneServer(config) as old:
        with ServiceClient(socket_path=config.socket_path) as c:
            first = c.extract(graph)  # refused probe, then the graph
            assert c.stats()["requests"] == 3  # incl. this stats call
            again = c.extract(graph, verify=True)  # no more probes
            c.extract(other)
            assert c.stats()["requests"] == 3 + 3
        assert old.stats()["cache_hits"] == 1
    assert not first.cached and again.cached and again.verified
    expected = client.extract(graph, no_cache=True).edges
    assert first.edges.tobytes() == expected.tobytes()
    assert again.edges.tobytes() == expected.tobytes()


def test_mutate_without_session_or_with_bad_ops_is_rejected(server):
    from repro.service import ServiceError

    with ServiceClient(socket_path=server.config.socket_path) as client:
        with pytest.raises(ServiceError, match="no open mutate session"):
            client.mutate(ops=[("insert", 0, 1)])
        graph = build_graph(4, [(0, 1), (1, 2)])
        client.mutate(graph=graph)
        with pytest.raises(ServiceError, match="mutation rejected"):
            client.mutate(ops=[("delete", 0, 3)])  # not an edge
        # the session survives a rejected mutation and stays coherent
        ok = client.mutate(ops=[("insert", 0, 2)])
        assert ok.session == "continued"
        assert ok.num_graph_edges == 3


def test_mutate_sessions_are_per_connection(server):
    graph = build_graph(4, [(0, 1), (1, 2)])
    with ServiceClient(socket_path=server.config.socket_path) as c1:
        c1.mutate(graph=graph)
        with ServiceClient(socket_path=server.config.socket_path) as c2:
            from repro.service import ServiceError

            with pytest.raises(ServiceError, match="no open mutate session"):
                c2.mutate(ops=[("insert", 0, 2)])
        # c1's session is unaffected by c2's lifecycle
        assert c1.mutate(ops=[("insert", 0, 2)]).session == "continued"


def test_lru_eviction_pins_the_entry_ceiling(tmp_path):
    sock = str(tmp_path / "lru.sock")
    config = ServiceConfig(socket_path=sock, cache_entries=2)
    graphs = [rmat_b(5, seed=s) for s in (1, 2, 3)]
    with ReproServer(config):
        with ServiceClient(socket_path=sock) as client:
            for g in graphs:
                client.extract(g, config={"engine": "superstep"})
            stats = client.stats()["cache"]
            assert stats["entries"] <= 2
            assert stats["evictions"] >= 1
            # LRU: g0 (oldest) was evicted, g2 (newest) survives
            assert client.extract(graphs[2], config={"engine": "superstep"}).cached
            assert not client.extract(
                graphs[0], config={"engine": "superstep"}
            ).cached


# ---------------------------------------------------------------------------
# ResultCache unit surface


def _edges(k: int, offset: int = 0) -> np.ndarray:
    return np.arange(offset, offset + 2 * k, dtype=np.int64).reshape(k, 2)


def test_result_cache_entry_ceiling_holds():
    cache = ResultCache(max_entries=3, max_bytes=1 << 20)
    for i in range(10):
        cache.put((i,), _edges(4, i), {"i": i})
        assert cache.stats()["entries"] <= 3
    assert cache.get((9,)) is not None
    assert cache.get((0,)) is None
    assert cache.stats()["evictions"] == 7


def test_result_cache_byte_ceiling_holds():
    row_bytes = _edges(10).nbytes
    cache = ResultCache(max_entries=100, max_bytes=3 * row_bytes)
    for i in range(10):
        cache.put((i,), _edges(10), {})
        assert cache.stats()["bytes"] <= 3 * row_bytes
    assert cache.stats()["entries"] == 3


def test_result_cache_rejects_oversized_entry_outright():
    cache = ResultCache(max_entries=10, max_bytes=64)
    cache.put(("big",), _edges(1000), {})
    assert cache.stats() == {
        "entries": 0,
        "bytes": 0,
        "max_entries": 10,
        "max_bytes": 64,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
    }


def test_result_cache_verified_bit_round_trip():
    cache = ResultCache(max_entries=4, max_bytes=1 << 20)
    cache.put(("a",), _edges(2), {})
    assert not cache.is_verified(("a",))
    cache.mark_verified(("a",))
    assert cache.is_verified(("a",))
    # the verified probe is not a hit and must not refresh recency
    hits = cache.stats()["hits"]
    assert cache.is_verified(("a",))
    assert cache.stats()["hits"] == hits
    # put with verified=True stores the bit up front
    cache.put(("b",), _edges(2, 10), {}, verified=True)
    assert cache.is_verified(("b",))
    # replacing an entry resets its verified bit
    cache.put(("b",), _edges(3, 20), {})
    assert not cache.is_verified(("b",))
    # marking an absent key is a no-op, probing it is False
    cache.mark_verified(("ghost",))
    assert not cache.is_verified(("ghost",))


def test_result_cache_probe_lookups_count_no_miss():
    cache = ResultCache(max_entries=4, max_bytes=1 << 20)
    cache.put(("a",), _edges(2), {"tag": "a"})
    assert cache.get(("ghost",), count_miss=False) is None
    assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 0)
    edges, meta = cache.get(("a",), count_miss=False)
    assert (edges == _edges(2)).all() and meta == {"tag": "a"}
    assert cache.get(("ghost",)) is None  # the default counts the miss
    assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)


def test_result_cache_invalidate_graph_targets_one_content_hash():
    cache = ResultCache(max_entries=8, max_bytes=1 << 20)
    cache.put(("h1", "cfgA"), _edges(2), {})
    cache.put(("h1", "cfgB"), _edges(3), {})
    cache.put(("h2", "cfgA"), _edges(4), {})
    assert cache.invalidate_graph("h1") == 2
    assert cache.get(("h1", "cfgA")) is None
    assert cache.get(("h1", "cfgB")) is None
    assert cache.get(("h2", "cfgA")) is not None
    assert cache.stats()["evictions"] == 2
    assert cache.invalidate_graph("absent") == 0


def test_result_cache_get_recency_and_replacement():
    cache = ResultCache(max_entries=2, max_bytes=1 << 20)
    cache.put(("a",), _edges(2), {"tag": "a"})
    cache.put(("b",), _edges(2, 10), {"tag": "b"})
    assert cache.get(("a",))[1]["tag"] == "a"  # refresh 'a'
    cache.put(("c",), _edges(2, 20), {"tag": "c"})  # evicts 'b', not 'a'
    assert cache.get(("b",)) is None
    edges, meta = cache.get(("a",))
    assert (edges == _edges(2)).all()
    # replacing a key updates bytes accounting rather than double-counting
    cache.put(("a",), _edges(5), {"tag": "a2"})
    assert cache.stats()["bytes"] == _edges(5).nbytes + _edges(2).nbytes
