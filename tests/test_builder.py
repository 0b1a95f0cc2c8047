"""Tests for graph construction and sanitisation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.builder import (
    MAX_KEYED_VERTICES,
    build_graph,
    canonical_keys,
    edge_keys,
    from_adjacency_dict,
    from_edge_array,
    from_networkx,
    graph_keys,
    key_index,
)
from repro.graph.generators.rmat import rmat_er
from repro.graph.ops import edge_subgraph


class TestSanitisation:
    def test_self_loops_dropped(self):
        g = build_graph(3, [(0, 0), (0, 1), (2, 2)])
        assert g.edge_set() == {(0, 1)}

    def test_duplicates_collapsed(self):
        g = build_graph(3, [(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_reversed_duplicates_collapsed(self):
        g = build_graph(4, [(2, 1), (1, 2), (3, 0), (0, 3)])
        assert g.edge_set() == {(1, 2), (0, 3)}

    def test_empty_edges(self):
        g = from_edge_array(5, np.empty((0, 2), np.int64))
        assert g.num_vertices == 5
        assert g.num_edges == 0

    def test_out_of_range_raises(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            build_graph(3, [(0, 5)])

    def test_out_of_range_dropped_when_allowed(self):
        g = from_edge_array(3, np.array([[0, 5], [0, 1]]), allow_out_of_range=True)
        assert g.edge_set() == {(0, 1)}

    def test_negative_vertex_count_raises(self):
        with pytest.raises(GraphFormatError):
            from_edge_array(-1, np.empty((0, 2), np.int64))

    def test_bad_shape_raises(self):
        with pytest.raises(GraphFormatError, match="shape"):
            from_edge_array(3, np.array([[0, 1, 2]]))

    def test_adjacency_always_sorted(self):
        g = build_graph(5, [(4, 0), (4, 2), (4, 1), (4, 3)])
        assert list(g.neighbors(4)) == [0, 1, 2, 3]

    def test_symmetry(self):
        g = build_graph(6, [(0, 3), (5, 1), (2, 4)])
        g.validate_symmetry()

    def test_small_graph_uses_int32(self):
        g = build_graph(10, [(0, 1)])
        assert g.indices.dtype == np.int32


class TestAdjacencyDict:
    def test_basic(self):
        g = from_adjacency_dict({0: [1, 2], 1: [2]})
        assert g.edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_asymmetric_input_symmetrised(self):
        g = from_adjacency_dict({0: [1]})
        assert g.has_edge(1, 0)

    def test_isolated_trailing_vertex(self):
        g = from_adjacency_dict({0: [1], 3: []})
        assert g.num_vertices == 4
        assert g.degree(3) == 0

    def test_empty(self):
        g = from_adjacency_dict({})
        assert g.num_vertices == 0


class TestNetworkxConversion:
    def test_roundtrip(self):
        import networkx as nx

        G = nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        g = from_networkx(G)
        assert g.edge_set() == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_bad_labels_rejected(self):
        import networkx as nx

        G = nx.Graph([(1, 5)])
        with pytest.raises(GraphFormatError):
            from_networkx(G)


@given(
    n=st.integers(1, 12),
    edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
)
def test_builder_is_idempotent_and_simple(n, edges):
    """Property: output has no loops/dups and rebuilding is a fixed point."""
    edges = [(u % n, v % n) for u, v in edges]
    g = build_graph(n, edges)
    expected = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    assert g.edge_set() == expected
    rebuilt = build_graph(n, list(g.iter_edges()))
    assert rebuilt == g


def _set_reference(n, edges):
    """``(indptr, indices)`` of sorted adjacency built from a Python set
    of ``(min, max)`` pairs: the plain-Python reference of the builder."""
    pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    indptr = np.cumsum([0] + [len(row) for row in adj]).tolist()
    return indptr, [w for row in adj for w in sorted(row)]


@given(
    n=st.integers(0, 12),
    edges=st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=60),
    allow=st.booleans(),
)
def test_builder_matches_set_reference(n, edges, allow):
    """Property: loops, duplicates and both orientations collapse exactly
    as a set-based build does; out-of-range rows raise naming the first
    one, or are dropped under ``allow_out_of_range``."""
    edges = edges + [(v, u) for u, v in edges[::2]]
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    kept = [(u, v) for u, v in edges if 0 <= u < n and 0 <= v < n]
    if len(kept) < len(edges) and not allow:
        u, v = next((u, v) for u, v in edges if (u, v) not in kept)
        with pytest.raises(GraphFormatError, match=rf"^edge \({u}, {v}\) out of range for n={n}$"):
            from_edge_array(n, arr)
        return
    g = from_edge_array(n, arr, allow_out_of_range=allow)
    indptr, indices = _set_reference(n, kept)
    assert g.indptr.tolist() == indptr
    assert g.indices.tolist() == indices
    assert (g.indptr.dtype, g.indices.dtype) == (np.int64, np.int32)
    assert g.sorted_adjacency


class TestEdgeKeys:
    def test_key_range_limit(self):
        assert MAX_KEYED_VERTICES**2 <= 2**63 - 1 < (MAX_KEYED_VERTICES + 1) ** 2
        with pytest.raises(GraphFormatError, match="too large for int64 edge keys"):
            from_edge_array(MAX_KEYED_VERTICES + 1, [(0, 1)])

    def test_probe_is_range_checked(self):
        keys = edge_keys(3, [(1, 2)])
        # (0, 5) would key to 0*3+5 == 1*3+2 without the range check.
        probe = canonical_keys(3, [(0, 5), (2, 1), (1, 1), (-1, 2)])
        assert key_index(keys, probe).tolist() == [-1, 0, -1, -1]
        assert key_index(edge_keys(3, []), probe).tolist() == [-1] * 4

    def test_unsorted_adjacency_keyed_by_sorting(self):
        g = rmat_er(7, seed=3)
        shuffled = g.shuffled(np.random.default_rng(0))
        assert not shuffled.sorted_adjacency
        assert np.array_equal(graph_keys(shuffled), graph_keys(g))
        assert np.array_equal(graph_keys(g), edge_keys(g.num_vertices, g.edge_array()))
        assert edge_subgraph(shuffled, g.edge_array()[::-1]) == g
        non_edge = next(
            (u, v) for u in range(g.num_vertices) for v in range(u + 1, g.num_vertices)
            if not g.has_edge(u, v)
        )
        with pytest.raises(GraphFormatError, match=rf"edge \({non_edge[0]}, {non_edge[1]}\)"):
            edge_subgraph(shuffled, np.vstack((g.edge_array(), [non_edge])))
