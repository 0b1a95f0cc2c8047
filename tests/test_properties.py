"""Cross-cutting property-based tests on the core invariants.

These are the reproduction's load-bearing guarantees, fuzzed with
hypothesis over random graphs:

1. Theorem 1 — every engine/schedule/variant output is chordal;
2. certified maximality after the completion pass;
3. engine agreement (superstep == reference);
4. the chordal edge set is a subset of the input edges with parents below
   children;
5. queue-size sanity (positive, bounded by n).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chordality.maximality import addable_edges
from repro.chordality.recognition import is_chordal
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.reference import reference_max_chordal
from repro.core.runtime import LocalState, SerialExecutor, drive
from tests.conftest import random_graph_from_data


def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    bits = draw(
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    return random_graph_from_data(n, bits)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_theorem1_chordality_all_configs(data):
    g = graphs(data.draw)
    schedule = data.draw(st.sampled_from(["asynchronous", "synchronous"]))
    variant = data.draw(st.sampled_from(["optimized", "unoptimized"]))
    engine = data.draw(st.sampled_from(["superstep", "reference"]))
    result = extract_maximal_chordal_subgraph(
        g, engine=engine, variant=variant, schedule=schedule, num_threads=2
    )
    assert is_chordal(result.subgraph)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certified_maximality_after_completion(data):
    g = graphs(data.draw, max_n=9)
    result = extract_maximal_chordal_subgraph(g, renumber="bfs", maximalize=True)
    assert is_chordal(result.subgraph)
    assert addable_edges(g, result.subgraph, limit=1) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engines_agree(data):
    g = graphs(data.draw)
    schedule = data.draw(st.sampled_from(["asynchronous", "synchronous"]))
    ref, ref_qs = reference_max_chordal(g, schedule=schedule)
    got, qs, _ = drive(LocalState(g), SerialExecutor(), schedule=schedule)
    assert {tuple(e) for e in ref.tolist()} == {tuple(e) for e in got.tolist()}
    assert qs == ref_qs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edge_set_invariants(data):
    g = graphs(data.draw)
    result = extract_maximal_chordal_subgraph(g)
    edges = result.edges
    # subset of input edges
    assert result.subgraph.edge_set() <= g.edge_set()
    # canonical (u < v), no duplicates
    if edges.size:
        assert bool(np.all(edges[:, 0] < edges[:, 1]))
        keys = edges[:, 0] * g.num_vertices + edges[:, 1]
        assert np.unique(keys).size == keys.size
    # spanning-forest lower bound: EC connects at least as much as a forest
    # would within each component reachable through chordal edges
    assert result.num_chordal_edges <= g.num_edges


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_queue_size_sanity(data):
    g = graphs(data.draw)
    result = extract_maximal_chordal_subgraph(g)
    for q in result.queue_sizes:
        assert 1 <= q <= g.num_vertices
    # iterations bounded by max degree + 1 (paper's O(Delta) bound)
    assert result.num_iterations <= g.max_degree() + 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chordal_input_fully_retained(data):
    """If the input is already chordal, Algorithm 1 keeps every edge
    (the subset tests always pass along a perfect elimination structure)?
    Not guaranteed by the paper — but the *completion pass* must restore
    every edge of a chordal input."""
    g = graphs(data.draw, max_n=8)
    sub = extract_maximal_chordal_subgraph(g).subgraph  # chordal input
    result = extract_maximal_chordal_subgraph(sub, renumber="bfs", maximalize=True)
    assert result.subgraph.edge_set() == sub.edge_set()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dearing_certified_maximal(data):
    from repro.baselines.dearing import dearing_max_chordal
    from repro.graph.ops import edge_subgraph

    g = graphs(data.draw, max_n=9)
    sub = edge_subgraph(g, dearing_max_chordal(g))
    assert is_chordal(sub)
    assert addable_edges(g, sub, limit=1) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 25),
    k=st.integers(1, 3),
    seed=st.integers(0, 50),
)
def test_ktree_roundtrip_through_full_stack(n, k, seed):
    """Known-chordal input (k-tree): recognition accepts it, the completion
    pass restores all of it, and its treewidth survives the pipeline."""
    from repro.chordalg.treewidth import chordal_treewidth
    from repro.graph.generators.chordal import ktree

    if n < k + 1:
        n = k + 1
    g = ktree(n, k, seed=seed)
    assert is_chordal(g)
    result = extract_maximal_chordal_subgraph(g, renumber="bfs", maximalize=True)
    assert result.subgraph.edge_set() == g.edge_set()
    assert chordal_treewidth(result.subgraph) == (k if n > k else n - 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0, 1), seed=st.integers(0, 50))
def test_random_chordal_extraction_preserves_connectivity(n, density, seed):
    """On connected chordal inputs, BFS-renumbered extraction keeps the
    graph connected (Theorem 2's corollary chain)."""
    from repro.graph.bfs import connected_components
    from repro.graph.generators.chordal import random_chordal

    g = random_chordal(n, density, seed=seed)
    result = extract_maximal_chordal_subgraph(g, renumber="bfs")
    assert connected_components(result.subgraph)[0] == connected_components(g)[0]
