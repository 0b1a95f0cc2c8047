"""Generators of graphs that are chordal *by construction*.

These give the test suite ground truth that is independent of both the
recognition machinery and the extraction algorithm:

* :func:`ktree` / :func:`partial_ktree` — k-trees are the maximal graphs
  of treewidth k and are chordal by construction; partial k-trees (random
  edge subsets) are the standard bounded-treewidth workload.
* :func:`random_chordal` — random chordal graph via a reversed elimination
  construction: each vertex connects to a random clique-in-progress subset
  of its predecessors, which makes the natural order a perfect elimination
  ordering by construction.
* :func:`interval_graph` — intersection graph of random intervals; interval
  graphs are a classical chordal subclass (used by the ordering examples).
* :func:`chordal_mutation_stream` — seeded edge-mutation stream that keeps
  the graph chordal after every event (Şeker-style subtree-of-a-tree
  dynamics), the ground-truth workload for mutate sessions.
* :func:`random_mutation_stream` — seeded insert/delete toggle stream over
  an arbitrary seed graph (no chordality guarantee), the general dynamic
  workload for :class:`repro.core.incremental.IncrementalExtractor`
  sessions.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph
from repro.util.rng import make_rng
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "ktree",
    "partial_ktree",
    "random_chordal",
    "interval_graph",
    "chordal_mutation_stream",
    "random_mutation_stream",
]


def ktree(n: int, k: int, seed=None) -> CSRGraph:
    """Random k-tree on ``n`` vertices (chordal, treewidth exactly k).

    Construction: start from a (k+1)-clique; every further vertex picks a
    uniformly random existing k-clique and connects to all of it.

    Requires ``n >= k + 1``.
    """
    check_positive("k", k)
    if n < k + 1:
        raise ValueError(f"k-tree requires n >= k+1, got n={n}, k={k}")
    rng = make_rng(seed)
    edges: list[tuple[int, int]] = []
    # Track the k-cliques available for attachment.
    base = list(range(k + 1))
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            edges.append((base[i], base[j]))
    cliques: list[tuple[int, ...]] = [
        tuple(c for idx, c in enumerate(base) if idx != drop) for drop in range(k + 1)
    ]
    for v in range(k + 1, n):
        attach = cliques[int(rng.integers(len(cliques)))]
        for u in attach:
            edges.append((u, v))
        # New attachable k-cliques: attach with any one member swapped for v
        # (attach itself also stays attachable).
        for drop in range(k):
            cliques.append(
                tuple(c for idx, c in enumerate(attach) if idx != drop) + (v,)
            )
    return from_edge_array(n, np.asarray(edges, dtype=np.int64))


def partial_ktree(n: int, k: int, keep: float, seed=None) -> CSRGraph:
    """Random partial k-tree: a k-tree with each edge kept with prob ``keep``.

    Not necessarily chordal, but treewidth <= k — the standard
    bounded-treewidth workload for ordering experiments.
    """
    check_in_range("keep", keep, 0.0, 1.0)
    rng = make_rng(seed)
    full = ktree(n, k, seed=rng)
    edges = full.edge_array()
    mask = rng.random(edges.shape[0]) < keep
    return from_edge_array(n, edges[mask])


def random_chordal(n: int, density: float = 0.3, seed=None) -> CSRGraph:
    """Random chordal graph with the natural order as its PEO.

    Vertex ``v`` (in increasing order) connects to a clique among its
    predecessors: a random earlier vertex ``r`` plus a random subset of
    ``r``'s earlier *chordal* neighborhood — which is a clique by
    induction, so ``v``'s earlier neighborhood is a clique and the natural
    order is a perfect elimination ordering (read backwards).

    ``density`` controls how much of the eligible clique each vertex
    adopts; 0 yields a forest-like graph, 1 yields near-k-trees.
    """
    check_in_range("density", density, 0.0, 1.0)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = make_rng(seed)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        r = int(rng.integers(v))
        # candidates: r plus r's neighbors below v form a clique ∪ {r}? —
        # r's *earlier* closed neighborhood restricted to r's clique: take
        # r's earlier neighbors, which form a clique with r by induction.
        clique = sorted(u for u in nbrs[r] if u < r) + [r]
        chosen = {r}
        for u in clique[:-1]:
            if rng.random() < density:
                chosen.add(u)
        for u in chosen:
            edges.append((u, v))
            nbrs[v].add(u)
            nbrs[u].add(v)
    arr = np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), np.int64)
    return from_edge_array(n, arr)


def chordal_mutation_stream(
    n: int,
    num_events: int,
    *,
    tree_nodes: int | None = None,
    seed=None,
) -> tuple[CSRGraph, list[list[tuple[str, int, int]]]]:
    """Seeded edge-mutation stream with ground-truth chordality.

    Construction (Şeker-style subtree dynamics): each of the ``n``
    vertices owns a connected subtree ``S_v`` of a shared host tree ``T``
    on ``tree_nodes`` nodes, and the graph is the intersection graph
    ``uv ∈ E ⇔ S_u ∩ S_v ≠ ∅``.  By the subtree characterization of
    chordal graphs (Gavril / Buneman), the graph is chordal at *every*
    event boundary.  Each event grows or shrinks one vertex's subtree by
    one tree node and emits the edge mutations that intersection change
    implies, as a list of ``("insert" | "delete", u, v)`` triples.

    Returns ``(initial_graph, events)`` where ``events`` has
    ``num_events`` entries (an entry may be empty when the touched tree
    node changes no intersections).  Because the answer on a chordal
    graph is unique — the only maximal chordal subgraph is the graph
    itself — these streams give mutate sessions an oracle that needs
    no reference extractor: after every event the answer must equal the
    full edge set.

    Fully deterministic for a given ``seed``.
    """
    check_positive("n", n)
    if num_events < 0:
        raise ValueError(f"num_events must be >= 0, got {num_events}")
    if tree_nodes is None:
        tree_nodes = max(2, n)
    check_positive("tree_nodes", tree_nodes)
    rng = make_rng(seed)
    # Host tree: random recursive tree.
    tree_adj: list[set[int]] = [set() for _ in range(tree_nodes)]
    for node in range(1, tree_nodes):
        parent = int(rng.integers(node))
        tree_adj[node].add(parent)
        tree_adj[parent].add(node)
    # Each vertex starts owning a single random tree node.
    subtree: list[set[int]] = []
    occupancy: list[set[int]] = [set() for _ in range(tree_nodes)]
    share: dict[tuple[int, int], int] = {}
    for v in range(n):
        node = int(rng.integers(tree_nodes))
        subtree.append({node})
        for w in occupancy[node]:
            _bump_share(share, v, w, +1)
        occupancy[node].add(v)
    initial = from_edge_array(
        n,
        np.asarray(sorted(share), dtype=np.int64)
        if share
        else np.empty((0, 2), np.int64),
    )

    def grow(v: int) -> list[tuple[str, int, int]]:
        frontier = sorted(
            {nbr for node in subtree[v] for nbr in tree_adj[node]} - subtree[v]
        )
        if not frontier:
            return []
        node = frontier[int(rng.integers(len(frontier)))]
        ops = []
        for w in sorted(occupancy[node]):
            if w != v and _bump_share(share, v, w, +1) == 1:
                ops.append(("insert", min(v, w), max(v, w)))
        subtree[v].add(node)
        occupancy[node].add(v)
        return ops

    def shrink(v: int) -> list[tuple[str, int, int]]:
        if len(subtree[v]) <= 1:
            return []
        # Removable nodes: leaves of the induced subtree keep it connected.
        leaves = sorted(
            node
            for node in subtree[v]
            if len(tree_adj[node] & subtree[v]) <= 1
        )
        if not leaves:
            return []
        node = leaves[int(rng.integers(len(leaves)))]
        subtree[v].discard(node)
        occupancy[node].discard(v)
        ops = []
        for w in sorted(occupancy[node]):
            if w != v and _bump_share(share, v, w, -1) == 0:
                ops.append(("delete", min(v, w), max(v, w)))
        return ops

    events: list[list[tuple[str, int, int]]] = []
    for _ in range(num_events):
        v = int(rng.integers(n))
        if rng.random() < 0.5:
            ops = grow(v) or shrink(v)
        else:
            ops = shrink(v) or grow(v)
        events.append(ops)
    return initial, events


def _bump_share(
    share: dict[tuple[int, int], int], v: int, w: int, delta: int
) -> int:
    """Adjust the subtree-overlap count of pair ``(v, w)``; returns the
    new count (the pair is an edge iff the count is positive)."""
    key = (v, w) if v < w else (w, v)
    count = share.get(key, 0) + delta
    if count <= 0:
        share.pop(key, None)
        return 0
    share[key] = count
    return count


def random_mutation_stream(
    graph: CSRGraph,
    num_mutations: int,
    *,
    insert_ratio: float = 0.7,
    seed=None,
) -> list[tuple[str, int, int]]:
    """Seeded insert/delete toggle stream over an arbitrary seed graph.

    Each mutation is valid against the evolving graph (inserts pick a
    current non-edge, deletes a current edge); ``insert_ratio`` is the
    probability a mutation is an insert when both moves are possible.
    No chordality guarantee — this is the general dynamic-graph workload
    for :class:`repro.core.incremental.IncrementalExtractor` (pair with
    :func:`chordal_mutation_stream` for a ground-truth oracle).

    Returns ``num_mutations`` triples ``("insert" | "delete", u, v)``,
    deterministic for a given ``(graph, seed)``.
    """
    check_in_range("insert_ratio", insert_ratio, 0.0, 1.0)
    if num_mutations < 0:
        raise ValueError(f"num_mutations must be >= 0, got {num_mutations}")
    n = graph.num_vertices
    if n < 2:
        raise ValueError("mutation streams need at least 2 vertices")
    rng = make_rng(seed)
    present = set(graph.edge_set())
    edge_list = sorted(present)
    max_edges = n * (n - 1) // 2
    ops: list[tuple[str, int, int]] = []
    for _ in range(num_mutations):
        do_insert = (not edge_list) or rng.random() < insert_ratio
        if len(present) == max_edges:
            do_insert = False
        if do_insert:
            while True:
                u = int(rng.integers(n))
                v = int(rng.integers(n))
                if u == v:
                    continue
                edge = (u, v) if u < v else (v, u)
                if edge not in present:
                    break
            present.add(edge)
            edge_list.append(edge)
            ops.append(("insert", edge[0], edge[1]))
        else:
            i = int(rng.integers(len(edge_list)))
            edge = edge_list[i]
            edge_list[i] = edge_list[-1]
            edge_list.pop()
            present.discard(edge)
            ops.append(("delete", edge[0], edge[1]))
    return ops


def interval_graph(n: int, max_length: float = 0.3, seed=None) -> CSRGraph:
    """Intersection graph of ``n`` random intervals in [0, 1].

    Interval graphs are chordal (a classical subclass); interval lengths
    are uniform in ``(0, max_length]``.
    """
    check_positive("max_length", max_length)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = make_rng(seed)
    starts = rng.random(n)
    lengths = rng.random(n) * max_length
    ends = starts + lengths
    order = np.argsort(starts)
    edges: list[tuple[int, int]] = []
    # sweep: compare each interval with successors until starts pass its end
    for idx, i in enumerate(order):
        for j in order[idx + 1:]:
            if starts[j] > ends[i]:
                break
            edges.append((int(i), int(j)))
    arr = np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), np.int64)
    return from_edge_array(n, arr)
