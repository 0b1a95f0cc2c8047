"""Structural graph operations: subgraphs, relabeling, unions, complement.

``edge_subgraph`` is the operation that materialises the paper's output —
the maximal chordal subgraph ``G' = (V, EC)`` — from the chordal edge set
returned by Algorithm 1.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import (
    edge_keys, from_edge_array, from_edge_keys, graph_keys, key_index, key_pairs,
)
from repro.graph.csr import CSRGraph

__all__ = [
    "edge_subgraph",
    "induced_subgraph",
    "relabel",
    "union_edges",
    "complement",
    "degree_histogram",
]


def edge_subgraph(graph: CSRGraph, edges: np.ndarray | Iterable[tuple[int, int]]) -> CSRGraph:
    """Subgraph on the *same vertex set* keeping only ``edges``.

    This matches the paper's definition of a chordal subgraph
    ``G' = (V, EC)`` — all vertices are retained, including isolated ones.
    ``edges`` are keyed (:func:`~repro.graph.builder.edge_keys`) and probed
    against ``graph``'s keys at once; the first missing one in ``(u, v)``
    order raises :class:`GraphFormatError`.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    n = graph.num_vertices
    keys = edge_keys(n, arr)
    missing = key_index(graph_keys(graph), keys) < 0
    if missing.any():
        u, v = key_pairs(n, keys[missing][:1])[0]
        raise GraphFormatError(f"edge ({u}, {v}) not present in parent graph")
    return from_edge_keys(n, keys)


def induced_subgraph(graph: CSRGraph, vertices: Iterable[int]) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``, relabelled to ``0..k-1``.

    Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original id
    of new vertex ``i``.
    """
    keep = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
    if keep.size and (keep[0] < 0 or keep[-1] >= graph.num_vertices):
        raise GraphFormatError("vertex ids out of range")
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size)
    edges = graph.edge_array()
    if edges.size:
        mask = (new_id[edges[:, 0]] >= 0) & (new_id[edges[:, 1]] >= 0)
        sub_edges = np.column_stack((new_id[edges[mask, 0]], new_id[edges[mask, 1]]))
    else:
        sub_edges = np.empty((0, 2), dtype=np.int64)
    return from_edge_array(keep.size, sub_edges), keep


def relabel(graph: CSRGraph, new_of_old: np.ndarray) -> CSRGraph:
    """Relabel vertices by the permutation ``new_of_old`` (old id -> new id).

    Relabeling is how the paper controls vertex-id order, which Algorithm 1's
    lowest-parent structure is sensitive to (e.g. BFS numbering guarantees a
    connected chordal subgraph, Theorem 2 corollary).
    """
    perm = np.asarray(new_of_old, dtype=np.int64)
    n = graph.num_vertices
    if perm.shape != (n,):
        raise GraphFormatError(f"permutation must have shape ({n},), got {perm.shape}")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise GraphFormatError("new_of_old is not a permutation of 0..n-1")
    edges = graph.edge_array()
    if edges.size:
        edges = np.column_stack((perm[edges[:, 0]], perm[edges[:, 1]]))
    return from_edge_array(n, edges)


def union_edges(graph_a: CSRGraph, graph_b: CSRGraph) -> CSRGraph:
    """Union of the edge sets of two graphs over the same vertex set."""
    if graph_a.num_vertices != graph_b.num_vertices:
        raise GraphFormatError(
            f"vertex-set mismatch: {graph_a.num_vertices} vs {graph_b.num_vertices}"
        )
    edges = np.vstack((graph_a.edge_array(), graph_b.edge_array()))
    return from_edge_array(graph_a.num_vertices, edges)


def complement(graph: CSRGraph) -> CSRGraph:
    """Complement graph (only sensible for small n; used in tests)."""
    n = graph.num_vertices
    if n > 4096:
        raise ValueError(f"complement limited to n <= 4096, got n={n}")
    dense = np.zeros((n, n), dtype=bool)
    edges = graph.edge_array()
    if edges.size:
        dense[edges[:, 0], edges[:, 1]] = True
        dense[edges[:, 1], edges[:, 0]] = True
    comp = ~dense
    np.fill_diagonal(comp, False)
    uu, vv = np.nonzero(np.triu(comp, k=1))
    return from_edge_array(n, np.column_stack((uu, vv)))


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """Histogram ``h`` with ``h[d]`` = number of vertices of degree ``d``."""
    degs = graph.degrees()
    if degs.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degs.astype(np.int64))
