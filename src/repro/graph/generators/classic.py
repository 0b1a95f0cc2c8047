"""Deterministic graph families.

These are primarily test fixtures with known chordality properties:

* paths, trees, stars, cliques — chordal;
* cycles (n >= 4), grids, ladders — non-chordal with known maximal chordal
  subgraphs;
* barbells and disjoint cliques — the "densely connected components" worst
  case discussed in Section III (a k-clique costs k-1 iterations).
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import build_graph, from_edge_array
from repro.graph.csr import CSRGraph
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "binary_tree",
    "ladder_graph",
    "wheel_graph",
    "barbell_graph",
    "disjoint_cliques",
]


def path_graph(n: int) -> CSRGraph:
    """Path ``0 - 1 - ... - n-1`` (chordal)."""
    check_nonnegative("n", n)
    edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
    return from_edge_array(n, edges)


def cycle_graph(n: int) -> CSRGraph:
    """Cycle on ``n`` vertices (non-chordal for n >= 4)."""
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    base = np.arange(n)
    edges = np.column_stack((base, (base + 1) % n))
    return from_edge_array(n, edges)


def complete_graph(n: int) -> CSRGraph:
    """Clique K_n (chordal; Algorithm 1's worst case for iteration count)."""
    check_nonnegative("n", n)
    uu, vv = np.triu_indices(n, k=1)
    return from_edge_array(n, np.column_stack((uu, vv)))


def star_graph(n_leaves: int) -> CSRGraph:
    """Star: hub 0 plus ``n_leaves`` leaves (chordal, a tree)."""
    check_nonnegative("n_leaves", n_leaves)
    n = n_leaves + 1
    edges = np.column_stack((np.zeros(n_leaves, dtype=np.int64), np.arange(1, n)))
    return from_edge_array(n, edges)


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """rows x cols grid (non-chordal when both dims >= 2 and area >= 4)."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    ids = np.arange(rows * cols).reshape(rows, cols)
    horiz = np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    vert = np.column_stack((ids[:-1, :].ravel(), ids[1:, :].ravel()))
    edges = np.vstack((horiz, vert)) if horiz.size or vert.size else np.empty((0, 2), np.int64)
    return from_edge_array(rows * cols, edges)


def binary_tree(depth: int) -> CSRGraph:
    """Complete binary tree of the given depth (chordal). Depth 0 = 1 vertex."""
    check_nonnegative("depth", depth)
    n = 2 ** (depth + 1) - 1
    children = np.arange(1, n)
    parents = (children - 1) // 2
    return from_edge_array(n, np.column_stack((parents, children)))


def ladder_graph(length: int) -> CSRGraph:
    """Ladder: two paths of ``length`` vertices joined by rungs (non-chordal
    for length >= 2... specifically each 4-cycle is chordless)."""
    check_positive("length", length)
    top = np.arange(length)
    bot = np.arange(length, 2 * length)
    edges = []
    if length > 1:
        edges.append(np.column_stack((top[:-1], top[1:])))
        edges.append(np.column_stack((bot[:-1], bot[1:])))
    edges.append(np.column_stack((top, bot)))
    return from_edge_array(2 * length, np.vstack(edges))


def wheel_graph(n_rim: int) -> CSRGraph:
    """Wheel: hub 0 joined to an ``n_rim``-cycle (chordal only for n_rim=3)."""
    if n_rim < 3:
        raise ValueError(f"wheel requires n_rim >= 3, got {n_rim}")
    rim = np.arange(1, n_rim + 1)
    spokes = np.column_stack((np.zeros(n_rim, dtype=np.int64), rim))
    ring = np.column_stack((rim, np.roll(rim, -1)))
    return from_edge_array(n_rim + 1, np.vstack((spokes, ring)))


def barbell_graph(clique_size: int, bridge_length: int = 1) -> CSRGraph:
    """Two ``clique_size``-cliques joined by a path of ``bridge_length`` edges.

    Models the paper's observation that well-separated dense components
    drive the iteration count while the sparse in-between region drives the
    non-chordal fraction.
    """
    if clique_size < 1:
        raise ValueError(f"clique_size must be >= 1, got {clique_size}")
    check_positive("bridge_length", bridge_length)
    k = clique_size
    n = 2 * k + (bridge_length - 1)
    edges: list[tuple[int, int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((n - k + i, n - k + j))
    chain = [k - 1] + list(range(k, k + bridge_length - 1)) + [n - k]
    for a, b in zip(chain[:-1], chain[1:]):
        edges.append((a, b))
    return build_graph(n, edges)


def disjoint_cliques(num_cliques: int, clique_size: int) -> CSRGraph:
    """``num_cliques`` disjoint cliques of ``clique_size`` vertices each.

    Exercises the component-stitching corollary of Theorem 2.
    """
    check_positive("num_cliques", num_cliques)
    check_positive("clique_size", clique_size)
    edges: list[tuple[int, int]] = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    return build_graph(num_cliques * clique_size, edges)
