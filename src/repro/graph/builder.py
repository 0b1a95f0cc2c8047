"""Construction of :class:`~repro.graph.csr.CSRGraph` from raw edge data.

The builder is the canonical sanitiser: it drops self-loops, deduplicates
parallel edges, symmetrises, and emits sorted adjacency.  R-MAT in
particular produces duplicate edges and self-loops by design, so every
generator routes through :func:`from_edge_array`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = [
    "build_graph",
    "from_edge_array",
    "from_edge_keys",
    "edge_keys",
    "graph_keys",
    "canonical_keys",
    "key_index",
    "key_pairs",
    "from_adjacency_dict",
    "from_networkx",
    "compact_labels",
]


def compact_labels(edges: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Relabel arbitrary integer endpoints to the contiguous range ``0..k-1``.

    Real-world edge lists (SNAP dumps in particular) use sparse,
    non-contiguous — sometimes huge — vertex ids; the CSR substrate needs
    dense ids.  Returns ``(k, relabeled, labels)`` where ``k`` is the
    number of distinct endpoints, ``relabeled`` is the ``(m, 2)`` edge
    array over new ids, and ``labels[new_id] = original_id`` (sorted
    ascending, so relabeling preserves the relative id order Algorithm 1's
    lowest-parent structure is sensitive to).  Only ids that appear as an
    endpoint receive a label; isolated vertices are not representable.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return 0, e, np.empty(0, dtype=np.int64)
    labels, inverse = np.unique(e, return_inverse=True)
    return int(labels.size), inverse.reshape(e.shape).astype(np.int64), labels


def _best_index_dtype(n: int) -> np.dtype:
    """int32 when ids fit (cache-friendlier, matching the paper's platforms),
    int64 otherwise."""
    return np.dtype(np.int32) if n <= np.iinfo(np.int32).max else np.dtype(np.int64)


#: Largest ``n`` whose keys ``u * n + v`` fit in int64 (``isqrt(2**63 - 1)``).
MAX_KEYED_VERTICES = 3_037_000_499


def canonical_keys(num_vertices: int, edges) -> np.ndarray:
    """Per-row canonical key ``min * n + max`` of an ``(m, 2)`` array, in
    row order; ``-1`` for a self-loop or an endpoint outside ``[0, n)``."""
    if num_vertices > MAX_KEYED_VERTICES:
        raise GraphFormatError(
            f"n={num_vertices} is too large for int64 edge keys "
            f"(at most {MAX_KEYED_VERTICES} vertices)"
        )
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    keys = lo * num_vertices + hi
    keys[(lo < 0) | (hi >= num_vertices) | (lo == hi)] = -1
    return keys


def edge_keys(
    num_vertices: int, edges: np.ndarray, *, allow_out_of_range: bool = False
) -> np.ndarray:
    """The canonical edge-key set of an ``(m, 2)`` integer edge array.

    Keys are ``u * n + v`` with ``u < v``, sorted and unique: one
    ``np.sort``, then self-loops and adjacent duplicates (either
    orientation) dropped.  Sorted keys are ``(u, v)`` lexicographic, and
    :func:`key_index` probes them.  An endpoint outside ``[0, n)`` raises
    :class:`GraphFormatError`, or drops its row under ``allow_out_of_range``.
    """
    if num_vertices < 0:
        raise GraphFormatError(f"num_vertices must be >= 0, got {num_vertices}")
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphFormatError(f"edges must have shape (m, 2), got {e.shape}")
    keys = canonical_keys(num_vertices, e)
    if not allow_out_of_range:
        out = (e < 0).any(axis=1) | (e >= num_vertices).any(axis=1)
        if out.any():
            bad = e[out][0]
            raise GraphFormatError(
                f"edge ({bad[0]}, {bad[1]}) out of range for n={num_vertices}"
            )
    keys = np.sort(keys[keys >= 0])
    return keys[np.diff(keys, prepend=-1) != 0]


def graph_keys(graph: CSRGraph) -> np.ndarray:
    """The canonical edge-key set of ``graph`` (see :func:`edge_keys`); sorted
    here when unsorted adjacency leaves ``edge_array()`` rows unordered."""
    keys = canonical_keys(graph.num_vertices, graph.edge_array())
    return keys if graph.sorted_adjacency else np.sort(keys)


def key_pairs(num_vertices: int, keys: np.ndarray) -> np.ndarray:
    """The ``(k, 2)`` int64 ``(u, v)`` rows of canonical ``keys``."""
    return np.column_stack(np.divmod(keys, max(num_vertices, 1)))


def key_index(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each of ``keys`` in ``sorted_keys`` by ``searchsorted``;
    ``-1`` where absent, as every ``-1`` key of :func:`canonical_keys` is,
    so probing through both is range-checked."""
    pos = np.searchsorted(sorted_keys, keys)
    # Every key is below the int64 maximum, so it pads the end safely.
    return np.where(np.append(sorted_keys, np.iinfo(np.int64).max)[pos] == keys, pos, -1)


def from_edge_array(
    num_vertices: int,
    edges: np.ndarray,
    *,
    allow_out_of_range: bool = False,
) -> CSRGraph:
    """Build a simple undirected graph from an ``(m, 2)`` integer edge array.

    Self-loops are removed, duplicate (and reversed-duplicate) edges are
    collapsed, and adjacency slices come out strictly increasing: the rows
    are keyed by :func:`edge_keys`, then built by :func:`from_edge_keys`.

    Parameters
    ----------
    num_vertices:
        The vertex-set size ``n``; endpoints must lie in ``[0, n)``.
    edges:
        ``(m, 2)`` array-like of endpoints.  May be empty.
    allow_out_of_range:
        If True, silently drop edges with endpoints outside ``[0, n)``
        instead of raising (used by samplers that over-generate).
    """
    keys = edge_keys(num_vertices, edges, allow_out_of_range=allow_out_of_range)
    return from_edge_keys(num_vertices, keys)


def from_edge_keys(num_vertices: int, keys: np.ndarray) -> CSRGraph:
    """The graph of a canonical key set (sorted, unique, ``u < v``): one
    sort of the directed keys gives ``indptr`` and ``indices`` directly."""
    n = max(num_vertices, 1)
    lo, hi = np.divmod(keys, n)
    arcs = np.sort(np.concatenate((keys, hi * n + lo)))
    indptr = np.searchsorted(arcs, np.arange(num_vertices + 1, dtype=np.int64) * n)
    indices = (arcs % n).astype(_best_index_dtype(num_vertices))
    return CSRGraph(indptr, indices, sorted_adjacency=True, validate=False)


def build_graph(num_vertices: int, edges: Iterable[tuple[int, int]]) -> CSRGraph:
    """Build a graph from any iterable of ``(u, v)`` pairs.

    Convenience wrapper over :func:`from_edge_array` for hand-written edge
    lists in tests and examples.
    """
    edge_list = list(edges)
    arr = np.asarray(edge_list, dtype=np.int64) if edge_list else np.empty((0, 2), np.int64)
    return from_edge_array(num_vertices, arr)


def from_adjacency_dict(adj: Mapping[int, Iterable[int]]) -> CSRGraph:
    """Build a graph from ``{vertex: neighbors}``.

    The vertex set is ``0 .. max_id`` where ``max_id`` is the largest id
    appearing as a key or neighbor; the mapping need not mention every
    vertex and need not be symmetric (symmetry is restored).
    """
    pairs: list[tuple[int, int]] = []
    max_id = -1
    for u, nbrs in adj.items():
        u = int(u)
        max_id = max(max_id, u)
        for v in nbrs:
            v = int(v)
            max_id = max(max_id, v)
            pairs.append((u, v))
    return build_graph(max_id + 1, pairs)


def from_networkx(nx_graph) -> CSRGraph:
    """Convert a ``networkx.Graph`` with integer labels ``0..n-1``.

    Only used in tests/examples; networkx is an optional dependency so the
    import happens at call time.
    """
    n = nx_graph.number_of_nodes()
    nodes = sorted(nx_graph.nodes())
    if nodes and (nodes[0] != 0 or nodes[-1] != n - 1):
        raise GraphFormatError("networkx graph must be labelled 0..n-1")
    edges = np.asarray([(u, v) for u, v in nx_graph.edges()], dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    return from_edge_array(n, edges)
