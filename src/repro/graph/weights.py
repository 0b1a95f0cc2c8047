"""Per-edge weights for weighted extraction (:mod:`repro.core.weighted`).

The CSR substrate stores weights *arc-aligned*: one float per stored
directed arc, with the two arcs of an undirected edge carrying the same
value, so ``graph.neighbor_weights(v)`` lines up with
``graph.neighbors(v)`` and the weighted engine never needs a hash lookup
on its hot path.  This module is the only place that builds that array —
:func:`attach_edge_weights` accepts the user-facing shapes (a
``{(u, v): w}`` mapping, a per-edge array aligned with
:meth:`~repro.graph.csr.CSRGraph.edge_array` rows, or a scalar) and
validates them once:

* weights must be finite (no NaN/inf) — :class:`GraphFormatError`;
* a mapping key must name an actual edge — :class:`GraphFormatError`;
* conflicting duplicates (``(u, v)`` and ``(v, u)`` with different
  values) are rejected; agreeing duplicates are fine;
* zero and negative weights are *allowed* — the weighted engine treats
  weight as a preference, not a capacity, and degenerate values simply
  lower an edge's retention priority (property-tested in
  ``tests/test_weighted_engine.py``).

Edges a mapping does not name take ``default`` (1.0), so sparse weight
annotations over large graphs stay cheap to express.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import canonical_keys, key_index
from repro.graph.csr import CSRGraph

__all__ = [
    "attach_edge_weights",
    "uniform_weights",
    "edge_weight_mapping",
    "retained_weight",
]


def _row_keys(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_keys, order)``: the sorted canonical keys of the rows of
    ``graph.edge_array()``, and the row order that sorts them."""
    keys = canonical_keys(graph.num_vertices, graph.edge_array())
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _row_weights_from_mapping(
    graph: CSRGraph, mapping: Mapping, default: float
) -> np.ndarray:
    """Per-edge weights (edge_array row order) from a ``{(u, v): w}`` map."""
    n = graph.num_vertices
    canonical: dict[tuple[int, int], float] = {}
    for key, value in mapping.items():
        try:
            u, v = (int(key[0]), int(key[1]))
        except (TypeError, ValueError, IndexError):
            raise GraphFormatError(
                f"weight key {key!r} is not an edge (u, v) pair"
            ) from None
        if not 0 <= u < n or not 0 <= v < n or u == v:
            raise GraphFormatError(
                f"weight key ({u}, {v}) is not a valid edge of an "
                f"n={n} graph"
            )
        if not graph.has_edge(u, v):
            raise GraphFormatError(
                f"weight given for ({u}, {v}), which is not an edge of the graph"
            )
        edge = (min(u, v), max(u, v))
        w = float(value)
        if edge in canonical and canonical[edge] != w:
            raise GraphFormatError(
                f"conflicting duplicate weights for edge {edge}: "
                f"{canonical[edge]} vs {w} (its two orientations must agree)"
            )
        canonical[edge] = w
    out = np.full(graph.num_edges, float(default), dtype=np.float64)
    if canonical:
        sorted_keys, order = _row_keys(graph)
        pos = key_index(sorted_keys, canonical_keys(n, list(canonical)))
        out[order[pos]] = list(canonical.values())
    return out


def attach_edge_weights(
    graph: CSRGraph,
    weights,
    *,
    default: float = 1.0,
) -> CSRGraph:
    """Return ``graph`` with per-edge weights attached.

    Parameters
    ----------
    graph:
        Any :class:`CSRGraph`; existing weights (if any) are replaced.
    weights:
        One of

        * a mapping ``{(u, v): weight}`` — either orientation of an edge
          is accepted, conflicting duplicates raise, unnamed edges take
          ``default``;
        * a 1-D array-like of length ``graph.num_edges`` aligned with
          :meth:`CSRGraph.edge_array` rows;
        * a scalar, applied uniformly.
    default:
        Fill value for edges a mapping does not name.

    Returns
    -------
    A new :class:`CSRGraph` sharing the CSR index arrays, carrying the
    validated arc-aligned weight array (``graph.has_weights`` is True).

    Raises
    ------
    GraphFormatError
        Non-finite weights, keys that are not edges, conflicting
        duplicate keys, or a per-edge array of the wrong length.
    """
    if isinstance(weights, Mapping):
        row_weights = _row_weights_from_mapping(graph, weights, default)
    elif np.isscalar(weights):
        row_weights = np.full(graph.num_edges, float(weights), dtype=np.float64)
    else:
        row_weights = np.asarray(weights, dtype=np.float64)
        if row_weights.ndim != 1 or row_weights.size != graph.num_edges:
            raise GraphFormatError(
                f"per-edge weights must be a 1-D array of length "
                f"num_edges={graph.num_edges}, got shape {row_weights.shape}"
            )
    if row_weights.size and not np.all(np.isfinite(row_weights)):
        raise GraphFormatError("edge weights must be finite (no NaN/inf)")

    # Scatter row weights to both arcs of each edge: key every arc by its
    # canonical (min, max) pair and look it up in the sorted row keys.
    sorted_keys, order = _row_keys(graph)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees())
    arcs = np.column_stack((src, graph.indices))
    pos = key_index(sorted_keys, canonical_keys(graph.num_vertices, arcs))
    arc_weights = row_weights[order][pos] if row_weights.size else row_weights
    return CSRGraph(
        graph.indptr,
        graph.indices,
        sorted_adjacency=graph.sorted_adjacency,
        validate=False,
        arc_weights=arc_weights,
    )


def uniform_weights(graph: CSRGraph, value: float = 1.0) -> CSRGraph:
    """``graph`` with every edge weighted ``value`` (the unweighted limit)."""
    return attach_edge_weights(graph, float(value))


def edge_weight_mapping(graph: CSRGraph) -> dict[tuple[int, int], float]:
    """``{(u, v): weight}`` over ``u < v`` edges (uniform 1.0 when the
    graph is unweighted) — the lookup shape the serial weighted pass and
    the weight-greedy completion use."""
    rows = graph.edge_array()
    if graph.has_weights:
        values = graph.edge_weight_rows()
    else:
        values = np.ones(rows.shape[0], dtype=np.float64)
    return {
        (int(u), int(v)): float(w) for (u, v), w in zip(rows, values)
    }


def retained_weight(graph: CSRGraph, edges) -> float:
    """Total weight of ``edges`` under ``graph``'s weights.

    ``edges`` is any ``(k, 2)`` array-like of edges of ``graph``; a row
    that is not one raises :class:`GraphFormatError`, weighted or not.
    For an unweighted graph this is the edge count (uniform weight 1.0),
    so weighted and unweighted results are directly comparable.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return 0.0
    sorted_keys, order = _row_keys(graph)
    pos = key_index(sorted_keys, canonical_keys(graph.num_vertices, e))
    if np.any(pos < 0):
        bad = e[pos < 0]
        raise GraphFormatError(
            f"edges not in the graph: {[tuple(map(int, row)) for row in bad[:3]]}"
        )
    if not graph.has_weights:
        return float(e.shape[0])
    return float(graph.edge_weight_rows()[order][pos].sum())
