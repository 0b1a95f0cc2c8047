"""Maximality completion pass (closes the Theorem 2 gap).

The paper's Theorem 2 asserts that a connected output of Algorithm 1 is
maximal, but its proof is incomplete and the claim fails on real inputs:
the subset test ``C[w] ⊆ C[v]`` evaluates *while ``C[v]`` is still
growing*, so an edge can be rejected that would have passed against the
final sets (see ``tests/test_theorem2_gap.py`` for a machine-checked
counterexample and ``EXPERIMENTS.md`` for how rare this is in practice).

:func:`maximalize_chordal_edges` greedily re-offers every rejected edge to
the chordal subgraph using the O(V+E)-per-edge addability criterion of
:mod:`repro.chordality.maximality` and accepts those that keep the graph
chordal, yielding a certified-maximal chordal subgraph containing the
algorithm's output.  Candidates are the edges of ``G`` the output lacks,
diffed as sorted ``u * n + v`` keys, and every pass runs inside one
:class:`~repro.chordality.maximality.AddabilityOracle` call.  With
``weights`` given, candidates are offered
heaviest-first (the weight-greedy completion the ``weighted`` engine
runs), biasing the closed gap toward maximum retained weight.
"""

from __future__ import annotations

import numpy as np

from repro.chordality.maximality import AddabilityOracle
from repro.graph.builder import edge_keys, graph_keys, key_index, key_pairs
from repro.graph.csr import CSRGraph

__all__ = ["maximalize_chordal_edges"]


def maximalize_chordal_edges(
    graph: CSRGraph,
    chordal_edges: np.ndarray,
    *,
    weights: dict[tuple[int, int], float] | None = None,
) -> tuple[np.ndarray, int]:
    """Greedily extend ``chordal_edges`` to a truly maximal chordal edge set.

    Parameters
    ----------
    graph:
        The original graph ``G``.
    chordal_edges:
        ``(k, 2)`` chordal edge set (must induce a chordal subgraph; this
        is guaranteed for Algorithm 1 output by Theorem 1).
    weights:
        Optional ``{(u, v): weight}`` over ``u < v`` edges of ``graph``
        (see :func:`repro.graph.weights.edge_weight_mapping`).  When
        given, rejected edges are re-offered in descending weight order
        (ties by ``(u, v)``), so the completion prefers heavy edges.
        Candidate order never affects *whether* the result is maximal,
        only *which* maximal superset is reached.

    Returns
    -------
    ``(edges, added)`` — the extended ``(k + added, 2)`` edge array and the
    number of edges the pass added.  ``added`` is the paper's "maximality
    gap" for this input.

    Notes
    -----
    Greedy is safe: after each accepted edge the graph is still chordal,
    and an edge rejected now stays unaddable only *for the current graph*;
    we therefore sweep until a full pass adds nothing.  In practice one
    pass almost always suffices (adding an edge only makes other additions
    harder within the same region, but a later addition can in principle
    disconnect a common neighborhood, so the loop is kept for correctness).
    A later pass re-tests a rejected edge only if its component has gained
    an edge since, so the extra passes cost little.  Added edges come
    back in admission order, pass by pass.
    """
    base = np.asarray(chordal_edges, dtype=np.int64).reshape(-1, 2)
    n = graph.num_vertices
    have = edge_keys(n, base)
    keys = graph_keys(graph)
    cand = keys[key_index(have, keys) < 0]  # sorted keys: (u, v) lexicographic
    candidates = key_pairs(n, cand)
    if weights is not None:
        w = [weights.get(e, 1.0) for e in zip(*candidates.T.tolist())]
        candidates = candidates[np.lexsort((cand, -np.asarray(w, dtype=np.float64)))]

    # H grows inside G, so G's degrees bound it; edges of the input that G
    # lacks get their own slots.
    extra = key_pairs(n, have[key_index(keys, have) < 0])
    capacity = graph.degrees() + np.bincount(extra.ravel(), minlength=n)
    oracle = AddabilityOracle(n, capacity)
    oracle.add_edges(key_pairs(n, have))
    accepted_pass, _passes = oracle.greedy(candidates)

    rows = np.flatnonzero(accepted_pass)
    if not rows.size:
        return base, 0
    added = candidates[rows[np.argsort(accepted_pass[rows], kind="stable")]]
    return np.vstack((base, added)), int(rows.size)
