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
in ``(u, v)`` lexicographic order
(:meth:`~repro.chordality.maximality.AddabilityOracle.completion`), and
every pass runs inside one
:class:`~repro.chordality.maximality.AddabilityOracle` call.  With
``weights`` given, candidates are offered
heaviest-first (the weight-greedy completion the ``weighted`` engine
runs), biasing the closed gap toward maximum retained weight.
"""

from __future__ import annotations

import numpy as np

from repro.chordality.maximality import AddabilityOracle
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
    we therefore sweep until a full pass adds nothing.  Several passes are
    common (3–4 on a 512-vertex RMAT-B session graph, 6 on RMAT-B(14)):
    an admission can give a rejected edge a new common neighbour, which
    joins its ban set and can cut every path that rejected it.  A later
    pass searches a
    rejected edge again only if one of its endpoints has gained an edge
    and its common-neighbour count has changed; otherwise the path that
    rejected it still avoids the same ban set, so the extra passes cost
    little.  Added edges come back in admission order, pass by pass.
    """
    base = np.asarray(chordal_edges, dtype=np.int64).reshape(-1, 2)
    oracle, candidates = AddabilityOracle.completion(graph, base)
    if weights is not None:
        # Candidates are lexicographic, so a stable sort on weight alone
        # breaks ties by (u, v).
        w = [weights.get(e, 1.0) for e in zip(*candidates.T.tolist())]
        candidates = candidates[np.argsort(-np.asarray(w, dtype=np.float64), kind="stable")]
    accepted_pass, _passes = oracle.greedy(candidates)

    rows = np.flatnonzero(accepted_pass)
    if not rows.size:
        return base, 0
    added = candidates[rows[np.argsort(accepted_pass[rows], kind="stable")]]
    return np.vstack((base, added)), int(rows.size)
