"""Literal pure-Python transcription of Algorithm 1.

This module is the executable *specification*: it follows the paper's
pseudocode line by line using dictionaries and sets, at the cost of speed.
The runtime engines (:mod:`repro.core.runtime`) are tested for edge-set
equality against it.

Schedules
---------
The paper's pseudocode leaves the intra-iteration execution order open
("for all v in Q1 **in parallel**"); two deterministic serialisations are
provided, and both satisfy the paper's correctness proofs:

* ``"asynchronous"`` (default) — sweep Q1 in ascending id order with *live*
  state, exactly what the paper's platforms converge to: when a vertex's
  next lowest parent is a later member of the same queue, the vertex is
  served again within the same iteration.  Because parents are consumed in
  increasing order and the sweep ascends, this is the maximal-progress
  serialisation — it reproduces the paper's headline iteration counts
  (~3 iterations for R-MAT inputs, ~10 for the gene networks, k-1 for a
  k-clique; Section V and Figure 7).

* ``"synchronous"`` — barrier semantics: every LP assignment and every
  chordal set is read as of the start of the iteration, so each vertex
  consumes exactly one parent per superstep.  Iteration count equals the
  maximum lower-degree.  This mode is the lock-step baseline used for
  determinism tests and the schedule ablation.

The asynchronous loop is also the runtime's only interpreted sweep: the
driver runs it when no compiled backend resolves and to record work
traces.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.core.instrument import TraceBuilder
from repro.errors import ConfigError, ConvergenceError
from repro.graph.csr import CSRGraph

__all__ = ["reference_max_chordal", "SCHEDULES"]

SCHEDULES = ("asynchronous", "synchronous")


def _lowest_parent(ascending: list[int], w: int, above: int) -> int | None:
    """Smallest neighbor of ``w`` that is < w and > ``above`` (None if
    none); ``ascending`` is ``w``'s neighbor list in ascending order."""
    i = bisect_right(ascending, above)
    if i < len(ascending) and ascending[i] < w:
        return ascending[i]
    return None


def reference_max_chordal(
    graph: CSRGraph,
    *,
    schedule: str = "asynchronous",
    max_iterations: int | None = None,
    trace: TraceBuilder | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Run Algorithm 1 verbatim; return ``(EC edge array, queue sizes)``.

    Parameters
    ----------
    graph:
        Input graph (adjacency order irrelevant here).
    schedule:
        ``"asynchronous"`` or ``"synchronous"`` (see module docs).
    max_iterations:
        Safety bound; defaults to ``max_degree + 2``.  Exceeding it raises
        :class:`~repro.errors.ConvergenceError` — the paper bounds the
        iteration count by the max degree, so hitting the limit indicates
        an internal bug.
    trace:
        Work-trace recorder, asynchronous schedule only.  A subset test
        costs ``|C[w]| + 1`` (1 when the cardinality filter rejects or
        ``C[w]`` is empty); an advance ``deg(w)`` (Unopt) or 1 (Opt).

    Returns
    -------
    edges:
        ``(k, 2)`` array of chordal edges as ``(v, w)`` rows in discovery
        order (``v`` is the parent, so ``v < w``).
    queue_sizes:
        ``|Q1|`` for each executed iteration (Figure 7's series).
    """
    if schedule not in SCHEDULES:
        raise ConfigError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    synchronous = schedule == "synchronous"
    if trace is not None and synchronous:
        raise ConfigError("the reference records work traces for the asynchronous schedule only")
    unopt = trace is not None and trace.trace.variant == "unoptimized"
    n = graph.num_vertices
    adj: list[list[int]] = [[int(u) for u in graph.neighbors(v)] for v in range(n)]
    # Parent lookups bisect an ascending copy; ``adj`` keeps the graph's
    # own order, which is the order children are served in.
    ascending = adj if graph.sorted_adjacency else [sorted(a) for a in adj]

    # Lines 2-10: initialisation.
    lp: dict[int, int] = {}
    chordal: list[set[int]] = [set() for _ in range(n)]
    q1: set[int] = set()
    for v in range(n):
        w = _lowest_parent(ascending[v], v, -1)
        if w is not None:
            lp[v] = w
            q1.add(w)

    edges: list[tuple[int, int]] = []
    queue_sizes: list[int] = []
    limit = max_iterations if max_iterations is not None else graph.max_degree() + 2

    # Lines 11-24: the iterative core.
    while q1:
        queue_sizes.append(len(q1))
        if len(queue_sizes) > limit:
            raise ConvergenceError(
                f"exceeded iteration budget {limit} (queue={len(q1)}); "
                "this indicates an internal bug"
            )
        if synchronous:
            lp_view = dict(lp)
            chordal_view: list[set[int]] | list[frozenset[int]] = [
                frozenset(c) for c in chordal
            ]
        else:
            lp_view = lp
            chordal_view = chordal

        q2: set[int] = set()
        for v in sorted(q1):  # ascending serialisation of the parallel loop
            if trace is not None:
                trace.scan(v, len(adj[v]))
            for w in adj[v]:
                if lp_view.get(w) != v or lp.get(w) != v:
                    continue
                # Line 15: subset test.  C[w]'s only writer this instant is
                # w's current LP — this very step — so the live read of
                # C[w] is exact under both schedules.
                cw = len(chordal[w])
                ok = chordal[w] <= chordal_view[v]
                if ok:
                    chordal[w].add(v)  # line 16
                    edges.append((v, w))  # line 17
                if trace is not None:
                    tc = 1 if cw == 0 or cw > len(chordal_view[v]) else cw + 1
                    trace.service(v, w, tc, len(adj[w]) if unopt else 1, ok)
                # Lines 18-22: advance w to its next lowest parent.
                x = _lowest_parent(ascending[w], w, v)
                if x is not None:
                    lp[w] = x
                    q2.add(x)
                else:
                    del lp[w]
        q1 = q2
        if trace is not None:
            trace.flush()

    arr = (
        np.asarray(edges, dtype=np.int64)
        if edges
        else np.empty((0, 2), dtype=np.int64)
    )
    return arr, queue_sizes
