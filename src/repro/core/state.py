"""Parent-advance strategies of Algorithm 1 (the paper's Opt/Unopt pair).

The algorithm's *data* — lowest parents, cursors, the flat chordal-set
arena — lives in the canonical array schema of
:mod:`repro.core.runtime.layout` (the historical ``ChordalState`` object was
absorbed into :class:`repro.core.runtime.state.LocalState` when the
engines were unified over one schedule driver).  What remains here is the
paper's cost model for *finding the next parent*:

* :class:`SortedParentStrategy` — the paper's **optimized** variant.
  Requires sorted adjacency; next parent is a cursor bump, O(1).
* :class:`UnsortedParentStrategy` — the paper's **unoptimized** variant.
  Each advance rescans the (unsorted) adjacency slice for the smallest
  neighbor greater than the current parent and below ``w``: O(deg(w)).

Both strategies visit the same parents in the same (increasing) order, so
the chordal edge set is independent of the strategy — only cost differs,
which is exactly what the work traces charge
(:func:`repro.core.runtime.driver.drive` charges 1 op per Opt advance and
``deg(w)`` per Unopt advance, matching :meth:`parent_at`'s reported
costs).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import initial_parents, lower_counts
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

__all__ = [
    "SortedParentStrategy",
    "UnsortedParentStrategy",
    "make_strategy",
]


class SortedParentStrategy:
    """O(1) parent advance over sorted adjacency (paper's *Opt*).

    The sort itself (when the input arrives unsorted) happens here, in the
    constructor; the paper likewise excludes sorting from reported times.
    """

    name = "optimized"

    def __init__(self, graph: CSRGraph) -> None:
        if not graph.sorted_adjacency:
            graph = graph.with_sorted_adjacency()
        self.graph = graph
        # lower_count[w] = number of neighbors with id < w (parent capacity)
        self.lower_count = lower_counts(graph.indptr, graph.indices)

    def parent_at(self, w: int, cursor: int) -> tuple[int, int]:
        """(parent id or -1, advance cost in ops) for the given cursor."""
        if cursor >= self.lower_count[w]:
            return -1, 1
        return int(self.graph.indices[self.graph.indptr[w] + cursor]), 1

    def initial_parents(self) -> np.ndarray:
        """Lowest parent of every vertex at once (Algorithm 1 lines 4-10)."""
        return initial_parents(self.graph.indptr, self.graph.indices, self.lower_count)


class UnsortedParentStrategy:
    """O(deg) parent advance by scanning unsorted adjacency (paper's *Unopt*).

    Stateful: tracks the last consumed parent per vertex as the scan lower
    bound.  ``parent_at`` must therefore be called exactly once per
    (vertex, cursor) step.
    """

    name = "unoptimized"

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.lower_count = lower_counts(graph.indptr, graph.indices)
        self._prev = np.full(graph.num_vertices, -1, dtype=np.int64)

    def parent_at(self, w: int, cursor: int) -> tuple[int, int]:
        """Scan for the smallest neighbor in (prev_parent, w); cost = deg(w).

        The scan itself is vectorised (NumPy mask + min) so high-degree
        vertices don't stall a Python caller; the *charged* cost is the
        full adjacency length, which is what the paper's unoptimized
        implementation pays.
        """
        g = self.graph
        lo, hi = int(g.indptr[w]), int(g.indptr[w + 1])
        row = g.indices[lo:hi]
        prev = int(self._prev[w])
        candidates = row[(row > prev) & (row < w)]
        if candidates.size == 0:
            return -1, hi - lo
        best = int(candidates.min())
        self._prev[w] = best
        return best, hi - lo

    def initial_parents(self) -> np.ndarray:
        """Lowest parent of every vertex at once (Algorithm 1 lines 4-10).

        Vectorized min-over-lower-neighbors; primes the scan bounds exactly
        as per-vertex ``parent_at(w, 0)`` calls would.
        """
        g = self.graph
        n = g.num_vertices
        lp = np.full(n, n, dtype=np.int64)
        if g.indices.size:
            owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
            mask = g.indices < owner
            np.minimum.at(lp, owner[mask], g.indices[mask].astype(np.int64))
        lp[lp == n] = -1
        has = lp >= 0
        self._prev[has] = lp[has]
        return lp

    def reset(self) -> None:
        """Rewind the scan bounds (for reuse of the strategy across runs)."""
        self._prev.fill(-1)


def make_strategy(graph: CSRGraph, variant: str):
    """Factory: ``"optimized"`` or ``"unoptimized"`` parent strategy."""
    if variant == "optimized":
        return SortedParentStrategy(graph)
    if variant == "unoptimized":
        return UnsortedParentStrategy(graph)
    raise ConfigError(f"unknown variant {variant!r}; expected 'optimized' or 'unoptimized'")
