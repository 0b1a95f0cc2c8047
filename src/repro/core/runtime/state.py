"""The state backend: where Algorithm 1's arrays live.

:class:`LocalState` holds Algorithm 1's arrays as plain NumPy arrays in
the calling process, bound to one graph, plus the per-run reset logic.
The schedule driver (:mod:`repro.core.runtime.driver`), the round
bodies (:mod:`repro.core.runtime.rounds`, :mod:`repro.core.native`) and
the compiled sweep read and write :attr:`LocalState.arrays` by name; the
interpreted asynchronous sweep (:mod:`repro.core.reference`) reads just
the bound, sorted :attr:`LocalState.graph`.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import arena_offsets, initial_parents, lower_counts
from repro.graph.csr import CSRGraph

__all__ = ["LocalState"]


class LocalState:
    """Algorithm 1's arrays as ordinary NumPy arrays, bound to one graph.

    * graph: ``indptr`` / ``indices`` (sorted CSR, aliased, not copied,
      when the dtype is already int64), ``lower`` (per-vertex
      lower-neighbour count) and ``offsets`` (the arena layout);
    * algorithm state: ``lp`` / ``cursor`` / ``counts`` / ``arena``, the
      paper's lowest parents, consumed-parent cursors and chordal sets;
    * barrier-round scratch: ``active`` / ``parents`` / ``snapshot`` /
      ``keys`` / ``ok``, allocated by :meth:`bind_rounds`, which only the
      synchronous driver calls.  The driver publishes each round's size
      and key count as :attr:`round_size` and :attr:`num_keys`.

    Every array is int64 and C-contiguous except ``ok`` (uint8), and
    none is replaced once allocated, so an executor may take pointers
    into them once per state.
    """

    def __init__(self, graph: CSRGraph) -> None:
        g = graph if graph.sorted_adjacency else graph.with_sorted_adjacency()
        self.graph = g
        n = g.num_vertices
        indices = np.ascontiguousarray(g.indices, dtype=np.int64)
        lower = lower_counts(g.indptr, indices)
        offsets = arena_offsets(lower)
        self.n = n
        self.nnz = int(indices.size)
        self.arena_used = int(offsets[-1])
        self.max_degree = g.max_degree()
        self.round_size = 0
        self.num_keys = 0
        self.arrays = {
            "indptr": g.indptr,
            "indices": indices,
            "lower": lower,
            "offsets": offsets,
            "arena": np.empty(self.arena_used, dtype=np.int64),
            "counts": np.empty(n, dtype=np.int64),
            "cursor": np.empty(n, dtype=np.int64),
            "lp": np.empty(n, dtype=np.int64),
        }

    @property
    def trivial(self) -> bool:
        """No vertex can have a parent — every schedule returns no edges."""
        return self.n == 0 or self.arena_used == 0

    def bind_rounds(self) -> None:
        """Allocate the barrier rounds' scratch arrays (once)."""
        a = self.arrays
        if "ok" in a:
            return
        n = self.n
        for name in ("active", "parents", "snapshot"):
            a[name] = np.zeros(n, dtype=np.int64)
        a["keys"] = np.zeros(self.arena_used, dtype=np.int64)
        a["ok"] = np.zeros(n, dtype=np.uint8)

    def reset(self) -> None:
        """Per-run initialisation (Algorithm 1 lines 2-10).

        Zeroes the chordal sets and cursors and points every vertex at its
        lowest parent.  (The compiled sweep does this itself.)
        """
        a = self.arrays
        a["counts"][:] = 0
        a["cursor"][:] = 0
        a["lp"][:] = initial_parents(a["indptr"], a["indices"], a["lower"])
