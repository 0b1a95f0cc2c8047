"""The state backend: where Algorithm 1's arrays live.

:class:`LocalState` owns one instance of the canonical array schema
(:func:`~repro.core.runtime.layout.build_spec`) as plain NumPy arrays in
the calling process, bound to one graph, plus the per-run reset logic.
The schedule driver (:mod:`repro.core.runtime.driver`), the round
bodies (:mod:`repro.core.runtime.rounds`, :mod:`repro.core.native`) and
the compiled sweep are written against the schema only; the interpreted
asynchronous sweep (:mod:`repro.core.reference`) reads just the bound,
sorted :attr:`LocalState.graph`.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import arena_offsets, initial_parents, lower_counts
from repro.core.runtime.layout import CTRL_N, build_spec
from repro.graph.csr import CSRGraph

__all__ = ["LocalState"]


class LocalState:
    """The array schema as ordinary NumPy arrays, bound to one graph.

    Graph CSR arrays are aliased (not copied) when their dtype already
    matches the schema.  The arrays every schedule reads (the graph, its
    arena layout and Algorithm 1's state) exist from the start; the
    barrier rounds' scratch (``active``, ``parents``, ``snapshot``,
    ``keys``, ``ok``, ``cuts``, ``control``) is allocated by
    :meth:`bind_rounds`, which only the synchronous driver calls.
    ``num_slices`` sizes the ``cuts`` scratch for the widest executor this
    state will be driven by.
    """

    def __init__(self, graph: CSRGraph, num_slices: int = 1) -> None:
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
        self.num_slices = max(1, num_slices)
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
        if "control" in a:
            return
        spec = build_spec(self.n, self.nnz, self.arena_used, self.num_slices)
        for name, (dtype, shape) in spec.items():
            if name not in a:
                a[name] = np.zeros(shape, dtype=dtype)
        a["control"][CTRL_N] = self.n

    def reset(self) -> None:
        """Per-run initialisation (Algorithm 1 lines 2-10).

        Zeroes the chordal sets and cursors and points every vertex at its
        lowest parent.  (The compiled sweep does this itself.)
        """
        a = self.arrays
        n = self.n
        a["counts"][:n] = 0
        a["cursor"][:n] = 0
        a["lp"][:n] = initial_parents(
            a["indptr"][: n + 1], a["indices"][: self.nnz], a["lower"][:n]
        )
