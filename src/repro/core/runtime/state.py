"""The state backend: where Algorithm 1's arrays live.

:class:`LocalState` owns one instance of the canonical array schema
(:func:`~repro.core.runtime.layout.build_spec`) as plain NumPy arrays in
the calling process, bound to one graph, plus the per-run reset logic.
The schedule driver (:mod:`repro.core.runtime.driver`) and the round
bodies (:mod:`repro.core.runtime.rounds`, :mod:`repro.core.native`) are
written against the schema only.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import arena_offsets, initial_parents, lower_counts
from repro.core.runtime.layout import CTRL_N, EDGE_ACCEPTED, EDGE_UNDECIDED, build_spec
from repro.graph.csr import CSRGraph

__all__ = ["LocalState"]


class LocalState:
    """The array schema as ordinary NumPy arrays, bound to one graph.

    Graph CSR arrays are aliased (not copied) when their dtype already
    matches the schema.  ``num_slices`` sizes the ``cuts`` scratch for the
    widest executor this state will be driven by.  ``edge_claims=True``
    allocates the per-arc claim words the asynchronous *live rounds* need
    (the native thread team); the serial sweep never reads them, so they
    default to a size-0 stub.
    """

    def __init__(
        self, graph: CSRGraph, num_slices: int = 1, *, edge_claims: bool = False
    ) -> None:
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
        self._sets: list[set[int]] | None = None
        spec = build_spec(n, self.nnz, self.arena_used, max(1, num_slices))
        aliased = ("indptr", "indices", "lower", "offsets", "edge_state")
        self.arrays = {
            name: np.zeros(shape, dtype=dtype)
            for name, (dtype, shape) in spec.items()
            if name not in aliased
        }
        self.arrays["indptr"] = g.indptr
        self.arrays["indices"] = indices
        self.arrays["lower"] = lower
        self.arrays["offsets"] = offsets
        self.arrays["edge_state"] = np.zeros(
            self.arena_used if edge_claims else 0, dtype=np.int64
        )
        self.arrays["control"][CTRL_N] = n

    @property
    def trivial(self) -> bool:
        """No vertex can have a parent — every schedule returns no edges."""
        return self.n == 0 or self.arena_used == 0

    def degrees(self) -> np.ndarray:
        """Per-vertex degree of the bound graph (trace weights/costs)."""
        return np.diff(self.arrays["indptr"][: self.n + 1])

    def set_mirrors(self) -> list[set[int]]:
        """Per-vertex Python-set mirrors of the chordal sets.

        The asynchronous sweep's per-pair subset test is O(|small set|)
        against these (the historical ``ChordalState`` trick, kept for
        the scalar sweep).  Rebuilt lazily per run by :meth:`reset`.
        """
        if self._sets is None:
            self._sets = [set() for _ in range(self.n)]
        return self._sets

    def reset(self, schedule: str) -> None:
        """Per-run initialisation (Algorithm 1 lines 2-10).

        Zeroes the chordal sets and cursors, points every vertex at its
        lowest parent, and rewinds the edge-claim words (asynchronous
        schedule, when the state carries them).
        """
        a = self.arrays
        n = self.n
        a["counts"][:n] = 0
        a["cursor"][:n] = 0
        a["lp"][:n] = initial_parents(
            a["indptr"][: n + 1], a["indices"][: self.nnz], a["lower"][:n]
        )
        if schedule == "asynchronous" and a["edge_state"].size:
            a["edge_state"][: self.arena_used] = EDGE_UNDECIDED
        self._sets = None

    def verify_async_accounting(self, num_edges: int) -> None:
        """Post-run invariant of the asynchronous live rounds.

        Every reported edge corresponds to exactly one won ACCEPTED claim
        and one arena append.  A mismatch means the lock-free discipline
        was violated somewhere.
        """
        a = self.arrays
        claimed = int(
            np.count_nonzero(a["edge_state"][: self.arena_used] == EDGE_ACCEPTED)
        )
        appended = int(a["counts"][: self.n].sum())
        if not (claimed == appended == num_edges):
            raise RuntimeError(
                "asynchronous claim accounting diverged: "
                f"{claimed} accepted claims, {appended} arena appends, "
                f"{num_edges} reported edges"
            )
