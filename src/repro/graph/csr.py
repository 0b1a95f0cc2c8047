"""Immutable undirected graph in compressed sparse row (CSR) form.

Design notes
------------
* Vertices are the integers ``0 .. n-1``.  The paper numbers vertices from 1
  and uses 0 as the "no lowest parent" sentinel; we use 0-based ids and
  ``-1`` as the sentinel throughout the library.
* The structure is *symmetric*: each undirected edge ``{u, v}`` appears as
  both ``(u, v)`` and ``(v, u)`` in ``indices``.  ``num_edges`` reports the
  undirected count.
* ``sorted_adjacency`` records whether every adjacency slice is strictly
  increasing.  The paper's "Opt" variant requires sorted lists (finds the
  next lowest parent in O(1) amortised); the "Unopt" variant deliberately
  uses unsorted lists.  :meth:`CSRGraph.shuffled` produces an equivalent
  graph with randomly permuted adjacency slices for Unopt experiments.
* Arrays are frozen (``writeable = False``) — every algorithm treats the
  graph as read-only shared state, exactly as the multithreaded algorithm
  requires.
* A graph may optionally carry **per-edge weights** for the weighted
  extraction engine (:mod:`repro.core.weighted`): an arc-aligned float
  array (one entry per stored directed arc, symmetric across the two arcs
  of each undirected edge).  Weights ride along through
  :meth:`CSRGraph.with_sorted_adjacency` / :meth:`CSRGraph.shuffled`
  (the permutation is applied to both arrays) but are *not* part of graph
  identity (``__eq__`` compares edge sets only).  Construct weighted
  graphs through :func:`repro.graph.weights.attach_edge_weights`, which
  validates symmetry and finiteness.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRGraph"]


class CSRGraph:
    """Undirected graph stored as symmetric CSR arrays.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; adjacency of vertex ``v`` is
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int32`` or ``int64`` array of neighbor ids (each undirected edge
        present in both directions).
    sorted_adjacency:
        Declare whether each adjacency slice is strictly increasing.  When
        ``validate=True`` the declaration is checked.
    validate:
        Run the structural checks of :meth:`_validate`: the ``indptr``
        shape, ids in range and, when declared, strictly rising slices.
        They are whole-array NumPy work, no per-vertex loop.  Symmetry is
        *not* checked here; the builder guarantees it on the normal path,
        and arrays from outside the library go through
        :meth:`from_untrusted`, which adds :meth:`validate_symmetry`.
    """

    __slots__ = ("indptr", "indices", "sorted_adjacency", "_degrees", "_arc_weights")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        sorted_adjacency: bool,
        validate: bool = True,
        arc_weights: np.ndarray | None = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices)
        if indices.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            indices = indices.astype(np.int64)
        if validate:
            self._validate(indptr, indices, sorted_adjacency)
        if arc_weights is not None:
            arc_weights = np.ascontiguousarray(arc_weights, dtype=np.float64)
            if arc_weights.shape != indices.shape:
                raise GraphFormatError(
                    f"arc_weights must align with indices: expected shape "
                    f"{indices.shape}, got {arc_weights.shape}"
                )
            if arc_weights.size and not np.all(np.isfinite(arc_weights)):
                raise GraphFormatError("edge weights must be finite (no NaN/inf)")
        # Freeze views, not the arrays: ``ascontiguousarray`` hands back
        # the caller's own array when it needs no conversion.
        self.indptr = indptr.view()
        self.indices = indices.view()
        self.sorted_adjacency = bool(sorted_adjacency)
        self._degrees = np.diff(indptr)
        self._arc_weights = None if arc_weights is None else arc_weights.view()
        for arr in (self.indptr, self.indices, self._degrees):
            arr.setflags(write=False)
        if self._arc_weights is not None:
            self._arc_weights.setflags(write=False)

    @classmethod
    def from_untrusted(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        sorted_adjacency: bool,
        arc_weights: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a graph from arrays that came from outside the library.

        The one validator of the entry points that take CSR arrays as
        given (a wire ``csr`` payload, an ``.npz`` file): the structural
        checks of ``validate=True`` and then :meth:`validate_symmetry`,
        both whole-array.  Raises :class:`GraphFormatError` on the first
        failed check.
        """
        graph = cls(
            indptr,
            indices,
            sorted_adjacency=sorted_adjacency,
            validate=True,
            arc_weights=arc_weights,
        )
        graph.validate_symmetry()
        return graph

    @staticmethod
    def _validate(indptr: np.ndarray, indices: np.ndarray, sorted_adjacency: bool) -> None:
        """Structural checks, whole-array (no per-vertex Python loop).

        ``indptr`` is 1-D, starts at 0, ends at ``len(indices)`` and never
        falls; ``indices`` is 1-D with every id in ``[0, n)``; and, when
        ``sorted_adjacency`` is declared, every adjacency slice rises
        strictly.  Symmetry is :meth:`validate_symmetry`'s job.
        """
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphFormatError("indptr must be a 1-D array of length n+1 (n >= 0)")
        if indices.ndim != 1:
            raise GraphFormatError(f"indices must be a 1-D array, got shape {indices.shape}")
        if indptr[0] != 0:
            raise GraphFormatError(f"indptr[0] must be 0, got {indptr[0]}")
        if indptr[-1] != indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.size})"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise GraphFormatError(
                    f"indices must lie in [0, {n - 1}], got range "
                    f"[{indices.min()}, {indices.max()}]"
                )
        if sorted_adjacency and indices.size > 1:
            # Pair i compares arcs i and i + 1; a pair that straddles a row
            # start is not a rise test, so it is masked out.
            bad = indices[1:] <= indices[:-1]
            starts = indptr[1:-1]
            bad[starts[(starts > 0) & (starts < indices.size)] - 1] = False
            if bad.any():
                first = int(np.argmax(bad))
                v = int(np.searchsorted(indptr, first, side="right")) - 1
                raise GraphFormatError(
                    f"adjacency of vertex {v} is not strictly increasing "
                    "but sorted_adjacency=True"
                )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges (half the stored directed arcs)."""
        return self.indices.size // 2

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (``2 * num_edges``)."""
        return self.indices.size

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        """Read-only array of all vertex degrees."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the adjacency slice of ``v``."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self._degrees.max(initial=0))

    # ------------------------------------------------------------------
    # Edge weights (optional; attached via repro.graph.weights)
    # ------------------------------------------------------------------
    @property
    def has_weights(self) -> bool:
        """Whether this graph carries per-edge weights."""
        return self._arc_weights is not None

    @property
    def arc_weights(self) -> np.ndarray | None:
        """Arc-aligned weight array (``None`` for unweighted graphs).

        ``arc_weights[i]`` is the weight of the undirected edge stored as
        arc ``indices[i]``; the two arcs of an edge carry equal weight.
        """
        return self._arc_weights

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` of ``v`` (weighted graphs)."""
        if self._arc_weights is None:
            raise GraphFormatError("graph carries no edge weights")
        return self._arc_weights[self.indptr[v]:self.indptr[v + 1]]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)`` (GraphFormatError on non-edges /
        unweighted graphs)."""
        if self._arc_weights is None:
            raise GraphFormatError("graph carries no edge weights")
        row = self.neighbors(u)
        hits = np.flatnonzero(row == v)
        if hits.size == 0:
            raise GraphFormatError(f"({u}, {v}) is not an edge")
        return float(self._arc_weights[self.indptr[u] + hits[0]])

    def edge_weight_rows(self) -> np.ndarray:
        """Per-edge weights aligned with :meth:`edge_array` rows."""
        if self._arc_weights is None:
            raise GraphFormatError("graph carries no edge weights")
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=self.indices.dtype), self._degrees)
        mask = src < self.indices
        return self._arc_weights[mask]

    @property
    def total_weight(self) -> float:
        """Sum of all undirected edge weights (0.0 for unweighted graphs
        with no edges; edge count for unweighted graphs, by the uniform
        weight-1 convention)."""
        if self._arc_weights is None:
            return float(self.num_edges)
        return float(self._arc_weights.sum()) / 2.0

    def without_weights(self) -> "CSRGraph":
        """An equivalent unweighted graph sharing the CSR arrays."""
        if self._arc_weights is None:
            return self
        return CSRGraph(
            self.indptr,
            self.indices,
            sorted_adjacency=self.sorted_adjacency,
            validate=False,
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership test.

        Binary search when adjacency is sorted, linear scan otherwise —
        mirroring the paper's Opt/Unopt cost asymmetry.
        """
        row = self.neighbors(u)
        if row.size == 0:
            return False
        if self.sorted_adjacency:
            pos = int(np.searchsorted(row, v))
            return pos < row.size and int(row[pos]) == v
        return bool(np.any(row == v))

    # ------------------------------------------------------------------
    # Edge views
    # ------------------------------------------------------------------
    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=self.indices.dtype), self._degrees)
        mask = src < self.indices
        return np.column_stack((src[mask], self.indices[mask]))

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield undirected edges as ``(u, v)`` tuples with ``u < v``."""
        for u, v in self.edge_array():
            yield int(u), int(v)

    def edge_set(self) -> set[tuple[int, int]]:
        """Set of undirected edges as ``(min, max)`` tuples."""
        return {(int(u), int(v)) for u, v in self.edge_array()}

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_sorted_adjacency(self) -> "CSRGraph":
        """Return an equivalent graph whose adjacency slices are sorted.

        This is the preprocessing step of the paper's *optimized* variant;
        the paper excludes its cost from reported run times, and the
        experiment harness does the same.
        """
        if self.sorted_adjacency:
            return self
        # One sort of the arc keys src * n + dst orders every slice at once.
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._degrees)
        order = np.argsort(src * self.num_vertices + self.indices, kind="stable")
        weights = None if self._arc_weights is None else self._arc_weights[order]
        return CSRGraph(
            self.indptr,
            self.indices[order],
            sorted_adjacency=True,
            validate=False,
            arc_weights=weights,
        )

    def shuffled(self, rng: np.random.Generator) -> "CSRGraph":
        """Return an equivalent graph with randomly permuted adjacency slices.

        Used to produce inputs for the *unoptimized* variant so that its
        linear next-parent scans are exercised on genuinely unordered lists.
        """
        indices = self.indices.copy()
        weights = None if self._arc_weights is None else self._arc_weights.copy()
        for v in range(self.num_vertices):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            perm = rng.permutation(hi - lo)
            indices[lo:hi] = indices[lo:hi][perm]
            if weights is not None:
                weights[lo:hi] = weights[lo:hi][perm]
        return CSRGraph(
            self.indptr,
            indices,
            sorted_adjacency=False,
            validate=False,
            arc_weights=weights,
        )

    def validate_symmetry(self) -> None:
        """Raise :class:`GraphFormatError` unless the arc set is symmetric
        and free of self-loops and duplicate arcs.

        Whole-array, with at most two sorts of the ``m`` arc keys: the
        forward keys ``src * n + dst`` already ascend when every slice
        rises strictly (checked, not taken from ``sorted_adjacency``), so
        then only the reverse keys ``dst * n + src`` are sorted.  A graph
        that passes is symmetric, loop-free and duplicate-free whatever
        ``sorted_adjacency`` declares.  A weighted graph also needs equal
        weights on the two arcs of each edge: the keys are argsorted
        instead, so position ``i`` of both orders pairs an arc with its
        reverse.
        """
        n = self.num_vertices
        w = self._arc_weights
        src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        dst = self.indices.astype(np.int64)  # a copy: the key math is in place
        if np.any(src == dst):
            raise GraphFormatError("graph contains self-loops")
        fwd = src * n
        fwd += dst
        fwd_w = w
        if not np.all(fwd[1:] > fwd[:-1]):
            if w is None:
                fwd.sort()
            else:
                order = np.argsort(fwd)
                fwd, fwd_w = fwd[order], w[order]
            if np.any(fwd[1:] == fwd[:-1]):
                raise GraphFormatError("graph contains duplicate arcs")
        rev = dst
        rev *= n
        rev += src
        if w is None:
            rev.sort()
        else:
            rev_order = np.argsort(rev)
            rev = rev[rev_order]
        if not np.array_equal(fwd, rev):
            raise GraphFormatError("arc set is not symmetric")
        if w is not None and not np.array_equal(fwd_w, w[rev_order]):
            raise GraphFormatError("the two arcs of an edge carry different weights")

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"sorted={self.sorted_adjacency})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and same *edge set*.

        Adjacency order is not part of graph identity (Opt/Unopt inputs of
        the same graph compare equal).
        """
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        if self.num_edges != other.num_edges:
            return False
        return self.edge_set() == other.edge_set()

    def __hash__(self) -> int:  # pragma: no cover - identity hash is fine
        return id(self)
