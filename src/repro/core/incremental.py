"""Mutation sessions for dynamic graphs: :class:`IncrementalExtractor`.

The paper extracts a maximal chordal subgraph of a *static* graph; the
serving path (``repro mutate``, the daemon's ``mutate`` op) sees one
graph change between requests.  A session holds only the current graph,
as sorted CSR rows it edits in place (an edit shifts the arcs after it
by a slot or two), and answers with one maximalizing
:class:`~repro.core.session.Extractor` run on it.  The extraction runs
lazily, once per applied batch, when the edges are first read, so every
answer is bit-identical to ``repro extract --maximalize`` on the same
graph, whatever the edit history.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

import numpy as np

from repro.core.config import ExtractionConfig
from repro.core.session import ChordalResult, Extractor
from repro.errors import ConfigError
from repro.graph.builder import _best_index_dtype, edge_keys, key_index
from repro.graph.csr import CSRGraph
from repro.util.validation import is_integer

__all__ = ["IncrementalExtractor"]

#: Mutation-op spellings accepted by :meth:`IncrementalExtractor.apply_batch`.
INSERT_OPS = ("insert", "+")
DELETE_OPS = ("delete", "-")


class IncrementalExtractor:
    """A mutating unweighted graph (fixed vertex set) and the maximal
    chordal subgraph of its current state, extracted under ``config``
    with ``maximalize`` forced on.  ``stats`` counts applied ``inserts``
    and ``deletes`` and the extractions run (``full_rebuilds``)."""

    def __init__(self, graph: CSRGraph, *, config: ExtractionConfig | None = None) -> None:
        if graph.has_weights:
            raise ConfigError(
                "IncrementalExtractor does not support weighted graphs; "
                "strip weights with graph.without_weights()"
            )
        config = (config or ExtractionConfig()).replace(maximalize=True)
        self._extractor = Extractor(config)
        self._n = graph.num_vertices
        rows = graph if graph.sorted_adjacency else graph.with_sorted_adjacency()
        # Writable copies: the edits below go into these arrays, and the
        # indices take the dtype from_edge_keys gives the same edge set.
        self._indptr = rows.indptr.copy()
        self._indices = rows.indices.astype(_best_index_dtype(self._n))
        self._nnz = int(rows.indices.size)
        self._graph: CSRGraph | None = graph
        self._result: ChordalResult | None = None
        self.stats: dict[str, int] = {"inserts": 0, "deletes": 0, "full_rebuilds": 0}

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Edge count of the current graph."""
        return self._nnz // 2

    @property
    def num_chordal_edges(self) -> int:
        return self.result().num_chordal_edges

    @property
    def graph(self) -> CSRGraph:
        """The current graph as a CSR snapshot (cached until the next mutation)."""
        if self._graph is None:
            self._graph = CSRGraph(
                self._indptr.copy(),
                self._indices[: self._nnz].copy(),
                sorted_adjacency=True,
                validate=False,
            )
        return self._graph

    @property
    def edges(self) -> np.ndarray:
        """The current answer's edges, canonical ``(k, 2)`` int64."""
        return self.result().edges

    def result(self) -> ChordalResult:
        """The maximalizing extraction of the current graph (run at most
        once per applied batch)."""
        if self._result is None:
            self._result = self._extractor.extract(self.graph)
            self.stats["full_rebuilds"] += 1
        return self._result

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge ``(u, v)``; True when the new answer retains it.
        ``ValueError`` on a bad endpoint or an edge already present."""
        return bool(self.apply_batch([("insert", u, v)])["retained"])

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; ``ValueError`` when it is not an edge."""
        self.apply_batch([("delete", u, v)])

    def apply_batch(self, mutations: Iterable[tuple[str, int, int]]) -> dict[str, int]:
        """Apply ``(op, u, v)`` mutations in order (``op`` is ``"insert"``
        / ``"+"`` or ``"delete"`` / ``"-"``); returns per-batch counts
        ``{"applied", "inserted", "retained", "deleted"}``, where
        ``retained`` counts inserts whose edge the new answer keeps.

        A ``ValueError`` on a bad row leaves the rows before it applied.
        """
        inserted: list[int] = []
        deleted = 0
        for index, row in enumerate(mutations):
            try:
                op, u, v = row
            except (TypeError, ValueError):
                msg = f"mutation #{index} must be an (op, u, v) triple, got {row!r}"
                raise ValueError(msg) from None
            if op not in INSERT_OPS + DELETE_OPS:
                raise ValueError(
                    f"mutation #{index}: unknown op {op!r} (expected one of "
                    f"{INSERT_OPS + DELETE_OPS})"
                )
            u, v = self._pair(u, v)
            insert = op in INSERT_OPS
            if not self._edit(u, v, insert):
                state = "already" if insert else "not"
                raise ValueError(f"({u}, {v}) is {state} an edge of the graph")
            if insert:
                inserted.append(u * self._n + v)
            else:
                deleted += 1
            self.stats["inserts" if insert else "deletes"] += 1
            self._graph = self._result = None
        retained = 0
        if inserted:
            found = key_index(edge_keys(self._n, self.edges), np.asarray(inserted))
            retained = int((found >= 0).sum())
        return {"applied": len(inserted) + deleted, "inserted": len(inserted),
                "retained": retained, "deleted": deleted}

    def _edit(self, u: int, v: int, insert: bool) -> bool:
        """Insert or delete the edge ``u < v`` in the rows, in place; False
        when it already is (insert) or is not (delete) an edge."""
        nnz = self._nnz
        if insert and nnz + 2 > self._indices.size:  # full: double the slack
            grown = np.empty(max(2 * nnz, 16), dtype=self._indices.dtype)
            grown[:nnz] = self._indices[:nnz]
            self._indices = grown
        indptr = self._indptr
        ind = memoryview(self._indices)  # Python ints, no NumPy call per probe
        hi = int(indptr[u + 1])
        au = bisect_left(ind, v, int(indptr[u]), hi)
        if insert == (au < hi and ind[au] == v):
            return False
        av = bisect_left(ind, u, int(indptr[v]), int(indptr[v + 1]))
        # Row u comes first, so au <= av: the arcs between the two edits
        # shift by one slot, those after both by two.
        if insert:
            ind[av + 2 : nnz + 2] = ind[av:nnz]
            ind[au + 1 : av + 1] = ind[au:av]
            ind[au], ind[av + 1] = v, u
        else:
            ind[au : av - 1] = ind[au + 1 : av]
            ind[av - 1 : nnz - 2] = ind[av + 1 : nnz]
        d = 1 if insert else -1
        indptr[u + 1 : v + 1] += d
        indptr[v + 1 :] += 2 * d
        self._nnz = nnz + 2 * d
        return True

    def _pair(self, u: int, v: int) -> tuple[int, int]:
        for x in (u, v):
            if not is_integer(x):
                raise ValueError(f"vertex ids must be integers, got {x!r}")
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"edge ({u}, {v}) out of range for {self._n} vertices")
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) is not a valid edge")
        return (u, v) if u < v else (v, u)
