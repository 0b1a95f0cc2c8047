"""Mutation sessions for dynamic graphs: :class:`IncrementalExtractor`.

The paper extracts a maximal chordal subgraph of a *static* graph; the
serving path (``repro mutate``, the daemon's ``mutate`` op) sees one
graph change between requests.  A session holds only the current graph,
as a set of canonical edge keys ``u * n + v`` (``u < v``), and answers
with one maximalizing :class:`~repro.core.session.Extractor` run on it.
The extraction runs lazily, once per applied batch, when the edges are
first read, so every answer is bit-identical to ``repro extract
--maximalize`` on the same graph, whatever the edit history.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.config import ExtractionConfig
from repro.core.session import ChordalResult, Extractor
from repro.errors import ConfigError
from repro.graph.builder import edge_keys, from_edge_keys, graph_keys, key_index
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
        self._keys: set[int] = set(graph_keys(graph).tolist())
        self._graph: CSRGraph | None = graph
        self._result: ChordalResult | None = None
        self.stats: dict[str, int] = {"inserts": 0, "deletes": 0, "full_rebuilds": 0}

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Edge count of the current graph."""
        return len(self._keys)

    @property
    def num_chordal_edges(self) -> int:
        return self.result().num_chordal_edges

    @property
    def graph(self) -> CSRGraph:
        """The current graph as a CSR snapshot (cached until the next mutation)."""
        if self._graph is None:
            keys = np.fromiter(self._keys, dtype=np.int64, count=len(self._keys))
            keys.sort()
            self._graph = from_edge_keys(self._n, keys)
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
            key = u * self._n + v
            insert = op in INSERT_OPS
            if insert == (key in self._keys):
                state = "already" if insert else "not"
                raise ValueError(f"({u}, {v}) is {state} an edge of the graph")
            if insert:
                self._keys.add(key)
                inserted.append(key)
            else:
                self._keys.remove(key)
                deleted += 1
            self.stats["inserts" if insert else "deletes"] += 1
            self._graph = self._result = None
        retained = 0
        if inserted:
            found = key_index(edge_keys(self._n, self.edges), np.asarray(inserted))
            retained = int((found >= 0).sum())
        return {"applied": len(inserted) + deleted, "inserted": len(inserted),
                "retained": retained, "deleted": deleted}

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
