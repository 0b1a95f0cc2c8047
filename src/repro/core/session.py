"""The session API: :class:`Extractor` and :class:`ChordalResult`.

An :class:`Extractor` binds one validated
:class:`~repro.core.config.ExtractionConfig` to a session and exposes the
three ways to run it:

* :meth:`Extractor.extract` — one graph, one :class:`ChordalResult`;
* :meth:`Extractor.extract_many` — a batch, materialised in input order;
* :meth:`Extractor.stream` — a lazy generator yielding each result as it
  finishes, so a million-graph batch never materialises a list (and the
  input iterable itself is consumed one graph at a time).

Use it as a context manager (or call :meth:`Extractor.close`)::

    with Extractor(ExtractionConfig(schedule="synchronous", num_threads=2)) as ex:
        for result in ex.stream(graphs):
            print(result.num_chordal_edges)

The legacy functions ``extract_maximal_chordal_subgraph`` /
``extract_many`` (:mod:`repro.core.extract`) are thin shims that create a
one-call session, so their outputs are bit-identical to going through
:class:`Extractor` directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import ExtractionConfig
from repro.core.connect import stitch_components
from repro.core.instrument import WorkTrace
from repro.core.maximalize import maximalize_chordal_edges
from repro.errors import ConfigError, SessionClosedError
from repro.graph.bfs import bfs_renumber
from repro.graph.csr import CSRGraph
from repro.graph.ops import edge_subgraph
from repro.graph.weights import attach_edge_weights, edge_weight_mapping
from repro.graph.weights import retained_weight as _edge_set_weight

__all__ = ["ChordalResult", "Extractor"]


@dataclass
class ChordalResult:
    """Result of one maximal-chordal-subgraph extraction.

    Attributes
    ----------
    edges:
        Chordal edge set ``EC`` as an ``(k, 2)`` array, canonicalised to
        ``u < v`` rows in lexicographic order (engine-independent).
    queue_sizes:
        ``|Q1|`` per iteration — the paper's parallelism profile (Fig 7).
    num_iterations:
        Number of supersteps executed.
    variant / engine:
        How the extraction was run.
    trace:
        Work trace for the machine models (``None`` unless requested).
    graph:
        The input graph the edges refer to (original ids, even when
        BFS renumbering was applied internally).
    kernel_path:
        Which code actually ran: ``"native"`` when the compiled round
        bodies or the compiled asynchronous sweep produced the edges,
        ``"numpy"`` otherwise (the interpreted fallback under
        ``REPRO_NATIVE=0`` or on a toolchain-less host, a traced
        asynchronous run, and the non-runtime engines).
    """

    edges: np.ndarray
    queue_sizes: list[int]
    variant: str
    engine: str
    graph: CSRGraph
    schedule: str = "asynchronous"
    trace: WorkTrace | None = None
    renumbered: bool = False
    stitched_bridges: int = 0
    maximality_gap: int = 0
    kernel_path: str = "numpy"
    _subgraph: CSRGraph | None = field(default=None, repr=False)

    @property
    def num_iterations(self) -> int:
        return len(self.queue_sizes)

    @property
    def num_chordal_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def chordal_fraction(self) -> float:
        """|EC| / |E| — the statistic the paper reports in Section V."""
        m = self.graph.num_edges
        return self.num_chordal_edges / m if m else 1.0

    @property
    def subgraph(self) -> CSRGraph:
        """The chordal subgraph ``G' = (V, EC)`` (built lazily, cached)."""
        if self._subgraph is None:
            self._subgraph = edge_subgraph(self.graph, self.edges)
        return self._subgraph

    @property
    def total_weight(self) -> float:
        """Total edge weight of the *input* graph (edge count when
        unweighted, so weighted and unweighted runs are comparable)."""
        return float(self.graph.total_weight)

    @property
    def retained_weight(self) -> float:
        """Total weight of the retained chordal edge set ``EC``."""
        return _edge_set_weight(self.graph, self.edges)

    @property
    def weight_fraction(self) -> float:
        """``retained_weight / total_weight`` — the weighted analogue of
        :attr:`chordal_fraction` (1.0 on an edgeless / zero-weight graph)."""
        total = self.total_weight
        return self.retained_weight / total if total else 1.0


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Normalise rows to (min, max) and sort lexicographically."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return e
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


class Extractor:
    """Reusable extraction session: one validated config.

    Parameters
    ----------
    config:
        The regime to run; ``None`` means ``ExtractionConfig()``.
    **overrides:
        Convenience: ``Extractor(schedule="synchronous", num_threads=2)``
        is ``Extractor(ExtractionConfig(schedule="synchronous",
        num_threads=2))``;
        with ``config`` given, overrides are applied on top via
        :meth:`ExtractionConfig.replace`.

    Raises
    ------
    ConfigError
        On any invalid field, at construction time.
    """

    def __init__(self, config: ExtractionConfig | None = None, **overrides: Any) -> None:
        if config is None:
            config = ExtractionConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config.resolved()
        self._spec = self.config.engine_spec
        self._closed = False

    def extract(self, graph: CSRGraph) -> ChordalResult:
        """Run one extraction under this session's config."""
        if self._closed:
            raise SessionClosedError("Extractor is closed")
        cfg = self.config
        if graph.has_weights and not self._spec.supports_weights:
            raise ConfigError(
                f"graph carries edge weights but engine {cfg.engine!r} is not "
                f"weight-aware (weights would be silently ignored); use "
                f"engine='weighted' or strip them with graph.without_weights()"
            )
        work_graph = graph
        old_of_new: np.ndarray | None = None
        if cfg.renumber == "bfs":
            work_graph, new_of_old = bfs_renumber(graph)
            old_of_new = np.empty_like(new_of_old)
            old_of_new[new_of_old] = np.arange(new_of_old.size)
            if graph.has_weights:
                # bfs_renumber rebuilds the CSR without weights; re-express
                # the weight map in renumbered ids so the engine sees them.
                work_graph = attach_edge_weights(
                    work_graph,
                    {
                        (int(new_of_old[u]), int(new_of_old[v])): w
                        for (u, v), w in edge_weight_mapping(graph).items()
                    },
                )

        output = self._spec.run(work_graph, cfg)
        edges, queue_sizes, trace = output
        # Runtime engines return a DriveResult naming the path that ran;
        # any other engine ran interpreted code.
        kernel_path = getattr(output, "kernel_path", "numpy")

        if old_of_new is not None and edges.size:
            edges = np.column_stack((old_of_new[edges[:, 0]], old_of_new[edges[:, 1]]))

        stitched = 0
        if cfg.stitch:
            before = edges.shape[0]
            edges = stitch_components(graph, edges)
            stitched = edges.shape[0] - before

        gap = 0
        if cfg.maximalize:
            weights = edge_weight_mapping(graph) if graph.has_weights else None
            edges, gap = maximalize_chordal_edges(graph, edges, weights=weights)

        return ChordalResult(
            edges=_canonical_edges(edges),
            queue_sizes=queue_sizes,
            variant=cfg.variant,
            engine=cfg.engine,
            graph=graph,
            schedule=cfg.schedule,
            trace=trace,
            renumbered=cfg.renumber == "bfs",
            stitched_bridges=stitched,
            maximality_gap=gap,
            kernel_path=kernel_path,
        )

    def extract_many(self, graphs: Iterable[CSRGraph]) -> list[ChordalResult]:
        """Extract every graph, materialised as a list in input order."""
        return list(self.stream(graphs))

    def stream(self, graphs: Iterable[CSRGraph]) -> Iterator[ChordalResult]:
        """Lazily extract ``graphs``, yielding each result as it finishes.

        Pulls one graph at a time from the iterable, so arbitrarily
        large (even unbounded) inputs run in O(one graph) memory and the
        first result is available before later inputs are generated.

        Closing the session while the generator is mid-iteration makes
        the next ``next()`` raise
        :class:`~repro.errors.SessionClosedError` — a clean
        :class:`~repro.errors.ReproError`.
        """
        for graph in graphs:
            if self._closed:
                raise SessionClosedError(
                    "Extractor was closed while a stream() generator was "
                    "mid-iteration; create a new session to keep extracting"
                )
            yield self.extract(graph)

    def close(self) -> None:
        """End the session (idempotent).

        Further :meth:`extract` calls raise
        :class:`~repro.errors.SessionClosedError`.
        """
        self._closed = True

    def __enter__(self) -> "Extractor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Extractor({self.config!r}, {state})"
