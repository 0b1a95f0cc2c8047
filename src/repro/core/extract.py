"""One-call keyword entry points over the session API.

The primary API lives one layer down and is what new code should use:

* :class:`repro.core.config.ExtractionConfig` — every knob, captured and
  validated once against the engine table;
* :class:`repro.core.session.Extractor` — the session object, with
  ``.extract()``, ``.extract_many()`` and the lazy ``.stream()``
  generator;
* :mod:`repro.core.engines` — the three engines and their capabilities.

:func:`extract_maximal_chordal_subgraph` and :func:`extract_many` keep
the original keyword signatures by constructing a one-call session, so
their outputs are bit-identical to driving :class:`Extractor` directly.
The engine and schedule names are
:func:`~repro.core.engines.engine_names` /
:data:`~repro.core.engines.SCHEDULES`.  Argument errors raise
:class:`~repro.errors.ConfigError`, a subclass of the ``ValueError``
these functions historically raised.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.config import DEFAULT_NUM_THREADS, VARIANTS, ExtractionConfig
from repro.core.instrument import CostModelParams
from repro.core.session import ChordalResult, Extractor
from repro.graph.csr import CSRGraph

__all__ = [
    "ChordalResult",
    "extract_maximal_chordal_subgraph",
    "extract_many",
    "VARIANTS",
]


def extract_maximal_chordal_subgraph(
    graph: CSRGraph,
    *,
    engine: str = "superstep",
    variant: str = "optimized",
    schedule: str | None = None,
    num_threads: int = DEFAULT_NUM_THREADS,
    renumber: str | None = None,
    stitch: bool = False,
    maximalize: bool = False,
    collect_trace: bool = False,
    cost_params: CostModelParams | None = None,
    max_iterations: int | None = None,
) -> ChordalResult:
    """Extract a maximal chordal subgraph with Algorithm 1.

    Equivalent to ``Extractor(ExtractionConfig(...)).extract(graph)``
    with a session per call.

    Parameters
    ----------
    graph:
        Input graph (any :class:`~repro.graph.csr.CSRGraph`).
    engine:
        ``"superstep"`` (default; Algorithm 1, compiled when the native
        backend resolves), ``"reference"`` (literal pseudocode) or
        ``"weighted"``.
    variant:
        ``"optimized"`` (sorted adjacency) or ``"unoptimized"``; changes
        only the costs of a collected work trace, never the edge set.
    schedule:
        ``None`` (default) resolves to the engine's default schedule —
        ``synchronous`` for ``weighted``, ``asynchronous`` otherwise,
        exactly like :func:`extract_many` and
        ``ExtractionConfig(schedule=None)``.
        ``"asynchronous"`` runs the paper's maximal-progress
        sweep: each iteration is an ascending live sweep, the
        paper-matching execution whose iteration counts reproduce
        Figure 7 (~3 iterations on R-MAT, ~10 on the gene networks).
        ``"synchronous"`` uses barrier-snapshot semantics (one parent
        per vertex per superstep), with iteration count equal to the
        maximum lower-degree; ``superstep`` runs these rounds on a
        thread team of ``num_threads``.  Both schedules are
        deterministic: the edge set does not depend on the kernel path
        or the thread count.
    num_threads:
        Thread-team size of the synchronous rounds (default
        :data:`~repro.core.config.DEFAULT_NUM_THREADS`); the
        asynchronous sweep is serial.
    renumber:
        ``"bfs"`` renumbers vertices in BFS order before extraction and
        maps the edge set back — on connected inputs this guarantees the
        output is connected and therefore maximal (Theorem 2 + corollary).
        ``None`` (default) runs on the ids as given, like the paper's
        experiments.
    stitch:
        Join disconnected output components with single bridges (paper's
        component-combination corollary).
    maximalize:
        Run the serial completion pass that re-offers every rejected edge,
        guaranteeing a *certified* maximal result.  Needed because the
        paper's Theorem 2 overclaims — Algorithm 1 alone can leave a few
        addable edges behind (see ``repro.core.maximalize``).  The number
        of edges the pass added is reported as ``result.maximality_gap``.
    collect_trace:
        Capture the work trace for the machine models (``supports_trace``
        engines only — of the built-ins, ``superstep``).
    cost_params / max_iterations:
        Forwarded to the engine.

    Returns
    -------
    :class:`ChordalResult`
    """
    config = ExtractionConfig(
        engine=engine,
        variant=variant,
        schedule=schedule,
        num_threads=num_threads,
        renumber=renumber,
        stitch=stitch,
        maximalize=maximalize,
        collect_trace=collect_trace,
        cost_params=cost_params,
        max_iterations=max_iterations,
    )
    with Extractor(config) as extractor:
        return extractor.extract(graph)


def extract_many(
    graphs: Iterable[CSRGraph],
    *,
    engine: str = "superstep",
    variant: str = "optimized",
    schedule: str | None = None,
    num_threads: int = DEFAULT_NUM_THREADS,
    renumber: str | None = None,
    stitch: bool = False,
    maximalize: bool = False,
    max_iterations: int | None = None,
) -> list[ChordalResult]:
    """Extract maximal chordal subgraphs from a batch of graphs.

    Equivalent to ``Extractor(ExtractionConfig(...)).extract_many(graphs)``
    — every result is bit-identical to its
    single-call counterpart.  For lazy results (no materialised list),
    use :meth:`~repro.core.session.Extractor.stream`.

    Parameters
    ----------
    graphs:
        Any iterable of :class:`~repro.graph.csr.CSRGraph` (consumed
        lazily, but all results are materialised into the returned list).
    schedule:
        ``None`` (default) picks the engine's
        ``default_schedule``: ``"synchronous"`` for ``weighted``,
        ``"asynchronous"`` otherwise.
    engine / variant / num_threads / renumber / stitch / maximalize /
    max_iterations:
        As in :func:`extract_maximal_chordal_subgraph`, applied to every
        graph.

    Returns
    -------
    list of :class:`ChordalResult`, in input order.
    """
    config = ExtractionConfig(
        engine=engine,
        variant=variant,
        schedule=schedule,
        num_threads=num_threads,
        renumber=renumber,
        stitch=stitch,
        maximalize=maximalize,
        max_iterations=max_iterations,
    )
    with Extractor(config) as extractor:
        return extractor.extract_many(graphs)
