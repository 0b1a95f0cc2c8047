"""One-call keyword entry points over the session API.

The primary API lives one layer down and is what new code should use:

* :class:`repro.core.config.ExtractionConfig` — every knob, captured and
  validated once against the engine registry;
* :class:`repro.core.session.Extractor` — the session object, with
  ``.extract()``, ``.extract_many()`` and the lazy ``.stream()``
  generator;
* :mod:`repro.core.engines` — the registry third-party engines plug into
  (:func:`~repro.core.engines.register_engine`).

:func:`extract_maximal_chordal_subgraph` and :func:`extract_many` keep
the original keyword signatures by constructing a one-call session, so
their outputs are bit-identical to driving :class:`Extractor` directly.
The registered engine and schedule names are
:func:`~repro.core.engines.engine_names` /
:func:`~repro.core.engines.schedule_names`.  Argument errors raise
:class:`~repro.errors.ConfigError`, a subclass of the ``ValueError``
these functions historically raised.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.config import VARIANTS, ExtractionConfig
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
    schedule: str | None = "asynchronous",
    num_threads: int = 4,
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
        ``"superstep"`` (serial engine, default; its asynchronous sweep
        runs compiled when the native backend resolves), ``"native"``
        (compiled round bodies on a nogil thread team — real core-level
        speedup; both schedules), ``"reference"`` (literal pseudocode)
        or ``"weighted"``.  Any engine added via
        :func:`repro.core.engines.register_engine` is accepted too.
    variant:
        ``"optimized"`` (sorted adjacency) or ``"unoptimized"``.
    schedule:
        ``"asynchronous"`` (default) serialises each iteration as an
        ascending live sweep — the paper-matching execution whose
        iteration counts reproduce Figure 7 (~3 iterations on R-MAT, ~10
        on the gene networks).  ``"synchronous"`` uses barrier-snapshot
        semantics (one parent per vertex per superstep) — deterministic
        across engines and thread counts, with iteration count
        equal to the maximum lower-degree; under it the ``native``
        engine returns edge sets bit-identical to ``engine="superstep"``.
        Under ``"asynchronous"`` the ``native`` engine runs live rounds
        true-parallel: any run yields a valid chordal edge set (certify
        with :func:`repro.chordality.verify_extraction`), but the edge
        set is not bit-reproducible across runs or thread counts.
        ``None`` is also accepted and resolves to the engine's
        *registered* default schedule — ``synchronous`` for
        ``weighted``, ``asynchronous`` otherwise, exactly like
        :func:`extract_many` and ``ExtractionConfig(schedule=None)``.
    num_threads:
        Thread-team size for the native engine.
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
    num_threads: int = 4,
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
        ``None`` (default) picks the engine's registered
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
