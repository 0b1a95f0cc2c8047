"""The three extraction engines, in one closed table.

The paper's contribution is *one* algorithm run under two schedules, and
this module is where the engines become data: :data:`ENGINES` maps each
name to an :class:`EngineSpec` describing its capabilities — supported
schedules, its default schedule, whether it can produce a
:class:`~repro.core.instrument.WorkTrace` or consume edge weights — plus
a ``run`` callable with a uniform signature.  Config validation, error
messages and the CLI's ``--engine`` choices all read this table; the
``--schedule`` choices are :data:`SCHEDULES`.  The set is closed: there
is no registration API.

Engines
-------
``superstep``
    The paper's Algorithm 1 over the unified in-process runtime
    (:mod:`repro.core.runtime`): one schedule driver over a
    ``LocalState`` × executor pairing, the executor chosen by schedule.
    *Asynchronous* runs the paper's maximal-progress sweep on a
    ``SerialExecutor``: compiled when the native backend resolves, and
    otherwise (or whenever a work trace is requested) the ``reference``
    engine's asynchronous loop, which also records the trace.
    *Synchronous* runs barrier rounds on a ``NativeThreadTeamExecutor``
    of ``num_threads`` threads: compiled GIL-releasing round bodies
    (:mod:`repro.core.native`), or the NumPy bodies when no compiled
    backend is available (a runtime question — ``repro --version``
    reports it, and every result's ``kernel_path`` says which code ran).
    Collects work traces.  The default.
``reference``
    Literal pseudocode transcription; the readable spec (kept
    loop-for-loop with the paper, so deliberately *not* rewritten over
    the runtime).  Its asynchronous loop doubles as ``superstep``'s
    interpreted sweep and work-trace producer.
``weighted``
    Serial weighted MAXCHORD (Dearing–Shier–Warner) with weight-greedy
    completion (:mod:`repro.core.weighted`) — a *different algorithm*
    (``algorithm="maxchord"`` rather than the paper's ``"algorithm1"``);
    the only engine with ``supports_weights``; synchronous only.
    Cross-engine equivalence sweeps filter on ``algorithm`` (different
    algorithms legitimately produce different maximal chordal subgraphs
    of the same graph).

Every engine is deterministic under every schedule it supports: the
edge set depends on neither the kernel path nor the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro.core.instrument import WorkTrace
from repro.core.reference import SCHEDULES, reference_max_chordal
from repro.core.runtime import (
    LocalState,
    NativeThreadTeamExecutor,
    SerialExecutor,
    backend_run_fn,
)
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (type hints only)
    from repro.core.config import ExtractionConfig

__all__ = ["ENGINES", "EngineSpec", "SCHEDULES", "get_engine", "engine_names"]


@dataclass(frozen=True)
class EngineSpec:
    """Capability record + run callable for one engine.

    Attributes
    ----------
    name:
        Table key (the public ``engine=`` value).
    run_fn:
        ``(graph, config) -> (edges, queue_sizes, trace | None)``
        with the graph already BFS-renumbered when requested; the
        session layer owns renumber/stitch/maximalize/canonicalisation.
        A return value with a ``kernel_path`` attribute (a
        :class:`~repro.core.runtime.DriveResult`) names the code that
        produced the edges; a plain triple reports ``"numpy"``.
    description:
        One line for ``--engine`` help and API docs.
    schedules:
        Schedules this engine accepts (requesting another one is a
        :class:`~repro.errors.ConfigError` naming this tuple).
    default_schedule:
        What ``ExtractionConfig(schedule=None)`` resolves to — the
        engine's natural schedule (``asynchronous`` for the Algorithm-1
        engines, matching the paper; ``synchronous`` for ``weighted``).
    supports_trace:
        Whether ``collect_trace=True`` is accepted.
    supports_weights:
        Whether the engine consumes per-edge weights
        (:func:`repro.graph.weights.attach_edge_weights`).  Extracting
        from a weighted graph with a non-weight-aware engine is a
        :class:`~repro.errors.ConfigError` (weights would be silently
        ignored otherwise).
    algorithm:
        Which extraction algorithm the engine implements —
        ``"algorithm1"`` (the paper's) or ``"maxchord"``
        (Dearing–Shier–Warner).  Engines sharing an algorithm agree
        bit-for-bit; engines with different algorithms only share the
        maximal-chordal-subgraph contract.
    """

    name: str
    run_fn: Callable[..., tuple[np.ndarray, list[int], WorkTrace | None]] = field(
        repr=False
    )
    description: str = ""
    schedules: tuple[str, ...] = SCHEDULES
    default_schedule: str = "asynchronous"
    supports_trace: bool = False
    supports_weights: bool = False
    algorithm: str = "algorithm1"
    # perfbench/tracing.py is the only reader; goes with the next benchmark change.
    supports_pool: ClassVar[bool] = False

    def run(
        self, graph: CSRGraph, config: "ExtractionConfig", _unused=None
    ) -> tuple[np.ndarray, list[int], WorkTrace | None]:
        # ``_unused`` takes the trailing ``None`` perfbench/tracing.py passes
        # (its only reader); goes with the next benchmark change.
        return self.run_fn(graph, config)


# ---------------------------------------------------------------------------
# Run callables.  ``run_fn`` receives the (possibly renumbered) work graph
# plus the *resolved* ExtractionConfig.  The Algorithm-1 engine is a
# backend pairing (a LocalState factory plus an executor factory, glued by
# ``backend_run_fn``): the serial sweep for the asynchronous schedule, the
# thread team's barrier rounds for the synchronous one.

_run_superstep = backend_run_fn(
    # The middle argument (the executor's slice count) is unused: the
    # executor slices each round.  perfbench/tracing.py passes it (its
    # only reader); goes with the next benchmark change.
    lambda graph, _num_slices, config: LocalState(graph),
    lambda config: (
        NativeThreadTeamExecutor(config.num_threads)
        if config.schedule == "synchronous"
        else SerialExecutor()
    ),
)


def _run_reference(graph, config):
    # The reference engine has no Opt/Unopt cost asymmetry; the two
    # variants differ only in cost, so the edge set is identical.
    edges, queue_sizes = reference_max_chordal(
        graph, schedule=config.schedule, max_iterations=config.max_iterations
    )
    return edges, queue_sizes, None


def _run_weighted(graph, config):
    # Best-of portfolio over weighted/unweighted MAXCHORD and Algorithm 1,
    # all weight-greedily completed; contains the unweighted pipeline's
    # exact edge set, so retained weight dominates it by construction.
    # Import deferred to keep this module import-light and cycle-free.
    from repro.core.weighted import weighted_portfolio

    edges, queue_sizes = weighted_portfolio(graph)
    return edges, queue_sizes, None


#: Every engine, by name, in ``--engine`` order.
ENGINES: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="superstep",
            run_fn=_run_superstep,
            description="Algorithm 1: the paper's maximal-progress sweep "
            "(asynchronous, default) or barrier rounds on a thread team "
            "(synchronous); compiled when available",
            supports_trace=True,
        ),
        EngineSpec(
            name="reference",
            run_fn=_run_reference,
            description="literal pseudocode transcription (the readable spec)",
        ),
        EngineSpec(
            name="weighted",
            run_fn=_run_weighted,
            description="weight-greedy MAXCHORD portfolio, maximises retained weight",
            schedules=("synchronous",),
            default_schedule="synchronous",
            supports_weights=True,
            algorithm="maxchord",
        ),
    )
}


def get_engine(name: str) -> EngineSpec:
    """Look up an engine by name (ConfigError listing the names if unknown)."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of {engine_names()}"
        ) from None


def engine_names() -> tuple[str, ...]:
    """The engine names, in table order."""
    return tuple(ENGINES)
