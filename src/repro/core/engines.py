"""Engine protocol and registry for the extraction engines.

The paper's contribution is *one* algorithm run under many execution
regimes, and this module is where those regimes become data: every engine
registers an :class:`EngineSpec` describing its capabilities — supported
schedules, which of them are deterministic, whether it can produce a
:class:`~repro.core.instrument.WorkTrace` — plus a ``run`` callable with a
uniform signature.  Dispatch, validation, error messages and the CLI's
``--engine`` / ``--schedule`` choices are all derived from the registry,
so a third-party engine registered with :func:`register_engine` plugs into
:class:`~repro.core.session.Extractor`, the one-call functions and
``repro extract`` without touching any of them.

Built-in engines
----------------
The Algorithm-1 engines are pairings of the unified in-process runtime
(:mod:`repro.core.runtime`): one schedule driver over a ``LocalState`` ×
executor choice.

``superstep``
    ``LocalState`` × ``SerialExecutor``: the paper's maximal-progress
    sweep for the asynchronous schedule (compiled when the native backend
    resolves, interpreted otherwise and whenever a work trace is
    requested), NumPy barrier rounds for the synchronous one;
    deterministic under both schedules; collects work traces.  The
    default.
``native``
    ``LocalState(edge_claims=True)`` × ``NativeThreadTeamExecutor`` — a
    thread team dispatching the *compiled* round bodies
    (:mod:`repro.core.native`), which release the GIL: genuinely
    parallel threads over shared arrays.  Falls back to the NumPy bodies
    (same results, GIL-bound) when no compiled backend is available
    (a runtime question — ``repro --version`` reports it, and every
    result's ``kernel_path`` says which code ran).
``reference``
    Literal pseudocode transcription; deterministic under both
    schedules; the readable spec (kept loop-for-loop with the paper, so
    deliberately *not* rewritten over the runtime).

One engine implements a *different algorithm* (``algorithm="maxchord"``
rather than the paper's ``"algorithm1"``):

``weighted``
    Serial weighted MAXCHORD (Dearing–Shier–Warner) with weight-greedy
    completion (:mod:`repro.core.weighted`); the only engine with
    ``supports_weights`` — quality-directed, synchronous-only,
    deterministic.  Cross-engine equivalence sweeps filter on
    ``algorithm`` (different algorithms legitimately produce different
    maximal chordal subgraphs of the same graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.core.instrument import WorkTrace
from repro.core.reference import reference_max_chordal
from repro.core.runtime import (
    LocalState,
    SCHEDULES,
    NativeThreadTeamExecutor,
    SerialExecutor,
    backend_run_fn,
)
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (type hints only)
    from repro.core.config import ExtractionConfig

__all__ = [
    "Engine",
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "schedule_names",
    "registered_engines",
]


@runtime_checkable
class Engine(Protocol):
    """What the dispatcher needs from an engine.

    Any object with these attributes and a :meth:`run` method can be
    handed to :func:`register_engine`; :class:`EngineSpec` is the
    dataclass the built-in engines use.
    """

    name: str
    description: str
    schedules: tuple[str, ...]
    default_schedule: str
    deterministic_schedules: tuple[str, ...]
    supports_trace: bool

    def run(
        self, graph: CSRGraph, config: "ExtractionConfig"
    ) -> tuple[np.ndarray, list[int], WorkTrace | None]:
        """Run one extraction; return ``(edges, queue_sizes, trace)``.

        A return value with a ``kernel_path`` attribute (a
        :class:`~repro.core.runtime.DriveResult`) names the code that
        produced the edges; a plain triple reports ``"numpy"``.
        """
        ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class EngineSpec:
    """Capability record + run callable for one registered engine.

    Attributes
    ----------
    name:
        Registry key (the public ``engine=`` value).
    run_fn:
        ``(graph, config) -> (edges, queue_sizes, trace | None)``
        with the graph already BFS-renumbered when requested; the
        session layer owns renumber/stitch/maximalize/canonicalisation.
    description:
        One line for ``--engine`` help and API docs.
    schedules:
        Schedules this engine accepts (requesting another one is a
        :class:`~repro.errors.ConfigError` naming this tuple).
    default_schedule:
        What ``ExtractionConfig(schedule=None)`` resolves to — the
        engine's natural schedule (``asynchronous`` for the Algorithm-1
        engines, matching the paper; ``synchronous`` for ``weighted``).
    deterministic_schedules:
        Schedules under which the edge set is bit-reproducible across
        runs and thread counts.
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
        (Dearing–Shier–Warner).  Engines sharing an algorithm are
        expected to agree bit-for-bit under deterministic schedules;
        engines with different algorithms only share the
        maximal-chordal-subgraph contract.

    ``supports_weights`` and ``algorithm`` are optional for plain
    Protocol-conforming engine objects; consumers read them with
    ``getattr(engine, "supports_weights", False)`` /
    ``getattr(engine, "algorithm", "algorithm1")``.
    """

    name: str
    run_fn: Callable[..., tuple[np.ndarray, list[int], WorkTrace | None]] = field(
        repr=False
    )
    description: str = ""
    schedules: tuple[str, ...] = SCHEDULES
    default_schedule: str = "asynchronous"
    deterministic_schedules: tuple[str, ...] = ()
    supports_trace: bool = False
    supports_weights: bool = False
    algorithm: str = "algorithm1"
    # perfbench/tracing.py is the only reader; goes with the next benchmark change.
    supports_pool: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _check_engine_invariants(self)

    def is_deterministic(self, schedule: str) -> bool:
        """Whether ``schedule`` yields bit-reproducible edge sets."""
        return schedule in self.deterministic_schedules

    def run(
        self, graph: CSRGraph, config: "ExtractionConfig", _unused=None
    ) -> tuple[np.ndarray, list[int], WorkTrace | None]:
        # ``_unused`` takes the trailing ``None`` perfbench/tracing.py passes
        # (its only reader); goes with the next benchmark change.
        return self.run_fn(graph, config)


def _check_engine_invariants(engine: Engine) -> None:
    """Reject inconsistent capability declarations with a ConfigError.

    Shared by :meth:`EngineSpec.__post_init__` (fail-fast at
    construction) and :func:`register_engine` (so plain
    Protocol-conforming objects are held to the same contract at
    registration time, not at some distant extract-time resolution).
    """
    name = getattr(engine, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigError(f"engine name must be a non-empty string, got {name!r}")
    missing = [
        attr
        for attr in (
            "description",
            "schedules",
            "default_schedule",
            "deterministic_schedules",
            "supports_trace",
        )
        if not hasattr(engine, attr)
    ]
    if missing:
        raise ConfigError(
            f"engine {name!r} is missing required Engine-protocol "
            f"attribute(s) {missing}"
        )
    if not callable(getattr(engine, "run", None)):
        raise ConfigError(
            f"engine {name!r} must have a callable run(graph, config)"
        )
    schedules = tuple(engine.schedules)
    if not schedules:
        raise ConfigError(f"engine {name!r} must support at least one schedule")
    if engine.default_schedule not in schedules:
        raise ConfigError(
            f"engine {name!r}: default_schedule {engine.default_schedule!r} "
            f"is not among its schedules {schedules}"
        )
    unknown = set(engine.deterministic_schedules) - set(schedules)
    if unknown:
        raise ConfigError(
            f"engine {name!r}: deterministic_schedules {sorted(unknown)} "
            f"not among its schedules {schedules}"
        )


_REGISTRY: dict[str, Engine] = {}


def register_engine(engine: Engine, *, replace: bool = False) -> Engine:
    """Add ``engine`` to the registry (and return it).

    Registered engines immediately appear in :func:`engine_names`,
    :func:`schedule_names`, `repro extract --engine` choices, and become
    valid ``ExtractionConfig.engine`` values.  Pass ``replace=True`` to
    swap an existing registration (e.g. to wrap a built-in engine);
    otherwise duplicate names raise :class:`~repro.errors.ConfigError`.
    """
    _check_engine_invariants(engine)
    if engine.name in _REGISTRY and not replace:
        raise ConfigError(
            f"engine {engine.name!r} is already registered; "
            "pass replace=True to override it"
        )
    _REGISTRY[engine.name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (ConfigError if absent)."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown engine {name!r}; expected one of {engine_names()}")
    del _REGISTRY[name]


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name.

    Raises
    ------
    ConfigError
        Listing the registered engine names — the error message is
        derived from the registry, so it stays correct as engines come
        and go.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of {engine_names()}"
        ) from None


def engine_names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def registered_engines() -> tuple[Engine, ...]:
    """The registered engine objects, in registration order."""
    return tuple(_REGISTRY.values())


def schedule_names() -> tuple[str, ...]:
    """Every schedule some registered engine supports.

    Canonical schedules keep their historical order; schedules
    introduced by third-party engines follow in first-seen order.
    """
    seen: set[str] = set()
    for engine in _REGISTRY.values():
        seen.update(engine.schedules)
    names = [s for s in SCHEDULES if s in seen]
    for engine in _REGISTRY.values():
        names.extend(s for s in engine.schedules if s not in names)
    return tuple(names)


# ---------------------------------------------------------------------------
# Built-in engine registrations.  ``run_fn`` receives the (possibly
# renumbered) work graph plus the *resolved* ExtractionConfig.  The
# runtime engines are backend pairings (a LocalState factory plus an
# executor factory, glued by ``backend_run_fn``).

_run_superstep = backend_run_fn(
    lambda graph, num_slices, config: LocalState(graph, num_slices),
    lambda config: SerialExecutor(),
)

# edge_claims=True: the native pairing runs the asynchronous schedule as
# lock-free live rounds, so the state carries real edge-claim words (the
# serial sweep never reads them).
_run_native = backend_run_fn(
    lambda graph, num_slices, config: LocalState(graph, num_slices, edge_claims=True),
    lambda config: NativeThreadTeamExecutor(config.num_threads),
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
    # Import deferred to keep the registry import-light and cycle-free.
    from repro.core.weighted import weighted_portfolio

    edges, queue_sizes = weighted_portfolio(graph)
    return edges, queue_sizes, None


register_engine(
    EngineSpec(
        name="superstep",
        run_fn=_run_superstep,
        description="serial engine: the paper's maximal-progress sweep, "
        "compiled when available (default)",
        deterministic_schedules=("asynchronous", "synchronous"),
        supports_trace=True,
    )
)
register_engine(
    EngineSpec(
        name="native",
        run_fn=_run_native,
        description="compiled nogil round bodies on a real thread team "
        "(NumPy fallback when no toolchain)",
        deterministic_schedules=("synchronous",),
    )
)
register_engine(
    EngineSpec(
        name="reference",
        run_fn=_run_reference,
        description="literal pseudocode transcription (the readable spec)",
        deterministic_schedules=("asynchronous", "synchronous"),
    )
)
register_engine(
    EngineSpec(
        name="weighted",
        run_fn=_run_weighted,
        description="weight-greedy MAXCHORD portfolio, maximises retained weight",
        schedules=("synchronous",),
        default_schedule="synchronous",
        deterministic_schedules=("synchronous",),
        supports_weights=True,
        algorithm="maxchord",
    )
)
