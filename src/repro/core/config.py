"""`ExtractionConfig` — every extraction knob, captured and validated once.

The pre-session API spread fifteen keyword arguments (and their
validation, engine dispatch and schedule defaults) across
``extract_maximal_chordal_subgraph``, ``extract_many`` and the CLI, each
with its own hand-rolled checks — the batch path even flipped the default
schedule per engine while the single-call path did not.  This module is
the single source of truth instead: a frozen dataclass whose
``__post_init__`` validates every field against the engine table
(:mod:`repro.core.engines`) and whose :meth:`ExtractionConfig.resolved`
fills the engine-dependent defaults *explicitly* — one rule for single
calls, batches, streams and the CLI alike.

All validation failures raise :class:`~repro.errors.ConfigError`, which
subclasses both :class:`~repro.errors.ReproError` (catch one library base
class) and ``ValueError`` (what the legacy shims raised).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.engines import ENGINES, SCHEDULES, EngineSpec, get_engine
from repro.core.instrument import CostModelParams
from repro.core.runtime import VARIANTS
from repro.errors import ConfigError
from repro.util.validation import is_integer

__all__ = ["ExtractionConfig", "VARIANTS", "DEFAULT_NUM_THREADS", "config_cache_key"]

#: Thread-team size of synchronous rounds when none is given.  One
#: thread: on small hosts a wider team only adds barrier handoff per
#: round; the daemon gets its parallelism from concurrent requests.
DEFAULT_NUM_THREADS = 1


@dataclass(frozen=True)
class ExtractionConfig:
    """Immutable, validated description of one extraction regime.

    Construct it once, hand it to :class:`~repro.core.session.Extractor`
    (or many of them), and every graph extracted under it runs the same
    regime.  Construction validates every field against the engine
    table and raises :class:`~repro.errors.ConfigError` on the first
    problem; a constructed config is therefore always runnable.

    Attributes
    ----------
    engine:
        Engine name (see :func:`repro.core.engines.engine_names`:
        ``superstep`` (Algorithm 1), ``reference`` (its pseudocode
        transcription) and the weight-aware ``weighted`` MAXCHORD
        portfolio).  Engines declare a
        ``supports_weights`` capability; handing a graph that carries
        edge weights (``graph.has_weights``) to an engine without it is a
        :class:`~repro.errors.ConfigError` at extraction time — weights
        are never silently ignored.  Strip them with
        ``graph.without_weights()`` to run an unweighted engine.
    variant:
        ``"optimized"`` (sorted adjacency) or ``"unoptimized"``: the
        paper's two parent-advance cost models.  It changes only the
        costs of a collected work trace, never the edge set, so only
        trace-collecting callers set it.
    schedule:
        ``"asynchronous"``, ``"synchronous"``, or ``None`` (default) for
        the engine's declared ``default_schedule`` — ``asynchronous``
        for the Algorithm-1 engines, ``synchronous`` for ``weighted``.
        The engine must support the requested schedule.  Every
        schedule of every engine is deterministic.
    num_threads:
        Thread-team size of ``superstep``'s synchronous barrier rounds
        (default :data:`DEFAULT_NUM_THREADS`); a positive ``int``.  The
        asynchronous sweep is serial and ignores it, and no thread count
        changes an edge set.
    renumber:
        ``"bfs"`` renumbers vertices in BFS order before extraction and
        maps the edge set back — on connected inputs this gives a
        connected output.  Connectivity does not imply maximality (the
        paper's Theorem 2 overclaims; see
        :mod:`repro.chordality.maximality`): only ``maximalize``
        certifies a maximal output.  ``None`` runs on the ids as given.
    stitch:
        Join disconnected output components with single bridges.
    maximalize:
        Run the serial completion pass that re-offers every rejected
        edge (certified maximal output; the added-edge count is reported
        as ``result.maximality_gap``).
    collect_trace:
        Capture the work trace for the machine models (requires an
        engine with the ``supports_trace`` capability).
    cost_params / max_iterations:
        Forwarded to the engine (``max_iterations``: ``None`` or a
        positive ``int``).
    """

    engine: str = "superstep"
    variant: str = "optimized"
    schedule: str | None = None
    num_threads: int = DEFAULT_NUM_THREADS
    renumber: str | None = None
    stitch: bool = False
    maximalize: bool = False
    collect_trace: bool = False
    cost_params: CostModelParams | None = None
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        spec = get_engine(self.engine)  # ConfigError on unknown engine
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.schedule is not None:
            if self.schedule not in SCHEDULES:
                raise ConfigError(
                    f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}"
                )
            if self.schedule not in spec.schedules:
                raise ConfigError(
                    f"engine {self.engine!r} does not support schedule "
                    f"{self.schedule!r}; it supports {spec.schedules}"
                )
        if self.renumber not in (None, "bfs"):
            raise ConfigError(
                f"renumber must be None or 'bfs', got {self.renumber!r}"
            )
        if self.collect_trace and not spec.supports_trace:
            traced = tuple(e.name for e in ENGINES.values() if e.supports_trace)
            raise ConfigError(
                f"collect_trace requires an engine with the supports_trace "
                f"capability ({traced}); engine {self.engine!r} has none"
            )
        if not is_integer(self.num_threads) or self.num_threads < 1:
            raise ConfigError(
                f"num_threads must be an int >= 1, got {self.num_threads!r}"
            )
        if self.max_iterations is not None and (
            not is_integer(self.max_iterations) or self.max_iterations < 1
        ):
            raise ConfigError(
                f"max_iterations must be None or an int >= 1, "
                f"got {self.max_iterations!r}"
            )

    @property
    def engine_spec(self) -> EngineSpec:
        """The engine this config runs on."""
        return get_engine(self.engine)

    def replace(self, **changes: Any) -> "ExtractionConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def resolved(self) -> "ExtractionConfig":
        """Fill every engine-dependent default explicitly.

        ``schedule=None`` becomes the engine's ``default_schedule`` — the
        *one* rule shared by single-call, batch, stream and CLI paths
        (the pre-session API resolved this differently in
        ``extract_many`` than in the single-call function).
        """
        if self.schedule is None:
            return self.replace(schedule=self.engine_spec.default_schedule)
        return self


def config_cache_key(config: ExtractionConfig) -> tuple:
    """Cache identity of a *resolved* config — every field that can
    change the answer (or its provenance).  Two requests spelling the
    same regime differently (``schedule=None`` vs the engine's explicit
    default) share a key; any differing resolved field is a miss.
    ``variant`` and ``num_threads`` are not part of it: they change only
    trace costs or wall time, never the edge set, so keying on them
    would split identical answers.  The service's result cache and the
    sharded path's on-disk shard results both key on it."""
    return (
        config.engine,
        config.schedule,
        config.renumber,
        config.stitch,
        config.maximalize,
        config.max_iterations,
    )
