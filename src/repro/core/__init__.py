"""The paper's contribution: multithreaded maximal chordal subgraph extraction.

Algorithm 1 of the paper, in interchangeable engines that all produce
*identical* chordal edge sets under the canonical snapshot-per-superstep
semantics (see DESIGN.md §5).  The schedule loop itself is implemented
once, in the unified in-process runtime (:mod:`repro.core.runtime`: one
driver over ``LocalState`` × executor pairings); the engines are thin
pairings:

* :mod:`repro.core.reference` — literal pure-Python transcription of the
  pseudocode (dicts and sets; the readable spec — deliberately not
  runtime-based).
* ``superstep`` — ``LocalState`` × ``SerialExecutor``: the serial array
  engine with the paper's *optimized* / *unoptimized* parent-advance cost
  models (``drive(LocalState(g), SerialExecutor(), ...)`` runs it
  directly).
* ``native`` — ``LocalState`` × ``NativeThreadTeamExecutor``: compiled
  round bodies on a nogil thread team (real core-level parallelism).

:mod:`repro.core.weighted` adds ``weighted``, the one engine running a
different algorithm (weighted MAXCHORD).

The public face is the session API:

* :class:`repro.core.config.ExtractionConfig` — every knob, validated once;
* :mod:`repro.core.engines` — the engine registry (capability flags,
  :func:`~repro.core.engines.register_engine` for third-party engines);
* :class:`repro.core.session.Extractor` — session object with
  ``.extract()`` / ``.extract_many()`` / ``.stream()``;
* :func:`repro.core.extract.extract_maximal_chordal_subgraph` /
  :func:`~repro.core.extract.extract_many` — one-call sessions.
"""

from repro.core.config import ExtractionConfig, VARIANTS
from repro.core.engines import (
    Engine,
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    registered_engines,
    schedule_names,
    unregister_engine,
)
from repro.core.extract import (
    ChordalResult,
    extract_maximal_chordal_subgraph,
    extract_many,
)
from repro.core.session import Extractor
from repro.core.incremental import IncrementalExtractor
from repro.core.maximalize import maximalize_chordal_edges
from repro.core.reference import reference_max_chordal
from repro.core.connect import stitch_components
from repro.core.instrument import WorkTrace, IterationTrace, CostModelParams
from repro.core.runtime import (
    LocalState,
    NativeThreadTeamExecutor,
    SerialExecutor,
    backend_run_fn,
    drive,
)

__all__ = [
    "ChordalResult",
    "ExtractionConfig",
    "Extractor",
    "IncrementalExtractor",
    "Engine",
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "registered_engines",
    "get_engine",
    "engine_names",
    "schedule_names",
    "extract_maximal_chordal_subgraph",
    "extract_many",
    "maximalize_chordal_edges",
    "VARIANTS",
    "reference_max_chordal",
    "stitch_components",
    "WorkTrace",
    "IterationTrace",
    "CostModelParams",
    "drive",
    "backend_run_fn",
    "LocalState",
    "SerialExecutor",
    "NativeThreadTeamExecutor",
]
