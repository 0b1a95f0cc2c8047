"""The paper's contribution: multithreaded maximal chordal subgraph extraction.

Algorithm 1 of the paper, run under either of its two schedules.  The
schedule loop itself is implemented once, in the unified in-process
runtime (:mod:`repro.core.runtime`: one driver over ``LocalState`` ×
executor pairings), and :mod:`repro.core.engines` holds the closed table
of three engines:

* ``superstep`` — Algorithm 1 over the runtime: ``LocalState`` ×
  ``SerialExecutor`` runs the paper's maximal-progress sweep (the
  asynchronous schedule, compiled when the native backend resolves);
  ``LocalState`` × ``NativeThreadTeamExecutor`` runs barrier rounds on a
  thread team (the synchronous schedule, compiled round bodies).
  ``drive(LocalState(g), SerialExecutor(), ...)`` runs it directly.
* ``reference`` — :mod:`repro.core.reference`, a literal pure-Python
  transcription of the pseudocode (dicts and sets; the readable spec —
  deliberately not runtime-based).  Bit-identical to ``superstep`` under
  either schedule.
* ``weighted`` — :mod:`repro.core.weighted`, the one engine running a
  different algorithm (weighted MAXCHORD).

The public face is the session API:

* :class:`repro.core.config.ExtractionConfig` — every knob, validated once;
* :class:`repro.core.session.Extractor` — session object with
  ``.extract()`` / ``.extract_many()`` / ``.stream()``;
* :func:`repro.core.extract.extract_maximal_chordal_subgraph` /
  :func:`~repro.core.extract.extract_many` — one-call sessions.
"""

from repro.core.config import ExtractionConfig, VARIANTS
from repro.core.engines import SCHEDULES, EngineSpec, engine_names, get_engine
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
    "EngineSpec",
    "get_engine",
    "engine_names",
    "SCHEDULES",
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
