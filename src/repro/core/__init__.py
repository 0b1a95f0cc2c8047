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

import importlib

#: ``(module, names)`` groups; each name is imported from its module on
#: first access (PEP 562), so importing one ``repro.core`` submodule does
#: not import the others (the completion pass and its chordality oracle
#: among them).
_EXPORTS = (
    ("repro.core.extract", "ChordalResult"),
    ("repro.core.config", "ExtractionConfig"),
    ("repro.core.session", "Extractor"),
    ("repro.core.incremental", "IncrementalExtractor"),
    ("repro.core.engines", "EngineSpec get_engine engine_names SCHEDULES"),
    ("repro.core.extract", "extract_maximal_chordal_subgraph extract_many"),
    ("repro.core.maximalize", "maximalize_chordal_edges"),
    ("repro.core.config", "VARIANTS"),
    ("repro.core.reference", "reference_max_chordal"),
    ("repro.core.connect", "stitch_components"),
    ("repro.core.instrument", "WorkTrace IterationTrace CostModelParams"),
    ("repro.core.runtime", "drive backend_run_fn LocalState SerialExecutor "
     "NativeThreadTeamExecutor"),
)
_ORIGIN = {name: module for module, names in _EXPORTS for name in names.split()}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_ORIGIN[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
