"""Deprecated threaded-engine entry point, now the serial engine.

The GIL-bound Python thread team was slower than the serial
``superstep`` engine in every measured cell, so it is retired:
``engine="threaded"`` is an alias of ``superstep`` and
:func:`threaded_max_chordal` keeps its signature for existing callers.
For real thread parallelism use ``engine="native"``.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.config import ExtractionConfig
from repro.graph.csr import CSRGraph

__all__ = ["threaded_max_chordal"]


def threaded_max_chordal(
    graph: CSRGraph,
    *,
    num_threads: int = 4,
    variant: str = "optimized",
    schedule: str = "asynchronous",
    max_iterations: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Deprecated: the ``threaded`` alias's raw ``(edges, queue_sizes)``.

    ``num_threads`` is validated and otherwise ignored.  Both schedules
    are deterministic; the synchronous edge set is bit-identical to
    every other engine's, as before.
    """
    warnings.warn(
        "threaded_max_chordal is deprecated: the threaded engine is an alias "
        "of superstep; use engine='native' for a real thread team",
        DeprecationWarning,
        stacklevel=2,
    )
    config = ExtractionConfig(
        engine="threaded",
        variant=variant,
        schedule=schedule,
        num_threads=num_threads,
        max_iterations=max_iterations,
    ).resolved()
    edges, queue_sizes, _ = config.engine_spec.run(graph, config)
    return edges, queue_sizes
