"""Deprecated process-engine API: thin handles over the ``process`` alias.

The worker-process engine is retired; ``engine="process"`` runs the
native thread team (compiled round bodies that release the GIL, one
process) sized by ``num_workers``.  :class:`ProcessPool` and
:func:`process_max_chordal` keep their signatures so existing callers
keep running, and both go through that one engine: synchronous output
is bit-identical to the serial ``superstep`` engine for any worker
count, asynchronous output is any valid chordal edge set (live rounds;
certify with :func:`repro.chordality.verify_extraction`).  New code
should use ``engine="native"`` instead.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.config import ExtractionConfig
from repro.errors import ConfigError, SessionClosedError
from repro.graph.csr import CSRGraph

__all__ = ["ProcessPool", "process_max_chordal"]


def _deprecated(name: str) -> None:
    warnings.warn(
        f"{name} is deprecated: extraction no longer uses worker processes; "
        "use engine='native' (a nogil thread team) instead",
        DeprecationWarning,
        stacklevel=3,
    )


def _run(graph: CSRGraph, config: ExtractionConfig, pool=None):
    config = config.resolved(pool)
    edges, queue_sizes, _ = config.engine_spec.run(graph, config, pool)
    return edges, queue_sizes


class ProcessPool:
    """Deprecated: a ``num_workers`` size and a bound graph.

    Keeps the historical surface — ``ProcessPool(graph=None,
    num_workers=4)``, :meth:`bind`, :meth:`extract`, :meth:`close` and
    the context manager.  Passed as ``pool=``, it fixes the ``process``
    alias's team size; a closed pool refuses further work.
    """

    def __init__(self, graph: CSRGraph | None = None, num_workers: int = 4) -> None:
        _deprecated("ProcessPool")
        if num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.closed = False
        self._bound: CSRGraph | None = None
        if graph is not None:
            self.bind(graph)

    def check_open(self) -> None:
        """Raise :class:`~repro.errors.SessionClosedError` once closed."""
        if self.closed:
            raise SessionClosedError("ProcessPool is closed")

    def bind(self, graph: CSRGraph) -> "ProcessPool":
        """Make ``graph`` the one :meth:`extract` runs on by default."""
        self.check_open()
        self._bound = graph
        return self

    def extract(
        self,
        graph: CSRGraph | None = None,
        *,
        schedule: str = "synchronous",
        max_iterations: int | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Run one extraction; returns ``(edges, queue_sizes)``.

        With ``graph`` given, rebinds to it first; with ``graph=None``,
        runs on the bound graph.
        """
        self.check_open()
        if graph is not None:
            self.bind(graph)
        if self._bound is None:
            raise RuntimeError("no graph bound; pass one to extract() or bind() first")
        config = ExtractionConfig(
            engine="process", schedule=schedule, max_iterations=max_iterations
        )
        return _run(self._bound, config, self)

    def close(self) -> None:
        """Refuse further work (idempotent)."""
        self.closed = True
        self._bound = None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def process_max_chordal(
    graph: CSRGraph,
    *,
    num_workers: int = 4,
    variant: str = "optimized",
    schedule: str = "synchronous",
    max_iterations: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Deprecated: the ``process`` alias's raw ``(edges, queue_sizes)``.

    ``variant`` is validated for API symmetry; Opt/Unopt visit identical
    parents, so both produce the same edge set.
    """
    _deprecated("process_max_chordal")
    config = ExtractionConfig(
        engine="process",
        variant=variant,
        schedule=schedule,
        num_workers=num_workers,
        max_iterations=max_iterations,
    )
    return _run(graph, config)
