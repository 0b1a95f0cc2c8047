"""Work-trace instrumentation for Algorithm 1.

The machine models (``repro.machine``) do not time Python — they replay a
**work trace**: exact per-iteration operation counts measured while the
real algorithm runs.  Per iteration the trace captures three views of the
same work, because the two modeled platforms are sensitive to different
ones:

1. **Work items** — total ops charged to each LP vertex (its adjacency
   scan, plus the subset test + parent advance + queue bookkeeping of every
   child it serves).  Items are the scheduling granularity of an
   OpenMP-style port (Opteron model: LPT over items).
2. **Category totals** — scan / subset-comparison / advance / queue op
   counts, because cache machines price a sequential adjacency rescan very
   differently from random set probes, while the XMT prices every memory
   touch the same.
3. **Critical path** — the longest chain of *dependent* services in the
   iteration.  Serving ``w`` by parent ``v`` must follow both ``w``'s
   previous service and the service that last grew ``C[v]``; a
   high-degree vertex being served by hundreds of parents is therefore a
   sequential chain no machine can parallelise.  This is the term that
   reproduces the paper's RMAT-B and gene-network behaviour on the XMT.

Iterations are separated by barriers, so chains never span iterations.

Since the unified-runtime refactor, trace collection is a feature of the
schedule *driver* (:func:`repro.core.runtime.driver.drive`), not of any
one engine: synchronous traces are reconstructed from each round's
barrier snapshot in canonical ascending order (identical for the serial
and thread-team executors — the trace is a property of the schedule),
and asynchronous-sweep traces are recorded at service time.  Engines
whose table entry sets ``supports_trace`` (``superstep``) accept
``collect_trace=True`` through the session API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CostModelParams", "IterationTrace", "WorkTrace", "TraceBuilder"]


@dataclass(frozen=True)
class CostModelParams:
    """Abstract op-count weights used when flattening events to costs.

    Units are "operations" (roughly: memory touches); machine models
    translate ops to seconds with platform- and category-specific rates.
    """

    scan_op: float = 1.0      # per adjacency entry scanned by an LP vertex
    compare_op: float = 1.0   # per subset-test comparison
    advance_op: float = 1.0   # per parent-advance op (1 for Opt, deg for Unopt)
    queue_op: float = 2.0     # per processed child (queue bookkeeping)


@dataclass
class IterationTrace:
    """One superstep: independent work items plus iteration-level counters."""

    #: distinct LP vertices active this iteration (|Q1| in the paper, Fig 7)
    queue_size: int
    #: number of (parent, child) services this iteration
    services: int
    #: edges admitted into EC this iteration
    edges_added: int
    #: per-LP-vertex op costs (independent work items), sorted descending
    work_items: np.ndarray
    #: total subset-test comparisons this iteration
    subset_comparisons: int
    #: total parent-advance ops this iteration
    advance_ops: int
    #: total adjacency entries scanned by LP vertices this iteration
    scan_ops: int
    #: total queue-bookkeeping ops this iteration
    queue_ops: int
    #: ops along the longest dependent-service chain this iteration
    critical_path_ops: float

    @property
    def total_work(self) -> float:
        return float(self.work_items.sum()) if self.work_items.size else 0.0

    @property
    def max_item(self) -> float:
        return float(self.work_items.max()) if self.work_items.size else 0.0


@dataclass
class WorkTrace:
    """Complete execution trace of one extraction run."""

    variant: str
    num_vertices: int
    num_edges: int
    iterations: list[IterationTrace] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def queue_sizes(self) -> list[int]:
        """|Q1| per iteration — the series plotted in Figure 7."""
        return [it.queue_size for it in self.iterations]

    @property
    def total_work(self) -> float:
        return sum(it.total_work for it in self.iterations)

    @property
    def total_critical_path(self) -> float:
        """Sum of per-iteration critical paths — the depth lower bound."""
        return sum(it.critical_path_ops for it in self.iterations)

    @property
    def total_edges_added(self) -> int:
        return sum(it.edges_added for it in self.iterations)

    def summary(self) -> dict:
        """Compact dict for logging / EXPERIMENTS.md tables."""
        return {
            "variant": self.variant,
            "n": self.num_vertices,
            "m": self.num_edges,
            "iterations": self.num_iterations,
            "queue_sizes": self.queue_sizes,
            "total_work": self.total_work,
            "critical_path": self.total_critical_path,
            "chordal_edges": self.total_edges_added,
        }


class TraceBuilder:
    """Accumulates one iteration's events.

    The engines call :meth:`scan` once per Q1 vertex and :meth:`service`
    once per (parent, child) processing event, then :meth:`flush` at the
    barrier.  A disabled builder turns every method into a cheap no-op.
    """

    def __init__(
        self,
        variant: str,
        num_vertices: int,
        num_edges: int,
        params: CostModelParams | None = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.params = params or CostModelParams()
        self.trace = WorkTrace(variant, num_vertices, num_edges)
        self._costs: dict[int, float] = {}
        self._depth: dict[int, float] = {}
        self._crit = 0.0
        self._services = 0
        self._edges = 0
        self._cmp = 0
        self._adv = 0
        self._scan = 0
        self._queue = 0

    # --- per-event hooks ------------------------------------------------
    def scan(self, v: int, degree: int) -> None:
        """LP vertex ``v`` scans its adjacency (lines 13-14)."""
        if not self.enabled:
            return
        self._costs[v] = self._costs.get(v, 0.0) + degree * self.params.scan_op
        self._scan += degree

    def service(
        self, v: int, w: int, test_cost: int, advance_cost: int, edge_added: bool
    ) -> None:
        """One child ``w`` served by LP vertex ``v`` (lines 15-22)."""
        if not self.enabled:
            return
        p = self.params
        cost = (
            test_cost * p.compare_op
            + advance_cost * p.advance_op
            + p.queue_op
        )
        self._costs[v] = self._costs.get(v, 0.0) + cost
        self._cmp += test_cost
        self._adv += advance_cost
        self._queue += 2
        self._services += 1
        if edge_added:
            self._edges += 1
        # Dependency chain: this service starts after w's previous service
        # and after the last service that grew C[v].
        start = max(self._depth.get(w, 0.0), self._depth.get(v, 0.0))
        finish = start + cost
        self._depth[w] = finish
        if finish > self._crit:
            self._crit = finish

    # --- barrier ----------------------------------------------------------
    def flush(self) -> None:
        """Close the current iteration (superstep barrier)."""
        if not self.enabled:
            return
        items = np.asarray(sorted(self._costs.values(), reverse=True), dtype=np.float64)
        self.trace.iterations.append(
            IterationTrace(
                queue_size=len(self._costs),
                services=self._services,
                edges_added=self._edges,
                work_items=items,
                subset_comparisons=self._cmp,
                advance_ops=self._adv,
                scan_ops=self._scan,
                queue_ops=self._queue,
                critical_path_ops=self._crit,
            )
        )
        self._costs = {}
        self._depth = {}
        self._crit = 0.0
        self._services = 0
        self._edges = 0
        self._cmp = 0
        self._adv = 0
        self._scan = 0
        self._queue = 0
