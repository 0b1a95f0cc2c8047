"""The schedule driver: Algorithm 1's loop, implemented once.

The paper describes *one* algorithm with two intra-iteration schedules.
:func:`drive` owns the outer loop — active-set discovery, queue-size
accounting, the iteration budget, edge gathering, work-trace collection
— and delegates each round's compute to a
(:class:`~repro.core.runtime.state.LocalState`, executor) pairing:

* ``schedule="synchronous"`` — barrier rounds against a frozen snapshot
  (:func:`~repro.core.runtime.rounds.run_sync_slice`).  Every subset test
  is evaluated against the same snapshot regardless of slice count or
  timing, so the edge set is **bit-identical** across every pairing —
  serial executor and thread team of any width reproduce the same rows.
* ``schedule="asynchronous"`` — the paper's maximal-progress sweep
  (~3 iterations for R-MAT, k-1 for a k-clique), serial, deterministic,
  inside ``executor.map``: one call into
  :func:`repro.core.native.native_sweep` when the compiled backend
  resolves and no work trace is requested, otherwise the specification's
  own loop (:func:`repro.core.reference.reference_max_chordal`), which
  also records the trace at service time.  Both give the same edge set
  and queue sizes.

Synchronous traces are rebuilt from each round's snapshot in ascending
order, so they are identical for every executor.  Every run returns a
:class:`DriveResult` naming the kernel path that produced it.
"""

from __future__ import annotations

import numpy as np

from repro.core.instrument import CostModelParams, TraceBuilder
from repro.core.kernels import assemble_edges, build_arena_keys
from repro.core.reference import SCHEDULES, reference_max_chordal
from repro.errors import ConfigError, ConvergenceError

__all__ = ["drive", "backend_run_fn", "DriveResult", "VARIANTS"]

VARIANTS = ("optimized", "unoptimized")


class DriveResult(tuple):
    """``(edges, queue_sizes, trace)`` plus the kernel path that ran.

    Unpacks exactly like an engine's ``run`` triple, so it passes
    through every ``EngineSpec.run`` unchanged.  ``kernel_path`` is
    ``"native"`` when a compiled round body or the compiled sweep
    produced the edges, ``"numpy"`` when interpreted code did — the NumPy
    round bodies or the reference loop — or when the graph was trivial
    and nothing ran.
    """

    kernel_path: str

    def __new__(cls, edges, queue_sizes, trace, kernel_path: str):
        self = super().__new__(cls, (edges, queue_sizes, trace))
        self.kernel_path = kernel_path
        return self


def drive(
    state,
    executor,
    *,
    schedule: str = "asynchronous",
    variant: str = "optimized",
    collect_trace: bool = False,
    cost_params: CostModelParams | None = None,
    max_iterations: int | None = None,
) -> DriveResult:
    """Run one extraction; returns ``(edges, queue_sizes, trace)`` as a
    :class:`DriveResult`, which also names the kernel path that ran.

    Parameters
    ----------
    state:
        A bound :class:`~repro.core.runtime.state.LocalState`.
    executor:
        An executor backend (see :mod:`repro.core.runtime.executors`).
    schedule:
        ``"asynchronous"`` (paper-matching) or ``"synchronous"``.
    variant:
        ``"optimized"`` (O(1) parent advance) or ``"unoptimized"``
        (O(deg) advance).  Both visit the same parents in the same order,
        so the edge set is variant-independent — only trace costs differ.
    collect_trace:
        Record the per-LP-vertex work trace for the machine models
        (both schedules; a traced sweep runs the reference loop).
    cost_params / max_iterations:
        Trace op weights; iteration safety bound (default
        ``max_degree + 2``).
    """
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; expected 'optimized' or 'unoptimized'"
        )
    if schedule not in SCHEDULES:
        raise ConfigError(
            f"schedule must be 'asynchronous' or 'synchronous', got {schedule!r}"
        )
    builder = TraceBuilder(
        variant, state.n, state.nnz // 2, cost_params, enabled=collect_trace
    )
    if state.trivial:
        return DriveResult(
            np.empty((0, 2), dtype=np.int64),
            [],
            builder.trace if collect_trace else None,
            "numpy",
        )
    limit = max_iterations if max_iterations is not None else state.max_degree + 2
    if schedule == "asynchronous":
        if executor.num_slices != 1:
            raise ConfigError(
                "the asynchronous sweep is serial; drive it with a "
                f"single-slice executor, not {executor.num_slices} slices"
            )
        return _drive_sweep(state, executor, builder, limit)
    return _drive_rounds(state, executor, variant, builder, limit)


def backend_run_fn(state_factory, executor_factory):
    """Build an :class:`~repro.core.engines.EngineSpec` ``run_fn`` from a
    backend pairing.

    ``executor_factory(config)`` makes the executor;
    ``state_factory(graph, num_slices, config)`` makes the bound state.
    The returned callable has the engine table's uniform ``(graph,
    config)`` signature; ``superstep`` is built this way.  ``num_slices``
    is the executor's; the engine's :class:`LocalState` needs none (the
    executor slices each round), and the argument stays because
    perfbench's traced re-drive calls the factory with it.  The pairing is
    kept as a closure over the two factories because perfbench's traced
    run splits it (``split_pairing`` reads them back to time the executor
    apart from the driver).  The executor only needs the documented
    surface (``num_slices`` / ``run_round`` / ``close``, plus ``map`` for
    the asynchronous sweep); its ``close()`` is always called, even on
    failure.
    """

    def run_fn(graph, config):
        executor = executor_factory(config)
        try:
            state = state_factory(graph, executor.num_slices, config)
            return drive(
                state,
                executor,
                schedule=config.schedule,
                variant=config.variant,
                collect_trace=config.collect_trace,
                cost_params=config.cost_params,
                max_iterations=config.max_iterations,
            )
        finally:
            executor.close()

    return run_fn


# ---------------------------------------------------------------------------
# Barrier rounds (the synchronous schedule)


def _drive_rounds(
    state, executor, variant: str, builder: TraceBuilder, limit: int
) -> DriveResult:
    state.bind_rounds()
    state.reset()
    a = state.arrays
    n = state.n
    degrees = state.graph.degrees() if builder.enabled else None

    queue_sizes: list[int] = []
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    # Reused distinct-parent scatter mask; cleared per round by
    # un-setting exactly the entries the round set.
    pmask = np.zeros(n, dtype=bool)

    while True:
        active = np.flatnonzero(a["lp"] >= 0)
        na = active.size
        if na == 0:
            break
        if len(queue_sizes) >= limit:
            raise ConvergenceError(
                f"exceeded iteration budget {limit} with {na} active "
                "vertices; this indicates an internal bug"
            )
        parents = a["lp"][active]
        # |Q1| = number of distinct parents.  A scatter-mask count is
        # O(n + active) and beats np.unique's sort — at scale 14 the
        # unique() call alone cost more than the compiled round bodies.
        pmask[parents] = True
        queue_sizes.append(int(np.count_nonzero(pmask)))
        pmask[parents] = False
        a["active"][:na] = active
        a["parents"][:na] = parents
        # Barrier: freeze this iteration's chordal-set prefix lengths and
        # compress the filled arena into the sorted key array — unless the
        # executor's bodies probe arena runs directly (the compiled path
        # advertises needs_keys=False).
        # The executor reads the round's size and key count off the state
        # and cuts the round into its own slices.
        a["snapshot"][:] = a["counts"]
        if getattr(executor, "needs_keys", True):
            nkeys = build_arena_keys(
                a["arena"], a["offsets"], a["snapshot"], n, out=a["keys"]
            ).size
        else:
            nkeys = 0
        state.round_size = na
        state.num_keys = nkeys
        executor.run_round(state, "synchronous")
        # uint8 -> bool is a free reinterpret; the mask is consumed by
        # the gathers below before the next round overwrites 'ok'.
        accepted = a["ok"][:na].view(bool)
        chunks.append((parents[accepted], active[accepted]))
        if builder.enabled:
            _record_sync_round(
                builder, degrees, a["snapshot"], active, parents, accepted, variant
            )

    return DriveResult(
        assemble_edges(chunks),
        queue_sizes,
        builder.trace if builder.enabled else None,
        getattr(executor, "kernel_path", "numpy"),
    )


def _record_sync_round(
    builder: TraceBuilder,
    degrees: np.ndarray,
    snapshot: np.ndarray,
    active: np.ndarray,
    parents: np.ndarray,
    accepted: np.ndarray,
    variant: str,
) -> None:
    """Feed one synchronous round to the trace builder in canonical order.

    Under snapshot semantics every (child, parent) service of a round is
    independent, so per-pair costs are exact functions of the snapshot:
    the subset test costs ``min(|C[w]|, |C[v]|) + 1`` comparisons (1 when
    the cardinality filter rejects or ``C[w]`` is empty) and the parent
    advance costs 1 (Opt) or ``deg(w)`` (Unopt).  Events are recorded in
    ascending active order — the canonical serialisation — so the trace
    is identical for every executor.
    """
    for v in np.unique(parents).tolist():
        builder.scan(v, int(degrees[v]))
    cw = snapshot[active]
    kp = snapshot[parents]
    test_cost = np.where((cw > kp) | (cw == 0), 1, cw + 1)
    if variant == "unoptimized":
        adv_cost = degrees[active]
    else:
        adv_cost = np.ones(active.size, dtype=np.int64)
    for v, w, tc, ac, ok in zip(
        parents.tolist(),
        active.tolist(),
        test_cost.tolist(),
        adv_cost.tolist(),
        accepted.tolist(),
    ):
        builder.service(v, w, tc, ac, ok)
    builder.flush()


# ---------------------------------------------------------------------------
# Maximal-progress sweep (the asynchronous schedule)


def _drive_sweep(state, executor, builder: TraceBuilder, limit: int) -> DriveResult:
    out: list[tuple[np.ndarray, list[int]]] = []
    if not builder.enabled:
        # Imported here, not at module level: resolving the backend must
        # not add to the cost of importing the CLI.
        from repro.core.native import native_available, native_sweep

        if native_available():
            # Inside map() so an executor that times its work (perfbench's
            # traced re-drive) counts the compiled sweep as executor time.
            # The C call lays out its own start (Algorithm 1 lines 2-10)
            # and returns canonical rows.  No iteration count can exceed
            # max_degree + 2 (see native_sweep), so a larger caller budget
            # bounds nothing.
            budget = min(limit, state.max_degree + 2)
            executor.map(lambda _tid: out.append(native_sweep(state, budget)))
            edges, queue_sizes = out[0]
            if len(queue_sizes) > budget:
                raise ConvergenceError(
                    f"exceeded iteration budget {budget} "
                    f"(queue={queue_sizes[-1]}); this indicates an internal bug"
                )
            return DriveResult(edges, queue_sizes, None, "native")
    # Also inside map(), so executor time means the same on every host.
    # The reference loop reads only the bound graph, so nothing is reset.
    trace = builder if builder.enabled else None
    executor.map(
        lambda _tid: out.append(
            reference_max_chordal(
                state.graph, schedule="asynchronous", max_iterations=limit, trace=trace
            )
        )
    )
    edges, queue_sizes = out[0]
    return DriveResult(edges, queue_sizes, builder.trace if trace else None, "numpy")
