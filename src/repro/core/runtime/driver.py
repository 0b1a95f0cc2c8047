"""The schedule driver: Algorithm 1's loop, implemented once.

The paper describes *one* algorithm with two intra-iteration schedules;
this module is the one place the repo runs it.  :func:`drive` owns the
outer loop — active-set discovery, queue-size accounting, the iteration
budget, edge gathering, work-trace collection — and delegates each
round's compute to a (:class:`~repro.core.runtime.state.LocalState`,
executor) pairing:

* ``schedule="synchronous"`` — barrier rounds against a frozen snapshot
  (:func:`~repro.core.runtime.rounds.run_sync_slice`).  Every subset test
  is evaluated against the same snapshot regardless of slice count or
  timing, so the edge set is **bit-identical** across every pairing —
  serial executor and thread team of any width reproduce the same rows.
* ``schedule="asynchronous"`` — the paper's maximal-progress sweep:
  ascending turns over a live children map, where a vertex whose next
  parent is a later queue member is served again within the same
  iteration.  Serial (it needs a single-slice executor) and deterministic;
  reproduces the paper's headline iteration counts (~3 for R-MAT, k-1
  for a k-clique).  When the compiled backend resolves and no work trace
  is requested, the whole sweep is one call into
  :func:`repro.core.native.native_sweep`, made inside ``executor.map``
  and bit-identical to the interpreted loop (:func:`_serve_turns`), which
  remains the fallback and the trace producer.

Both schedules are deterministic: each yields the same rows on every
kernel path, and synchronous rounds at every thread count.

Work traces are a **driver** feature: for synchronous rounds the trace is
reconstructed from each round's snapshot in canonical ascending order, so
it is identical for every executor (the trace is a property of the
schedule, not of who ran it); for the asynchronous sweep events are
recorded at service time.  Every run returns a :class:`DriveResult`
naming the kernel path that produced it.
"""

from __future__ import annotations

import numpy as np

from repro.core.instrument import CostModelParams, TraceBuilder
from repro.core.kernels import assemble_edges, build_arena_keys
from repro.core.runtime.layout import CTRL_NKEYS
from repro.errors import ConfigError, ConvergenceError
from repro.parallel.partition import balanced_chunks

__all__ = ["drive", "backend_run_fn", "DriveResult", "SCHEDULES", "VARIANTS"]

SCHEDULES = ("asynchronous", "synchronous")
VARIANTS = ("optimized", "unoptimized")


class DriveResult(tuple):
    """``(edges, queue_sizes, trace)`` plus the kernel path that ran.

    Unpacks exactly like the registry's ``run`` triple, so it passes
    through every ``EngineSpec.run`` unchanged.  ``kernel_path`` is
    ``"native"`` when a compiled round body or the compiled sweep
    produced the edges, ``"numpy"`` when the interpreted code did (or
    when the graph was trivial and nothing ran).
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
        (both schedules; a traced sweep runs the interpreted loop).
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
    state.reset()
    limit = max_iterations if max_iterations is not None else state.max_degree + 2
    if schedule == "asynchronous":
        if executor.num_slices != 1:
            raise ConfigError(
                "the asynchronous sweep is serial; drive it with a "
                f"single-slice executor, not {executor.num_slices} slices"
            )
        return _drive_sweep(state, executor, variant, builder, limit)
    return _drive_rounds(state, executor, variant, builder, limit)


def backend_run_fn(state_factory, executor_factory):
    """Build an :class:`~repro.core.engines.EngineSpec` ``run_fn`` from a
    backend pairing.

    ``executor_factory(config)`` makes the executor;
    ``state_factory(graph, num_slices, config)`` makes the bound state.
    The returned callable has the registry's uniform ``(graph, config)``
    signature — this is the whole recipe for plugging a new
    in-process backend into :func:`~repro.core.engines.register_engine`.
    The executor only needs the documented surface (``num_slices`` /
    ``run_round`` / ``close``, plus ``map`` for the asynchronous sweep);
    its ``close()`` is always called, even on failure.
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
    a = state.arrays
    n = state.n
    ctrl = a["control"]
    num_slices = executor.num_slices
    degrees = state.degrees() if builder.enabled else None

    queue_sizes: list[int] = []
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    # Reused distinct-parent scatter mask; cleared per round by
    # un-setting exactly the entries the round set.
    pmask = np.zeros(n, dtype=bool)

    while True:
        active = np.flatnonzero(a["lp"][:n] >= 0)
        na = active.size
        if na == 0:
            break
        if len(queue_sizes) >= limit:
            raise ConvergenceError(
                f"exceeded iteration budget {limit} with {na} active "
                "vertices; this indicates an internal bug"
            )
        parents = a["lp"][:n][active]
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
        a["snapshot"][:n] = a["counts"][:n]
        if getattr(executor, "needs_keys", True):
            nkeys = build_arena_keys(
                a["arena"], a["offsets"], a["snapshot"][:n], n, out=a["keys"]
            ).size
        else:
            nkeys = 0
        if num_slices == 1:
            a["cuts"][0] = 0
            a["cuts"][1] = na
        else:
            # Balance slices by expected service cost: subset tests probe
            # min(|C[w]|, prefix) elements, so the snapshot chordal-set
            # sizes plus a constant are the per-vertex proxy.
            weights = a["snapshot"][:n][active].astype(np.float64) + 1.0
            ranges = balanced_chunks(weights, num_slices)
            a["cuts"][:num_slices] = [r[0] for r in ranges]
            a["cuts"][num_slices] = ranges[-1][1]
        ctrl[CTRL_NKEYS] = nkeys
        executor.run_round(state, "synchronous")
        # uint8 -> bool is a free reinterpret; the mask is consumed by
        # the gathers below before the next round overwrites 'ok'.
        accepted = a["ok"][:na].view(bool)
        chunks.append((parents[accepted], active[accepted]))
        if builder.enabled:
            _record_sync_round(
                builder, degrees, a["snapshot"][:n], active, parents, accepted, variant
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


def _drive_sweep(
    state, executor, variant: str, builder: TraceBuilder, limit: int
) -> DriveResult:
    if not builder.enabled:
        # Imported here, not at module level: resolving the backend must
        # not add to the cost of importing the CLI.
        from repro.core.native import native_available, native_sweep

        if native_available():
            # Inside map() so an executor that times its work (perfbench's
            # traced re-drive) counts the compiled sweep as executor time.
            # No iteration count can exceed max_degree + 2 (see
            # native_sweep), so a larger caller budget bounds nothing.
            budget = min(limit, state.max_degree + 2)
            out: list[tuple[np.ndarray, list[int]]] = []
            executor.map(lambda _tid: out.append(native_sweep(state, budget)))
            edges, queue_sizes = out[0]
            if len(queue_sizes) > budget:
                raise ConvergenceError(
                    f"exceeded iteration budget {budget} "
                    f"(queue={queue_sizes[-1]}); this indicates an internal bug"
                )
            return DriveResult(edges, queue_sizes, None, "native")
    n = state.n
    lp = state.arrays["lp"]
    degrees = state.degrees()
    sets = state.set_mirrors()
    traced = builder if builder.enabled else None

    # children[v] = vertices whose current lowest parent is v.
    children: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        v = int(lp[w])
        if v >= 0:
            children[v].append(w)
    q1: list[int] = sorted({int(lp[w]) for w in range(n) if lp[w] >= 0})

    queue_sizes: list[int] = []
    edges_out: list[tuple[int, int]] = []
    next_q: set[int] = set()

    while q1:
        queue_sizes.append(len(q1))
        if len(queue_sizes) > limit:
            raise ConvergenceError(
                f"exceeded iteration budget {limit} (queue={len(q1)}); "
                "this indicates an internal bug"
            )
        queue = q1
        executor.map(
            lambda _tid: _serve_turns(
                state, queue, children, sets, degrees,
                variant == "unoptimized", edges_out, next_q, traced,
            )
        )
        q1 = sorted(next_q)
        next_q.clear()
        if traced is not None:
            builder.flush()

    edges = (
        np.asarray(edges_out, dtype=np.int64).reshape(-1, 2)
        if edges_out
        else np.empty((0, 2), dtype=np.int64)
    )
    return DriveResult(
        edges, queue_sizes, builder.trace if traced is not None else None, "numpy"
    )


def _serve_turns(
    state,
    q1: list[int],
    children: list[list[int]],
    sets: list[set[int]],
    degrees: np.ndarray,
    unopt: bool,
    out_edges: list[tuple[int, int]],
    next_q: set[int],
    builder: TraceBuilder | None,
) -> None:
    """One sweep iteration's turns (lines 13-22 per turn).

    Serves the children of each queue vertex in ascending order against
    live state.  The parent's chordal-set prefix is frozen once per turn:
    ``C[v]`` cannot change during its own turn (all of v's same-iteration
    gains happen at its parents' earlier turns), so the freeze is exact.
    Each served child appends to its own chordal set, advances to its
    next parent, and re-enters the children map under it.
    """
    a = state.arrays
    arena = a["arena"]
    offsets = a["offsets"]
    counts = a["counts"]
    cursor = a["cursor"]
    lp = a["lp"]
    lower = a["lower"]
    indptr = a["indptr"]
    indices = a["indices"]

    for v in q1:
        kids = children[v]
        if builder is not None:
            builder.scan(v, int(degrees[v]))
        cv = int(counts[v])
        bound = int(arena[int(offsets[v]) + cv - 1]) if cv else -1
        set_v = sets[v]
        # len(kids) re-read each step: a child served at an earlier turn
        # of this iteration may arrive at v while we sweep it.
        i = 0
        while i < len(kids):
            w = kids[i]
            i += 1
            # Line 15: is C[w] a subset of the frozen prefix of C[v]?
            # Cost is min(|C[w]|, prefix) + 1 — linear in the smallest
            # set thanks to the ordered chordal sets (1 when the
            # cardinality filter rejects or C[w] is empty).
            cw = int(counts[w])
            if cw > cv:
                ok = False
                tc = 1
            elif cw == 0:
                ok = True
                tc = 1
            else:
                off_w = int(offsets[w])
                cw_view = arena[off_w:off_w + cw]
                tc = cw + 1
                if int(cw_view[cw - 1]) > bound:
                    ok = False
                else:
                    ok = set_v.issuperset(cw_view.tolist())
            if ok:
                # Lines 16-17: C[w] += {v}; record (v, w).
                arena[int(offsets[w]) + cw] = v
                sets[w].add(v)
                counts[w] = cw + 1
                out_edges.append((v, w))
            # Lines 18-20: advance w to its next lowest parent (sorted
            # adjacency: the parents of w are the first lower[w] slots).
            c = int(cursor[w]) + 1
            cursor[w] = c
            if c < int(lower[w]):
                x = int(indices[int(indptr[w]) + c])
            else:
                x = -1
            lp[w] = x
            if x >= 0:
                children[x].append(w)
                next_q.add(x)
            if builder is not None:
                builder.service(v, w, tc, int(degrees[w]) if unopt else 1, ok)
        children[v] = []
