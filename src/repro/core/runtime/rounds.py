"""Round bodies: one executor slice's share of one barrier round.

These are the compute kernels of the unified runtime — pure functions
over the array schema of :mod:`repro.core.runtime.layout`, run by the
serial executor and by the thread team's NumPy fallback (the compiled
twins live in :mod:`repro.core.native`).

Both bodies assume the driver has already published the round: ``active``
/ ``parents`` hold the vertices to serve, ``cuts`` the slice boundaries,
and the control block the live-region sizes (see
:mod:`repro.core.runtime.driver`).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import (
    advance_parents,
    append_accepted,
    subset_mask,
    subset_mask_live,
)
from repro.core.runtime.layout import (
    CTRL_N,
    CTRL_NKEYS,
    EDGE_ACCEPTED,
    EDGE_REJECTED,
    EDGE_UNDECIDED,
)
from repro.parallel.atomics import bulk_compare_and_set

__all__ = ["run_sync_slice", "run_async_slice", "round_body"]


def run_sync_slice(tid: int, a: dict[str, np.ndarray]) -> None:
    """One slice's share of one synchronous superstep (pure kernel calls).

    The ``nkeys`` prefix bounds the probe to the keys the driver built
    for this round.  Subset tests run against the
    barrier snapshot, so the accepted edge set is independent of slice
    count and timing — the determinism contract of the synchronous
    schedule.
    """
    ctrl = a["control"]
    n = int(ctrl[CTRL_N])
    nkeys = int(ctrl[CTRL_NKEYS])
    cuts = a["cuts"]
    start, stop = int(cuts[tid]), int(cuts[tid + 1])
    if start >= stop:
        return
    ws = a["active"][start:stop]
    vs = a["parents"][start:stop]
    ok = subset_mask(
        a["keys"][:nkeys], a["arena"], a["offsets"], a["snapshot"], ws, vs, n
    )
    a["ok"][start:stop] = ok
    append_accepted(a["arena"], a["offsets"], a["counts"], ws, vs, ok)
    advance_parents(a["indptr"], a["indices"], a["lower"], a["cursor"], a["lp"], ws)


def run_async_slice(tid: int, a: dict[str, np.ndarray]) -> None:
    """One slice's share of one asynchronous live round.

    Unlike :func:`run_sync_slice` there is no barrier snapshot: subset
    tests probe whatever prefix of each parent's chordal set other slices
    have published by probe time
    (:func:`~repro.core.kernels.subset_mask_live`), so the accepted edge
    set depends on slice timing.  Safety rests on the unique-writer
    discipline — this slice is the only mutator of its children's
    ``counts`` / ``cursor`` / ``lp`` words, arena runs and edge-claim
    words — plus the append-before-count-bump publication order inside
    :func:`~repro.core.kernels.append_accepted`.

    Each (child, parent) arc is claimed exactly once: its edge-state word
    flips UNDECIDED -> ACCEPTED/REJECTED via compare-and-set.  A lost
    claim (word already decided) drops the arc, so a double-serviced
    vertex can never append or report an edge twice — the conflict-
    resolution rule the live sweep needs in place of the barrier.
    """
    ctrl = a["control"]
    n = int(ctrl[CTRL_N])
    cuts = a["cuts"]
    start, stop = int(cuts[tid]), int(cuts[tid + 1])
    if start >= stop:
        return
    ws = a["active"][start:stop]
    vs = a["parents"][start:stop]
    offsets = a["offsets"]
    ok = subset_mask_live(a["arena"], offsets, a["counts"], ws, vs, n)
    arcs = offsets[ws] + a["cursor"][ws]
    decisions = np.where(ok, EDGE_ACCEPTED, EDGE_REJECTED)
    ok &= bulk_compare_and_set(a["edge_state"], arcs, EDGE_UNDECIDED, decisions)
    a["ok"][start:stop] = ok
    append_accepted(a["arena"], offsets, a["counts"], ws, vs, ok)
    advance_parents(a["indptr"], a["indices"], a["lower"], a["cursor"], a["lp"], ws)


def round_body(schedule: str):
    """The slice function for ``schedule`` (registry for executors/workers)."""
    return run_async_slice if schedule == "asynchronous" else run_sync_slice
