"""Vectorized NumPy kernels for the barrier-synchronous schedule.

Read literally, Algorithm 1 services one ``(w, lp(w))`` pair at a time.
Under snapshot semantics every pair in a superstep is independent, so the
whole superstep can be reformulated as a handful of bulk array operations
over *all* active vertices at once.  This module is that reformulation;
it is the interpreted synchronous round body
(:func:`repro.core.runtime.rounds.run_sync_slice`), run by the serial
executor and by the thread team when the compiled backend does not
resolve.

The kernels operate on the canonical flat data layout of
:mod:`repro.core.runtime.layout`:

* ``offsets`` / ``arena`` / ``counts`` — per-vertex chordal sets ``C[v]``
  stored as sorted runs in one flat arena (``C[v]`` is
  ``arena[offsets[v] : offsets[v] + counts[v]]``).
* ``lp`` / ``cursor`` — current lowest parent and number of consumed
  parents per vertex.

The one non-obvious trick is the **global key array** that replaces the
per-pair subset test.  Because every ``C[v]`` is sorted and vertex blocks
are laid out in increasing-``v`` order, the compressed sequence

    ``key(v, e) = v * n + e``   for every element ``e`` of every ``C[v]``

is *globally* strictly increasing.  Membership of element ``e`` in ``C[v]``
is then a single ``searchsorted`` probe of one flat sorted array, which
NumPy can batch over every element of every active vertex's ``C[w]`` in one
call — no per-vertex Python work at all.  This is the vectorized analogue
of the paper's "ordered chordal set" observation: sortedness is what makes
the subset test batchable.

All kernels are pure functions over arrays (no object state), so any
slice of a round can apply them to the shared schema arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lower_counts",
    "initial_parents",
    "arena_offsets",
    "build_arena_keys",
    "subset_mask",
    "append_accepted",
    "advance_parents",
    "assemble_edges",
]


def lower_counts(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-vertex count of neighbors with a smaller id (parent capacity).

    Works for sorted and unsorted adjacency alike.
    """
    n = indptr.size - 1
    if indices.size == 0:
        return np.zeros(n, dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.bincount(owner[indices < owner], minlength=n).astype(np.int64)


def initial_parents(
    indptr: np.ndarray, sorted_indices: np.ndarray, lower: np.ndarray
) -> np.ndarray:
    """Algorithm 1 lines 4-10: each vertex's first (smallest) lower neighbor.

    Requires *sorted* adjacency: the first slot of a vertex's slice is its
    smallest neighbor, which is a parent exactly when ``lower[w] > 0``.
    """
    n = indptr.size - 1
    lp = np.full(n, -1, dtype=np.int64)
    has = lower > 0
    lp[has] = sorted_indices[indptr[:-1][has]]
    return lp


def arena_offsets(lower: np.ndarray) -> np.ndarray:
    """Arena layout: vertex ``v`` owns capacity ``lower[v]`` at ``offsets[v]``."""
    offsets = np.zeros(lower.size + 1, dtype=np.int64)
    np.cumsum(lower, out=offsets[1:])
    return offsets


def build_arena_keys(
    arena: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    n: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compress the filled arena slots into one sorted key array.

    Returns the strictly increasing array ``[v * n + e for v ascending,
    e in C[v] ascending]`` over the snapshot ``counts``.  When ``out`` is
    given (the state's ``keys`` scratch, capacity = arena size) the keys
    are written into its prefix and that prefix is returned.
    """
    total = int(counts.sum())
    if out is None:
        out = np.empty(total, dtype=np.int64)
    if total == 0:
        return out[:0]
    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    out[:total] = owner * n + arena[offsets[owner] + within]
    return out[:total]


def subset_mask(
    keys: np.ndarray,
    arena: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    ws: np.ndarray,
    vs: np.ndarray,
    n: int,
) -> np.ndarray:
    """Bulk line 15: ``ok[i]`` iff ``C[ws[i]]`` ⊆ ``C[vs[i]]``.

    ``counts`` is the barrier snapshot bounding both sides; ``keys`` must
    be the compressed key array built from the same snapshot.  The cardinality
    filter (``|C[w]| > |C[v]|`` can never be a subset, elements being
    distinct) prunes most rejections before any probe is issued.
    """
    cw = counts[ws]
    ok = cw <= counts[vs]
    cand = np.flatnonzero(ok & (cw > 0))
    if cand.size == 0:
        return ok
    cwc = cw[cand]
    total = int(cwc.sum())
    seg = np.repeat(cand, cwc)
    starts = np.cumsum(cwc) - cwc
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, cwc)
    elems = arena[offsets[ws[seg]] + within]
    qkeys = vs[seg] * n + elems
    pos = np.searchsorted(keys, qkeys)
    # cand is non-empty => some C[v] is non-empty => keys is non-empty.
    found = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == qkeys)
    ok[seg[~found]] = False
    return ok


def append_accepted(
    arena: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    ws: np.ndarray,
    vs: np.ndarray,
    ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk lines 16-17: ``C[w] += {v}`` for accepted pairs; returns them.

    ``ws`` entries are distinct (one service per vertex per superstep), so
    the scatter writes below have unique targets.  Parents arrive in
    increasing order, so each run stays sorted.  ``counts`` here is the
    *live* array (== the snapshot at superstep start under the
    synchronous schedule).
    """
    w_ok = ws[ok]
    v_ok = vs[ok]
    arena[offsets[w_ok] + counts[w_ok]] = v_ok
    counts[w_ok] += 1
    return v_ok, w_ok


def advance_parents(
    indptr: np.ndarray,
    sorted_indices: np.ndarray,
    lower: np.ndarray,
    cursor: np.ndarray,
    lp: np.ndarray,
    ws: np.ndarray,
) -> None:
    """Bulk lines 18-20: every serviced vertex moves to its next parent.

    With sorted adjacency the parents of ``w`` are exactly the first
    ``lower[w]`` slots of its slice, so the advance is one gather.
    """
    cursor[ws] += 1
    cur = cursor[ws]
    nxt = np.full(ws.size, -1, dtype=np.int64)
    has = cur < lower[ws]
    sel = ws[has]
    nxt[has] = sorted_indices[indptr[sel] + cur[has]]
    lp[ws] = nxt


def assemble_edges(chunks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Concatenate per-superstep ``(parents, children)`` chunks into the
    ``(k, 2)`` edge array, in round order."""
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack(
        (
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
        )
    ).astype(np.int64, copy=False)
