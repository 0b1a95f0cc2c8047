"""Wrappers over the compiled kernels: the sync round body and the sweep.

:func:`native_run_sync_slice` has the exact ``(tid, arrays)`` signature
of :func:`repro.core.runtime.rounds.run_sync_slice`, so the
:class:`~repro.core.runtime.executors.NativeThreadTeamExecutor` swaps it
in without the driver noticing.  Each call hands the C function raw
pointers into the canonical schema arrays of a
:class:`~repro.core.runtime.state.LocalState` — and cffi releases the GIL
for the duration of the C call, which
is what lets a thread team run slices genuinely in parallel.

Equivalence to the interpreted code (the determinism contract):

* **sync** — membership of ``e`` in the snapshot prefix of ``C[v]`` via
  binary search over ``arena[offsets[v] : offsets[v]+snapshot[v]]`` is
  exactly the ``searchsorted`` probe of the global key array restricted
  to block ``v`` (``key(v, e) = v*n + e`` only matches within the
  block), so the ok mask, appends and parent advances are identical
  element-for-element — the C path just never materialises the key
  array (the driver skips building it, see ``needs_keys``).
* **sweep** — :func:`native_sweep` runs the asynchronous maximal-progress
  sweep of :func:`repro.core.reference.reference_max_chordal` to
  convergence in one C call.  Both are deterministic and serve the same
  (parent, child) pairs in the same turns, so the edge set and the queue
  sizes are identical; the C sweep writes its edges as canonical rows
  (the reference returns them in service order), and callers see
  canonical edges.
"""

from __future__ import annotations

import numpy as np

from repro.core.native.build import resolve
from repro.errors import ReproError

__all__ = [
    "NativeUnavailableError",
    "native_run_sync_slice",
    "native_sweep",
]

_I64 = np.dtype(np.int64)
_U8 = np.dtype(np.uint8)

#: Schema arrays handed to the C bodies, in cast order.
_INT_ARRAYS = (
    "active",
    "parents",
    "arena",
    "offsets",
    "snapshot",
    "counts",
    "indptr",
    "indices",
    "lower",
    "cursor",
    "lp",
)


class NativeUnavailableError(ReproError):
    """The compiled backend was required but could not be resolved."""


def _module():
    status, module = resolve()
    if module is None:
        raise NativeUnavailableError(
            f"native kernel backend unavailable: {status.detail}"
        )
    return module


#: id(arrays-dict) -> (strong refs to every array handed to C, pointer
#: dict).  A hit requires each schema entry to be the *same ndarray
#: object* as the cached one; the held references keep those objects
#: alive, so id() reuse after GC is impossible and a replaced array
#: (fresh object) misses and rebuilds.  An ndarray's buffer cannot
#: move while referenced (in-place resize refuses when references
#: exist), so object identity implies pointer validity — and the
#: identity probe is far cheaper than re-deriving twelve addresses.
_ptr_cache: dict[int, tuple[dict[str, np.ndarray], dict[str, object]]] = {}

_ALL_ARRAYS = _INT_ARRAYS + ("ok",)


def _pointers(ffi, a: dict[str, np.ndarray]) -> dict[str, object]:
    key = id(a)
    hit = _ptr_cache.get(key)
    if hit is not None:
        cached, ptrs = hit
        if all(a[name] is cached[name] for name in _ALL_ARRAYS):
            return ptrs
    ptrs = {}
    for name in _INT_ARRAYS:
        arr = a[name]
        if arr.dtype != _I64 or not arr.flags["C_CONTIGUOUS"]:
            raise TypeError(
                f"native kernels need contiguous int64 schema arrays; "
                f"{name!r} is {arr.dtype}"
            )
        ptrs[name] = ffi.from_buffer("int64_t[]", arr)
    ok = a["ok"]
    if ok.dtype != _U8 or not ok.flags["C_CONTIGUOUS"]:
        raise TypeError(f"native kernels need a contiguous uint8 'ok' array, got {ok.dtype}")
    ptrs["ok"] = ffi.from_buffer("uint8_t[]", ok)
    if len(_ptr_cache) > 64:  # transient LocalStates; keep the cache bounded
        _ptr_cache.clear()
    _ptr_cache[key] = ({name: a[name] for name in _ALL_ARRAYS}, ptrs)
    return ptrs


def native_run_sync_slice(tid: int, a: dict[str, np.ndarray]) -> None:
    """Compiled :func:`~repro.core.runtime.rounds.run_sync_slice`."""
    module = _module()
    cuts = a["cuts"]
    start, stop = int(cuts[tid]), int(cuts[tid + 1])
    if start >= stop:
        return
    p = _pointers(module.ffi, a)
    module.lib.repro_sync_slice(
        start,
        stop,
        p["active"],
        p["parents"],
        p["arena"],
        p["offsets"],
        p["snapshot"],
        p["counts"],
        p["indptr"],
        p["indices"],
        p["lower"],
        p["cursor"],
        p["lp"],
        p["ok"],
    )


def native_sweep(state, limit: int) -> tuple[np.ndarray, list[int]]:
    """Compiled asynchronous sweep over ``state``: one C call, which also
    resets it (Algorithm 1 lines 2-10).

    Returns ``(edges, queue_sizes)``, the edges as canonical rows.  Every
    buffer is sized from the graph, never from ``limit``: at most
    ``arena_used`` edges (one per arena slot) and at most
    ``max_degree + 2`` iterations (each iteration serves every active
    vertex, which then advances past one of its parents), so ``limit``
    must not exceed ``max_degree + 2``.  When more
    than ``limit`` iterations would run, ``queue_sizes`` has ``limit + 1``
    entries, ending with the pending queue size, exactly where the
    reference loop raises; the caller raises the ConvergenceError.
    """
    module = _module()
    ffi, lib = module.ffi, module.lib
    a = state.arrays
    n = state.n
    cap = state.max_degree + 2
    if not 0 <= limit <= cap:
        raise ValueError(f"limit must be in [0, {cap}] (max_degree + 2), got {limit}")
    # head, tail, next, queue, next_queue, mark: six n-length scratch rows.
    scratch = np.empty((6, n), dtype=np.int64)
    qsizes = np.empty(cap + 1, dtype=np.int64)
    edges = np.empty((state.arena_used, 2), dtype=np.int64)
    iterations = ffi.new("int64_t *")

    def ptr(arr: np.ndarray):
        if arr.dtype != _I64 or not arr.flags["C_CONTIGUOUS"]:
            raise TypeError(f"the native sweep needs contiguous int64 arrays, got {arr.dtype}")
        return ffi.from_buffer("int64_t[]", arr)

    num_edges = lib.repro_sweep(
        n,
        limit,
        ptr(a["arena"]),
        ptr(a["offsets"]),
        ptr(a["counts"]),
        ptr(a["indptr"]),
        ptr(a["indices"]),
        ptr(a["lower"]),
        ptr(a["cursor"]),
        ptr(a["lp"]),
        *(ptr(row) for row in scratch),
        ptr(qsizes),
        ptr(edges),
        iterations,
    )
    return edges[: max(num_edges, 0)], qsizes[: iterations[0]].tolist()
