"""Wrappers over the compiled kernels: the sync round body and the sweep.

:func:`bind_sync_slice` binds the compiled twin of
:func:`repro.core.runtime.rounds.run_sync_slice` to one
:class:`~repro.core.runtime.state.LocalState`: it takes raw pointers into
the state's arrays once and returns a ``body(start, stop)`` the
:class:`~repro.core.runtime.executors.NativeThreadTeamExecutor` runs per
slice.  cffi releases the GIL for the duration of each C call, which is
what lets a thread team run slices genuinely in parallel.

Every C call in the package hands over its arrays through
:func:`pointers`, which checks dtype and contiguity (the C loops read raw
memory and check nothing), and reaches the loaded module through
:func:`native_module`.

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
    "bind_sync_slice",
    "native_module",
    "native_sweep",
    "pointers",
]

_CTYPES = {
    np.dtype(np.int64): "int64_t[]",
    np.dtype(np.int32): "int32_t[]",
    np.dtype(np.uint8): "uint8_t[]",
}

#: The state arrays the compiled round body takes, in argument order
#: (``ok``, the uint8 accept mask, comes last).
_SYNC_ARRAYS = (
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


def native_module(required: bool = True):
    """The loaded compiled module (``.ffi``, ``.lib``).

    When the backend does not resolve, raises
    :class:`NativeUnavailableError`, or returns ``None`` when not
    ``required`` (callers with an interpreted fallback).
    """
    status, module = resolve()
    if module is None and required:
        raise NativeUnavailableError(
            f"native kernel backend unavailable: {status.detail}"
        )
    return module


def pointers(ffi, *arrays: np.ndarray, dtype=np.int64) -> list:
    """cffi pointers into ``arrays``, each checked to be C-contiguous with
    ``dtype`` (int64, int32 or uint8); a ``TypeError`` otherwise."""
    want = np.dtype(dtype)
    ctype = _CTYPES[want]
    out = []
    for arr in arrays:
        if arr.dtype != want or not arr.flags.c_contiguous:
            layout = "contiguous" if arr.flags.c_contiguous else "non-contiguous"
            raise TypeError(
                f"native kernels need contiguous {want} arrays, got a "
                f"{layout} {arr.dtype} array"
            )
        out.append(ffi.from_buffer(ctype, arr))
    return out


def bind_sync_slice(state):
    """The compiled :func:`~repro.core.runtime.rounds.run_sync_slice`
    bound to ``state``: returns ``body(start, stop)``.

    The pointers are taken once, here; they hold the arrays alive, and
    stay valid because a state never replaces an array it has allocated
    (call after :meth:`~repro.core.runtime.state.LocalState.bind_rounds`).
    """
    module = native_module()
    a = state.arrays
    args = (
        *pointers(module.ffi, *(a[name] for name in _SYNC_ARRAYS)),
        *pointers(module.ffi, a["ok"], dtype=np.uint8),
    )
    sync_slice = module.lib.repro_sync_slice

    def body(start: int, stop: int) -> None:
        if start < stop:
            sync_slice(start, stop, *args)

    return body


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
    module = native_module()
    ffi = module.ffi
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
    num_edges = module.lib.repro_sweep(
        n,
        limit,
        *pointers(
            ffi,
            *(a[name] for name in ("arena", "offsets", "counts", "indptr",
                                   "indices", "lower", "cursor", "lp")),
            *scratch,
            qsizes,
            edges,
        ),
        iterations,
    )
    return edges[: max(num_edges, 0)], qsizes[: iterations[0]].tolist()
