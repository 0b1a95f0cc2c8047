"""Native (compiled, nogil) kernel backend for the unified runtime.

The paper's headline claim is multithreaded scaling on shared memory;
CPython's GIL keeps Python round bodies on one core.  This package
closes that gap: the synchronous round body of
:mod:`repro.core.runtime.rounds` translated to C, compiled once via cffi
into a cached ``.so`` (:mod:`~repro.core.native.build`), and exposed as
a drop-in slice function (:mod:`~repro.core.native.bodies`) that
operates on the canonical schema arrays in place and releases the GIL —
so the ``superstep`` engine's synchronous thread team
(:mod:`repro.core.engines`) runs genuinely in parallel in one process.

The same ``.so`` carries the paper's asynchronous maximal-progress sweep
(:func:`native_sweep`), which the driver runs for the asynchronous
schedule whenever no work trace is requested: one C call per
extraction, with the same edge set and queue sizes as the specification's
asynchronous loop (:func:`repro.core.reference.reference_max_chordal`).

Everything degrades cleanly: when no toolchain (or no cffi) is present,
:func:`native_available` is ``False`` with a specific reason in
:func:`native_status`, and the engine transparently runs the NumPy round
body and the reference loop instead — same results, interpreted
speed.  Tier-1 passes either way.
"""

from repro.core.native.bodies import (
    NativeUnavailableError,
    native_run_sync_slice,
    native_sweep,
)
from repro.core.native.build import CACHE_ENV, DISABLE_ENV, NativeStatus, resolve

__all__ = [
    "CACHE_ENV",
    "DISABLE_ENV",
    "NativeStatus",
    "NativeUnavailableError",
    "native_available",
    "native_status",
    "native_run_sync_slice",
    "native_sweep",
]


def native_status(force: bool = False) -> NativeStatus:
    """Availability + human-readable detail (builds on first call).

    ``detail`` distinguishes the failure modes callers report: missing
    cffi, no C compiler, a failed build, or an explicit
    ``REPRO_NATIVE=0`` opt-out.  Pass ``force=True`` to re-resolve after
    changing the environment.
    """
    return resolve(force)[0]


def native_available() -> bool:
    """Whether the compiled backend is loaded (builds on first call)."""
    return resolve()[0].available
