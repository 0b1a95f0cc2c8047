"""Executor backends: who runs a round's slices.

An *executor backend* turns one round of the schedule driver into
slice-level work.  Both implementations run in the calling process and
expose the same surface, so the driver never branches on the concrete
type:

* ``run_round(state, schedule)`` — execute one published synchronous
  barrier round (the round body of :mod:`repro.core.runtime.rounds` or
  its compiled twin) over every slice and return after the implicit
  barrier.  ``schedule`` is always ``"synchronous"``: the asynchronous
  schedule has no barrier rounds.
* ``map(body)`` — run an in-process callable ``body(0)`` for the serial
  executor's one slice (the asynchronous sweep: one call into the
  compiled sweep, or into the reference loop of
  :mod:`repro.core.reference`).

The ``superstep`` engine (:mod:`repro.core.engines`) picks one per
schedule:

:class:`SerialExecutor`
    One slice, the calling thread, NumPy round bodies.  Runs the paper's
    asynchronous sweep, which the driver hands to the compiled backend
    when it resolves and to the reference loop otherwise.
:class:`NativeThreadTeamExecutor`
    A persistent :class:`~repro.parallel.runtime.ThreadTeam` dispatching
    the *compiled* synchronous round body (:mod:`repro.core.native`),
    which releases the GIL — genuinely parallel threads over shared
    arrays.  Runs the synchronous schedule; falls back to the NumPy body
    (identical results, GIL-bound speed) when no compiled backend is
    available.
"""

from __future__ import annotations

from repro.core.runtime.rounds import run_sync_slice
from repro.parallel.runtime import ThreadTeam

__all__ = ["SerialExecutor", "NativeThreadTeamExecutor"]


class SerialExecutor:
    """Single-slice executor running everything in the calling thread."""

    num_slices = 1

    def run_round(self, state, schedule: str) -> None:
        run_sync_slice(0, state.arrays)

    def map(self, body) -> None:
        body(0)

    def close(self) -> None:
        """Nothing to release (symmetry with the team executor)."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NativeThreadTeamExecutor:
    """Thread team dispatching the compiled (GIL-releasing) round body.

    * Rounds call the C body of :mod:`repro.core.native`, which operates
      on the schema arrays in place and releases the GIL, so the slices of
      a round execute concurrently on real cores.
    * ``needs_keys`` is ``False`` on the compiled path: the C subset test
      binary-searches each parent's arena run directly, so the driver
      skips building the global key array every round.

    When the compiled backend is unavailable (no toolchain, no cffi,
    ``REPRO_NATIVE=0``), the executor transparently runs the NumPy round
    body instead — bit-identical edge sets, GIL-bound speed.
    """

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        from repro.core.native import native_available, native_run_sync_slice

        self.num_slices = num_threads
        self._team: ThreadTeam | None = None
        self._native = native_available()
        self._body = native_run_sync_slice if self._native else run_sync_slice

    @property
    def needs_keys(self) -> bool:
        """The compiled subset test probes arena runs, not the key array."""
        return not self._native

    @property
    def kernel_path(self) -> str:
        """Which body this executor dispatches: ``native`` or ``numpy``."""
        return "native" if self._native else "numpy"

    def run_round(self, state, schedule: str) -> None:
        body = self._body
        arrays = state.arrays
        if self.num_slices == 1:
            # One slice owns the whole round: the barrier team would only
            # add handoff latency around a single call.
            body(0, arrays)
            return
        if self._team is None:
            self._team = ThreadTeam(self.num_slices)
        self._team.run(lambda tid: body(tid, arrays))

    def close(self) -> None:
        if self._team is not None:
            self._team.close()
            self._team = None

    def __enter__(self) -> "NativeThreadTeamExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
