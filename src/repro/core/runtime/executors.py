"""Executor backends: who runs a round's slices.

An *executor backend* turns one round of the schedule driver into
slice-level work.  Both implementations run in the calling process and
expose the same surface, so the driver never branches on the concrete
type:

* ``run_round(state, schedule)`` — execute one published barrier round
  (the kernel bodies of :mod:`repro.core.runtime.rounds`) over every
  slice and return after the implicit barrier.
* ``map(body)`` — run an in-process callable ``body(0)`` for the serial
  executor's one slice (the asynchronous sweep: one call into the
  compiled sweep, or the interpreted turn loop).

:class:`SerialExecutor`
    One slice, the calling thread, NumPy round bodies.  Pairs with
    :class:`~repro.core.runtime.state.LocalState` as the ``superstep``
    engine; the only executor that runs the paper's asynchronous sweep,
    which the driver hands to the compiled backend when it resolves.
:class:`NativeThreadTeamExecutor`
    A persistent :class:`~repro.parallel.runtime.ThreadTeam` dispatching
    the *compiled* round bodies (:mod:`repro.core.native`), which release
    the GIL — genuinely parallel threads over shared arrays.  Pairs with
    ``LocalState(edge_claims=True)`` as the ``native`` engine; falls back
    to the NumPy bodies (identical synchronous results, GIL-bound speed)
    when no compiled backend is available.
"""

from __future__ import annotations

from repro.core.runtime.rounds import round_body
from repro.parallel.runtime import ThreadTeam

__all__ = ["SerialExecutor", "NativeThreadTeamExecutor"]


class SerialExecutor:
    """Single-slice executor running everything in the calling thread."""

    num_slices = 1

    def run_round(self, state, schedule: str) -> None:
        round_body(schedule)(0, state.arrays)

    def map(self, body) -> None:
        body(0)

    def close(self) -> None:
        """Nothing to release (symmetry with the team executor)."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NativeThreadTeamExecutor:
    """Thread team dispatching the compiled (GIL-releasing) round bodies.

    * Rounds call the C bodies of :mod:`repro.core.native`, which operate
      on the schema arrays in place and release the GIL, so the slices of
      a round execute concurrently on real cores.
    * ``live_rounds`` tells the driver to run the asynchronous schedule as
      lock-free live rounds (per-arc CAS claim words) instead of the
      serial children-map sweep.
    * ``needs_keys`` is ``False`` on the compiled path: the C subset test
      binary-searches each parent's arena run directly, so the driver
      skips building the global key array every round.

    When the compiled backend is unavailable (no toolchain, no cffi,
    ``REPRO_NATIVE=0``), the executor transparently runs the NumPy round
    bodies instead — same edge sets (bit-identical under the synchronous
    schedule), GIL-bound speed — so the ``native`` engine always works.
    """

    #: Asynchronous schedule runs live rounds, not the children-map sweep.
    live_rounds = True

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        from repro.core.native import native_available, native_round_body

        self.num_slices = num_threads
        self._team: ThreadTeam | None = None
        self._native = native_available()
        self._body_for = native_round_body if self._native else round_body

    @property
    def needs_keys(self) -> bool:
        """The compiled subset test probes arena runs, not the key array."""
        return not self._native

    @property
    def kernel_path(self) -> str:
        """Which bodies this executor dispatches: ``native`` or ``numpy``."""
        return "native" if self._native else "numpy"

    def run_round(self, state, schedule: str) -> None:
        body = self._body_for(schedule)
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
