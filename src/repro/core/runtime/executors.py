"""Executor backends: who runs a round's slices.

An *executor backend* turns one round of the schedule driver into
slice-level work.  Both implementations run in the calling process and
expose the same surface, so the driver never branches on the concrete
type:

* ``run_round(state, schedule)`` — execute one published synchronous
  barrier round (the round body of :mod:`repro.core.runtime.rounds` or
  its compiled twin): cut the round's ``state.round_size`` vertices
  into the executor's slices, run the body on each and return after
  the implicit barrier.  ``schedule`` is always ``"synchronous"``: the
  asynchronous schedule has no barrier rounds.
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

from functools import partial

import numpy as np

from repro.core.runtime.rounds import run_sync_slice
from repro.parallel.partition import balanced_chunks
from repro.parallel.runtime import ThreadTeam

__all__ = ["SerialExecutor", "NativeThreadTeamExecutor"]


class SerialExecutor:
    """Single-slice executor running everything in the calling thread."""

    num_slices = 1

    def run_round(self, state, schedule: str) -> None:
        run_sync_slice(state, 0, state.round_size)

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
      on the state's arrays in place and releases the GIL, so the slices
      of a round execute concurrently on real cores.
    * The executor owns the slicing: each round's vertices are cut into
      ``num_slices`` contiguous ranges of near-equal expected cost.
    * The body is bound to a state once (the compiled one takes its
      pointers then); the binding is dropped on :meth:`close` or when
      another state comes in.
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
        from repro.core.native import native_available

        self.num_slices = num_threads
        self._team: ThreadTeam | None = None
        self._native = native_available()
        self._bound: tuple[object, object] | None = None  # (state, body)

    @property
    def needs_keys(self) -> bool:
        """The compiled subset test probes arena runs, not the key array."""
        return not self._native

    @property
    def kernel_path(self) -> str:
        """Which body this executor dispatches: ``native`` or ``numpy``."""
        return "native" if self._native else "numpy"

    def _body(self, state):
        if self._bound is None or self._bound[0] is not state:
            if self._native:
                from repro.core.native import bind_sync_slice

                body = bind_sync_slice(state)
            else:
                body = partial(run_sync_slice, state)
            self._bound = (state, body)
        return self._bound[1]

    def run_round(self, state, schedule: str) -> None:
        body = self._body(state)
        size = state.round_size
        if self.num_slices == 1:
            # One slice owns the whole round: the barrier team would only
            # add handoff latency around a single call.
            body(0, size)
            return
        # Balance slices by expected service cost: subset tests probe
        # min(|C[w]|, prefix) elements, so the snapshot chordal-set
        # sizes plus a constant are the per-vertex proxy.
        a = state.arrays
        weights = a["snapshot"][a["active"][:size]].astype(np.float64) + 1.0
        ranges = balanced_chunks(weights, self.num_slices)
        if self._team is None:
            self._team = ThreadTeam(self.num_slices)
        self._team.run(lambda tid: body(*ranges[tid]))

    def close(self) -> None:
        self._bound = None
        if self._team is not None:
            self._team.close()
            self._team = None

    def __enter__(self) -> "NativeThreadTeamExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
