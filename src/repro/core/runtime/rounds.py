"""The round body: one executor slice's share of one barrier round.

:func:`run_sync_slice` is the compute kernel of the synchronous schedule
— a pure function over a :class:`~repro.core.runtime.state.LocalState`'s
arrays, run by the serial executor and by the thread team's NumPy
fallback (the compiled twin lives in :mod:`repro.core.native`).

It assumes the driver has already published the round: ``active`` /
``parents`` hold the vertices to serve, ``snapshot`` (and ``keys``) the
barrier snapshot, and :attr:`~repro.core.runtime.state.LocalState.num_keys`
the key count (see :mod:`repro.core.runtime.driver`).  The executor
picks the slice ``[start, stop)`` of the round's vertices.
"""

from __future__ import annotations

from repro.core.kernels import advance_parents, append_accepted, subset_mask

__all__ = ["run_sync_slice"]


def run_sync_slice(state, start: int, stop: int) -> None:
    """Serve the round's vertices ``start:stop`` (pure kernel calls).

    The ``num_keys`` prefix bounds the probe to the keys the driver built
    for this round.  Subset tests run against the
    barrier snapshot, so the accepted edge set is independent of slice
    count and timing — the determinism contract of the synchronous
    schedule.
    """
    if start >= stop:
        return
    a = state.arrays
    ws = a["active"][start:stop]
    vs = a["parents"][start:stop]
    ok = subset_mask(
        a["keys"][: state.num_keys], a["arena"], a["offsets"], a["snapshot"], ws, vs,
        state.n,
    )
    a["ok"][start:stop] = ok
    append_accepted(a["arena"], a["offsets"], a["counts"], ws, vs, ok)
    advance_parents(a["indptr"], a["indices"], a["lower"], a["cursor"], a["lp"], ws)
