"""The round body: one executor slice's share of one barrier round.

:func:`run_sync_slice` is the compute kernel of the synchronous schedule
— a pure function over the array schema of
:mod:`repro.core.runtime.layout`, run by the serial executor and by the
thread team's NumPy fallback (the compiled twin lives in
:mod:`repro.core.native`).

It assumes the driver has already published the round: ``active`` /
``parents`` hold the vertices to serve, ``cuts`` the slice boundaries,
and the control block the live-region sizes (see
:mod:`repro.core.runtime.driver`).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import advance_parents, append_accepted, subset_mask
from repro.core.runtime.layout import CTRL_N, CTRL_NKEYS

__all__ = ["run_sync_slice"]


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
