"""Canonical array layout of the extraction state.

The unified runtime expresses Algorithm 1's state as one *named array
schema* (:class:`~repro.core.runtime.state.LocalState` allocates it).  The
round bodies in :mod:`repro.core.runtime.rounds` (and their compiled
twins in :mod:`repro.core.native`) and the schedule driver in
:mod:`repro.core.runtime.driver` only ever touch the schema, so one
implementation of the paper's loop serves every engine.

Schema entries (``{name: (dtype, shape)}``, see :func:`build_spec`):

* graph: ``indptr`` / ``indices`` (sorted CSR), ``lower`` (per-vertex
  lower-neighbor count), ``offsets`` (arena layout);
* algorithm state: ``lp`` / ``cursor`` / ``counts`` / ``arena`` — the
  paper's lowest parents, consumed-parent cursors and chordal sets;
* per-round scratch: ``active`` / ``parents`` / ``snapshot`` / ``keys`` /
  ``ok`` / ``cuts`` — the barrier snapshot and slice plumbing;
* ``edge_state`` claim words (asynchronous live rounds) and the
  ``control`` block carrying the bound graph's size and the round's key
  count to the bodies.
"""

from __future__ import annotations

__all__ = [
    "CTRL_NKEYS",
    "CTRL_N",
    "CTRL_SLOTS",
    "EDGE_UNDECIDED",
    "EDGE_ACCEPTED",
    "EDGE_REJECTED",
    "build_spec",
]

# Control-block slots (int64 each).
CTRL_NKEYS = 0
CTRL_N = 1
CTRL_SLOTS = 2

#: Edge-state claim words: one per (child, parent) arc, indexed by
#: ``offsets[w] + cursor`` (the arc's position in the child's lower-
#: neighbor prefix).  Flipped away from UNDECIDED exactly once.
EDGE_UNDECIDED = 0
EDGE_ACCEPTED = 1
EDGE_REJECTED = 2


def build_spec(
    n: int, nnz: int, arena: int, num_slices: int
) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Array schema for a graph of ``n`` vertices, ``nnz`` arcs and
    ``arena`` arena slots (== undirected edges); ``num_slices`` is the
    executor's slice count (threads, or 1 for the serial executor)."""
    return {
        "control": ("int64", (CTRL_SLOTS,)),
        "cuts": ("int64", (num_slices + 1,)),
        "indptr": ("int64", (n + 1,)),
        "indices": ("int64", (nnz,)),
        "lower": ("int64", (n,)),
        "offsets": ("int64", (n + 1,)),
        "arena": ("int64", (arena,)),
        "keys": ("int64", (arena,)),
        "counts": ("int64", (n,)),
        "snapshot": ("int64", (n,)),
        "cursor": ("int64", (n,)),
        "lp": ("int64", (n,)),
        "active": ("int64", (n,)),
        "parents": ("int64", (n,)),
        "edge_state": ("int64", (arena,)),
        "ok": ("uint8", (n,)),
    }
