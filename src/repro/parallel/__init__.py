"""Thread runtime: persistent worker team, partitioners, atomic helpers.

This is the substrate the native engine's thread team runs on:
barrier-separated supersteps, slice partitioners and the claim-word
atomics of the asynchronous live rounds.
"""

from repro.parallel.runtime import ThreadTeam, parallel_for
from repro.parallel.partition import (
    block_ranges,
    balanced_chunks,
    cyclic_indices,
    lpt_assign,
)
from repro.parallel.atomics import AtomicCounter, AtomicMax

__all__ = [
    "ThreadTeam",
    "parallel_for",
    "block_ranges",
    "balanced_chunks",
    "cyclic_indices",
    "lpt_assign",
    "AtomicCounter",
    "AtomicMax",
]
