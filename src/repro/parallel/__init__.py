"""Thread runtime: persistent worker team, partitioners, atomic helpers.

This is the substrate the synchronous thread team runs on:
barrier-separated supersteps and slice partitioners, plus lock-based
counters.
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
