"""Thread runtime and partitioners.

This is the substrate the synchronous thread team runs on:
barrier-separated supersteps and slice partitioners.
"""

from repro.parallel.runtime import ThreadTeam
from repro.parallel.partition import (
    block_ranges,
    balanced_chunks,
    lpt_assign,
)

__all__ = [
    "ThreadTeam",
    "block_ranges",
    "balanced_chunks",
    "lpt_assign",
]
