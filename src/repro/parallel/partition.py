"""Work partitioning strategies.

``balanced_chunks`` is how the unified runtime driver
(:mod:`repro.core.runtime.driver`) cuts each round's active set into
contiguous, cost-balanced slices for the thread team;
``block_ranges`` is the unweighted variant.
``lpt_assign`` (longest-processing-time list scheduling) is what the
machine models use to place the trace's independent work items on
processors — the classic 4/3-approximation to makespan.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "block_ranges",
    "balanced_chunks",
    "degree_balanced_cuts",
    "lpt_assign",
]


def block_ranges(n_items: int, n_parts: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into ``n_parts`` contiguous near-equal ranges.

    Parts differ in size by at most one; empty parts are allowed when
    ``n_parts > n_items``.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_parts)
    ranges = []
    start = 0
    for p in range(n_parts):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def balanced_chunks(weights: np.ndarray, n_parts: int) -> list[tuple[int, int]]:
    """Contiguous split of weighted items into parts of near-equal weight.

    Uses prefix-sum bisection: part ``p`` covers the items whose cumulative
    weight falls in ``[p, p+1) * total / n_parts``.  Keeps the threaded
    engine's partitions contiguous (cache-friendly) while balancing the
    degree-dependent per-vertex costs.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    if n == 0:
        return [(0, 0)] * n_parts
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    prefix = np.cumsum(w)
    total = prefix[-1]
    if total == 0:
        return block_ranges(n, n_parts)
    cuts = [0]
    for p in range(1, n_parts):
        target = total * p / n_parts
        i = int(np.searchsorted(prefix, target))
        # Boundary candidates i and i+1 (cumulative weight just below /
        # at-or-above the target); pick whichever lands closer.
        below = prefix[i - 1] if i > 0 else 0.0
        at = prefix[i] if i < n else prefix[-1]
        cut = i + 1 if abs(at - target) < abs(below - target) else i
        cuts.append(min(cut, n))
    cuts.append(n)
    # Enforce monotonicity (heavy single items can invert naive cuts).
    for i in range(1, len(cuts)):
        cuts[i] = max(cuts[i], cuts[i - 1])
    return [(cuts[i], cuts[i + 1]) for i in range(n_parts)]


def degree_balanced_cuts(degrees: np.ndarray, n_parts: int) -> np.ndarray:
    """Edge-balanced contiguous vertex partition as cut offsets.

    Returns an ``int64`` array ``cuts`` of length ``n_parts + 1`` with
    ``cuts[0] == 0`` and ``cuts[-1] == n``; part ``p`` owns the vertex
    range ``[cuts[p], cuts[p+1])``.  Cuts are placed so each part covers
    a near-equal share of the *degree mass* (= twice the incident-edge
    count), not a near-equal share of the vertex count: on power-law
    degree sequences (R-MAT, SNAP dumps) ``block_ranges`` hands the
    hub-heavy low-id block many times the edges of the tail blocks,
    which is exactly the shard-size skew the sharded extractor must
    avoid.  A vertex whose id is below ``cuts[p+1]`` is owned by a part
    ``<= p``, so ownership lookup is one ``searchsorted`` — no
    length-``n`` part array needed.

    Isolated vertices (zero degree mass) ride with whichever part the
    cut lands them in; an all-zero degree array falls back to the
    unweighted :func:`block_ranges` split.
    """
    d = np.asarray(degrees, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError(f"degrees must be 1-D, got shape {d.shape}")
    ranges = balanced_chunks(d, n_parts)
    cuts = np.empty(n_parts + 1, dtype=np.int64)
    cuts[0] = 0
    for p, (_start, end) in enumerate(ranges):
        cuts[p + 1] = end
    return cuts


def lpt_assign(costs: np.ndarray, n_parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Longest-processing-time list scheduling.

    Returns ``(loads, assignment)`` where ``loads[p]`` is the total cost on
    processor ``p`` and ``assignment[i]`` is the processor of item ``i``.
    Items are placed in descending cost order onto the least-loaded
    processor.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    c = np.asarray(costs, dtype=np.float64)
    loads = np.zeros(n_parts, dtype=np.float64)
    assignment = np.zeros(c.size, dtype=np.int64)
    if c.size == 0:
        return loads, assignment
    order = np.argsort(c)[::-1]
    heap: list[tuple[float, int]] = [(0.0, p) for p in range(n_parts)]
    heapq.heapify(heap)
    for i in order:
        load, p = heapq.heappop(heap)
        assignment[i] = p
        load += float(c[i])
        loads[p] = load
        heapq.heappush(heap, (load, p))
    return loads, assignment
