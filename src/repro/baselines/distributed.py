"""Distributed partition + border-edge baseline (Dempsey et al.).

Paper Section II describes the prior distributed-memory algorithm
([4], [5], and the communication-free variant [8]) that motivated the
multithreaded redesign:

1. Partition the vertex set across ``p`` processors; an edge whose
   endpoints share a processor is *local*, otherwise it is a **border
   edge**.
2. Each processor runs the serial Dearing algorithm on its local induced
   subgraph, yielding local chordal edges.
3. Border edges are exchanged; a border edge is accepted when it forms a
   triangle with already-accepted chordal edges.

The result is only *nearly* chordal — accepted border edges can close
cycles longer than three, and the cycle-elimination fixups may cascade
("in the worst case the algorithm becomes sequential").  This module
reproduces the scheme over the simulated message-passing substrate,
reports the communication volume (∝ ``b²/Δ`` in the paper's analysis),
and measures exactly how non-chordal the output is; an optional
certified ``repair`` mode re-admits border edges one at a time under the
incremental addability test instead (chordal by construction, still not
necessarily maximal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.dearing import dearing_max_chordal
from repro.baselines.msgpass import MessageStats, Network
from repro.chordality.maximality import AddabilityOracle
from repro.chordality.recognition import is_chordal
from repro.graph.csr import CSRGraph
from repro.graph.ops import edge_subgraph, induced_subgraph
from repro.util.rng import make_rng

__all__ = ["DistributedResult", "distributed_nearly_chordal"]


@dataclass
class DistributedResult:
    """Output of the distributed baseline."""

    edges: np.ndarray
    num_parts: int
    border_edges: int
    accepted_border_edges: int
    chordal: bool
    stats: MessageStats = field(default_factory=MessageStats)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])


def _partition_vertices(n: int, num_parts: int, strategy: str, rng) -> np.ndarray:
    """Assign each vertex a part id."""
    if strategy == "block":
        # Contiguous blocks — what a distributed CSR naturally gets.
        parts = np.minimum(np.arange(n) * num_parts // max(n, 1), num_parts - 1)
        return parts.astype(np.int64)
    if strategy == "random":
        return rng.integers(0, num_parts, size=n, dtype=np.int64)
    raise ValueError(f"unknown partition strategy {strategy!r}")


def distributed_nearly_chordal(
    graph: CSRGraph,
    num_parts: int,
    *,
    strategy: str = "block",
    repair: bool = False,
    seed=None,
) -> DistributedResult:
    """Run the partitioned Dearing + border-triangle algorithm.

    Parameters
    ----------
    graph:
        Input graph.
    num_parts:
        Number of simulated processors (>= 1).
    strategy:
        ``"block"`` (contiguous vertex blocks) or ``"random"`` partition —
        the paper notes many networks are hard to partition, which random
        assignment emulates adversarially.
    repair:
        Use the certified incremental addability test when admitting
        border edges (guarantees a chordal result) instead of the paper's
        triangle heuristic.
    seed:
        RNG seed for the random partition.

    Returns
    -------
    :class:`DistributedResult` — including whether the combined edge set
    is actually chordal (with the triangle heuristic it often is not,
    which is the paper's motivation for Algorithm 1).
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    rng = make_rng(seed)
    n = graph.num_vertices
    part_of = _partition_vertices(n, num_parts, strategy, rng)
    net = Network(num_parts)

    # --- Phase 1: local Dearing runs (concurrent in the original) -------
    local_edges: list[np.ndarray] = []
    for p in range(num_parts):
        members = np.flatnonzero(part_of == p)
        if members.size == 0:
            local_edges.append(np.empty((0, 2), dtype=np.int64))
            continue
        sub, mapping = induced_subgraph(graph, members)
        if sub.num_edges == 0:
            local_edges.append(np.empty((0, 2), dtype=np.int64))
            continue
        local = dearing_max_chordal(sub)
        local_edges.append(mapping[local] if local.size else local)

    accepted = np.vstack([e for e in local_edges if e.size] or
                         [np.empty((0, 2), dtype=np.int64)])

    # --- Phase 2: border-edge exchange ----------------------------------
    all_edges = graph.edge_array()
    border_mask = part_of[all_edges[:, 0]] != part_of[all_edges[:, 1]]
    border = all_edges[border_mask]
    # Each border edge is sent to the lower-rank endpoint's processor,
    # which decides; decisions are broadcast back (mirrors [5]; the
    # communication-free variant [8] instead duplicates decisions).
    for u, v in border:
        owner = int(min(part_of[u], part_of[v]))
        net.send(owner, "border", [(int(u), int(v))])
    net.exchange()

    offered = [
        (p, u, v)
        for p in range(num_parts)
        for msg in net.recv_all(p, "border")
        for u, v in msg
    ]
    if repair:
        # One pass in arrival order, each edge admitted only if the
        # result stays chordal.
        oracle = AddabilityOracle(n, graph.degrees())
        oracle.add_edges(accepted)
        pairs = np.asarray([(u, v) for _p, u, v in offered], dtype=np.int64)
        decisions = (oracle.greedy(pairs, max_passes=1)[0] > 0).tolist()
    else:
        # Paper's heuristic: the border edge is accepted if it "forms a
        # triangle with a chordal edge" — i.e. some third vertex closes a
        # triangle through at least one already-accepted chordal edge (the
        # other side may be any graph edge).  This is what admits long
        # cycles and makes the result only *nearly* chordal.
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in accepted:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
        graph_adj: list[set[int]] = [
            set(int(x) for x in graph.neighbors(v)) for v in range(n)
        ]
        decisions = []
        for _p, u, v in offered:
            ok = bool(adj[u] & graph_adj[v]) or bool(adj[v] & graph_adj[u])
            if ok:
                adj[u].add(v)
                adj[v].add(u)
            decisions.append(ok)
    accepted_border: list[tuple[int, int]] = []
    for (p, u, v), ok in zip(offered, decisions):
        if ok:
            accepted_border.append((u, v))
            net.send(p, "decision", [(u, v)])
    net.exchange()

    if accepted_border:
        accepted = np.vstack((accepted, np.asarray(accepted_border, dtype=np.int64)))

    combined = edge_subgraph(graph, accepted)
    return DistributedResult(
        edges=accepted,
        num_parts=num_parts,
        border_edges=int(border.shape[0]),
        accepted_border_edges=len(accepted_border),
        chordal=is_chordal(combined),
        stats=net.stats,
    )
