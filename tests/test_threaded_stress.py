"""Adversarial stress coverage for the racing thread team.

The native engine's asynchronous schedule deliberately races: threads
run live rounds over shared state, probing whatever chordal-set prefixes
other threads have published, with lock-free edge-claim words deciding
each arc once.  The paper's proofs say every interleaving still yields a
valid chordal subgraph inside the iteration budget — this file hammers
that claim with thread counts well above the core count on small dense
graphs (maximal contention per vertex).

A smoke slice runs in tier-1; the full sweeps are marked ``stress``
(``--run-stress``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chordality.recognition import is_chordal
from repro.core.runtime import LocalState, NativeThreadTeamExecutor, SerialExecutor, drive
from repro.graph.csr import CSRGraph
from repro.graph.generators.classic import complete_graph
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b
from repro.graph.ops import edge_subgraph


def _dense_zoo(seed: int) -> list[CSRGraph]:
    return [
        gnp_random_graph(24, 0.5, seed=seed),
        gnp_random_graph(40, 0.3, seed=seed),
        rmat_b(6, seed=seed),
    ]


def team_max_chordal(graph: CSRGraph, *, num_threads: int, schedule: str = "asynchronous"):
    """``(edges, queue_sizes)`` of the native thread team."""
    with NativeThreadTeamExecutor(num_threads) as executor:
        edges, queue_sizes, _ = drive(
            LocalState(graph, num_threads, edge_claims=True), executor, schedule=schedule
        )
    return edges, queue_sizes


def _check_async_run(graph: CSRGraph, num_threads: int, seed: int) -> None:
    edges, queue_sizes = team_max_chordal(graph, num_threads=num_threads)
    tag = (num_threads, seed)
    # No duplicate edges: canonical set size equals the row count.
    canon = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in edges}
    assert len(canon) == edges.shape[0], tag
    # Every row is a real (parent < child) edge of G.
    if edges.size:
        assert bool(np.all(edges[:, 0] < edges[:, 1])), tag
        assert canon <= graph.edge_set(), tag
    # The output is chordal for every interleaving (Theorem 1).
    assert is_chordal(edge_subgraph(graph, edges)), tag
    # Iteration budget: |queue_sizes| within the paper's max_degree + 2
    # bound (the driver would have raised ConvergenceError past it;
    # assert the recorded profile agrees).
    assert 0 < len(queue_sizes) <= graph.max_degree() + 2, tag
    assert all(q > 0 for q in queue_sizes), tag


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_async_smoke_8_threads(seed):
    for graph in _dense_zoo(seed):
        _check_async_run(graph, num_threads=8, seed=seed)


@pytest.mark.parametrize("threads", (8, 16))
def test_sync_schedule_immune_to_oversubscription(threads):
    """Snapshot semantics must hold at thread counts far above the cores."""
    graph = gnp_random_graph(32, 0.4, seed=9)
    serial, qs, _ = drive(LocalState(graph), SerialExecutor(), schedule="synchronous")
    def canon_rows(edges: np.ndarray) -> np.ndarray:
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return edges[order]

    for _ in range(3):
        edges, tqs = team_max_chordal(graph, num_threads=threads, schedule="synchronous")
        assert np.array_equal(canon_rows(edges), canon_rows(serial))
        assert tqs == qs


@pytest.mark.stress
@pytest.mark.parametrize("threads", (8, 12, 16))
@pytest.mark.parametrize("seed", tuple(range(12)))
def test_async_stress_sweep(threads, seed):
    for graph in _dense_zoo(seed):
        _check_async_run(graph, num_threads=threads, seed=seed)


@pytest.mark.stress
def test_async_repeated_interleavings_on_clique_core():
    """K16 forces every vertex through the same parent chain; repeat runs
    to sample many interleavings of the hand-off race."""
    graph = complete_graph(16)
    expected = graph.num_edges  # a clique is chordal: nothing may be dropped
    for run in range(20):
        edges, _ = team_max_chordal(graph, num_threads=16)
        assert edges.shape[0] == expected, run
