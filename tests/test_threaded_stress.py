"""Oversubscription coverage for the synchronous thread team.

The synchronous schedule's determinism contract says slice count and
timing are invisible: every subset test reads the barrier snapshot, and
each vertex is served by exactly one slice per round.  This file checks
that contract at thread counts well above the core count, where the
barrier handoff is under the most pressure.  One smoke case runs in
tier-1; the wide sweep is marked ``stress`` (``--run-stress``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runtime import LocalState, NativeThreadTeamExecutor, SerialExecutor, drive
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b


def _team_matches_serial(graph, threads: int) -> None:
    serial, qs, _ = drive(LocalState(graph), SerialExecutor(), schedule="synchronous")
    with NativeThreadTeamExecutor(threads) as executor:
        edges, tqs, _ = drive(LocalState(graph), executor, schedule="synchronous")
    assert np.array_equal(edges, serial), threads
    assert tqs == qs, threads


@pytest.mark.parametrize("threads", (8, 16))
def test_sync_schedule_immune_to_oversubscription(threads):
    """Snapshot semantics must hold at thread counts far above the cores."""
    graph = gnp_random_graph(32, 0.4, seed=9)
    for _ in range(3):
        _team_matches_serial(graph, threads)


@pytest.mark.stress
@pytest.mark.parametrize("threads", (8, 12, 16))
@pytest.mark.parametrize("seed", tuple(range(12)))
def test_sync_stress_sweep(threads, seed):
    """Dense graphs (maximal contention per round) at oversubscribed widths."""
    for graph in (
        gnp_random_graph(24, 0.5, seed=seed),
        gnp_random_graph(40, 0.3, seed=seed),
        rmat_b(6, seed=seed),
    ):
        _team_matches_serial(graph, threads)
