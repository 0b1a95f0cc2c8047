"""Exact ground truth: every engine sandwiched against the B&B maximum.

``repro.chordality.quality.exact_max_chordal`` computes a true
**maximum**(-weight) chordal subgraph by hole-branching branch-and-bound
(cross-validated against a 2^m brute force in
``test_exact_matches_bruteforce``).  With ground truth in hand, every
engine's *maximal* output is pinned from both sides:

    certified floor  <=  |engine output|  <=  |maximum|  <=  m

The sweep covers **all** labeled graphs on up to 5 vertices (1,088
graphs — the "exhaustive small graphs" tier; exhausting n <= 7 would be
2^21 graphs, so n in {6, 7} is covered by seeded samples instead, and
sparse seeded samples reach n = 20), and the weighted tier pins the
portfolio invariant ``weighted retained weight >= unweighted`` plus
``weighted <= weighted maximum``.

Assertion messages carry the exact edge list (small graphs) or the
``(family, seed)`` tag needed to replay a failure — see
``tests/README.md``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.chordality.quality import exact_max_chordal, maximal_chordal_floor
from repro.chordality.recognition import is_chordal
from repro.core.engines import engine_names, get_engine
from repro.core.session import Extractor
from repro.graph.builder import from_edge_array
from repro.graph.generators.random import gnp_random_graph
from repro.graph.weights import attach_edge_weights, retained_weight
from tests.conftest import RETIRED_ALIASES, live_engine

#: Engines swept over the exhaustive n <= 5 tier (serial — the tier runs
#: thousands of extractions; the full registry grid runs on the sampled
#: tiers below).
EXHAUSTIVE_ENGINES = ("superstep", "weighted")

#: Registry-driven grid for the sampled tiers.
#: The retired alias labels (``tests/conftest.py``) keep their cells too.
CELLS = [
    (label, schedule)
    for label in (*engine_names(), *RETIRED_ALIASES)
    for schedule in get_engine(live_engine(label)).schedules
]
_CELL_IDS = [f"{engine}-{schedule[:5]}" for engine, schedule in CELLS]


def _graph_from_mask(n: int, pairs, mask: int):
    rows = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    arr = (
        np.asarray(rows, dtype=np.int64)
        if rows
        else np.empty((0, 2), dtype=np.int64)
    )
    return from_edge_array(n, arr), rows


#: (n, p, seed) -> (maximum, floor); the sampled sweep re-tests the same
#: graphs for every registry cell, so ground truth is computed once.
_GROUND_TRUTH: dict[tuple, tuple[int, int]] = {}


def _ground_truth(n: int, p: float, seed: int) -> tuple[int, int]:
    key = (n, p, seed)
    if key not in _GROUND_TRUTH:
        graph = gnp_random_graph(n, p, seed=seed)
        _edges, maximum = exact_max_chordal(graph)
        _GROUND_TRUTH[key] = (int(maximum), maximal_chordal_floor(graph))
    return _GROUND_TRUTH[key]


def _brute_force_max(n: int, rows) -> int:
    best = -1
    m = len(rows)
    for mask in range(1 << m):
        kept = [rows[i] for i in range(m) if mask >> i & 1]
        if len(kept) <= best:
            continue
        arr = (
            np.asarray(kept, dtype=np.int64)
            if kept
            else np.empty((0, 2), dtype=np.int64)
        )
        if is_chordal(from_edge_array(n, arr)):
            best = len(kept)
    return best


@pytest.mark.parametrize("n", (3, 4))
def test_exact_matches_bruteforce(n):
    """The B&B equals the 2^m brute force on every labeled graph with
    n <= 4 (cheap enough to enumerate both sides exhaustively)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        graph, rows = _graph_from_mask(n, pairs, mask)
        edges, weight = exact_max_chordal(graph)
        assert int(weight) == _brute_force_max(n, rows), f"n={n} edges={rows}"
        assert edges.shape[0] == int(weight)
        assert is_chordal(from_edge_array(n, edges)), f"n={n} edges={rows}"


@pytest.mark.parametrize("n", (4, 5))
def test_exhaustive_small_graphs_sandwich(n):
    """floor <= |engine maximal| <= |maximum| on ALL labeled graphs with
    n vertices, for the serial engines."""
    pairs = list(itertools.combinations(range(n), 2))
    extractors = {
        name: Extractor(engine=name, maximalize=True) for name in EXHAUSTIVE_ENGINES
    }
    try:
        for mask in range(1 << len(pairs)):
            graph, rows = _graph_from_mask(n, pairs, mask)
            _edges, maximum = exact_max_chordal(graph)
            maximum = int(maximum)
            floor = maximal_chordal_floor(graph)
            assert floor <= maximum, f"n={n} edges={rows}"
            for name, ex in extractors.items():
                kept = ex.extract(graph).num_chordal_edges
                assert floor <= kept <= maximum, (
                    f"engine={name} n={n} edges={rows}: retained {kept}, "
                    f"certified floor {floor}, exact maximum {maximum}"
                )
    finally:
        for ex in extractors.values():
            ex.close()


@pytest.mark.parametrize("engine,schedule", CELLS, ids=_CELL_IDS)
def test_sampled_graphs_sandwich_all_engines(engine, schedule):
    """Seeded samples at n = 6, 7 (the exhaustive-tier sizes that are too
    many to enumerate) and sparse n = 20: the full registry grid stays
    between the certified floor and the exact maximum."""
    samples = [(6, 0.4, s) for s in range(8)]
    samples += [(7, 0.4, 100 + s) for s in range(8)]
    samples += [(16, 0.15, 200 + s) for s in range(3)]
    samples += [(20, 0.10, 400 + s) for s in range(3)]
    with Extractor(
        engine=live_engine(engine), schedule=schedule, maximalize=True
    ) as ex:
        for n, p, seed in samples:
            graph = gnp_random_graph(n, p, seed=seed)
            tag = f"n={n} p={p} seed={seed} engine={engine} schedule={schedule}"
            maximum, floor = _ground_truth(n, p, seed)
            kept = ex.extract(graph).num_chordal_edges
            assert floor <= kept <= maximum, (
                f"{tag}: retained {kept}, floor {floor}, maximum {maximum}"
            )


def test_weighted_engine_between_unweighted_and_weighted_maximum():
    """On seeded weighted graphs: unweighted-pipeline weight <= weighted
    engine weight <= exact maximum weight (ties allowed everywhere)."""
    rng = np.random.default_rng(42)
    for seed in range(6):
        base = gnp_random_graph(12, 0.35, seed=seed)
        weights = {
            tuple(map(int, e)): float(rng.uniform(0.1, 5.0))
            for e in base.edge_array()
        }
        graph = attach_edge_weights(base, weights)
        tag = f"seed={seed}"
        with Extractor(engine="weighted", maximalize=True) as ex:
            weighted = retained_weight(graph, ex.extract(graph).edges)
        with Extractor(engine="superstep", maximalize=True) as ex:
            unweighted = retained_weight(graph, ex.extract(base).edges)
        _edges, maximum = exact_max_chordal(base, weights=weights)
        assert unweighted <= weighted + 1e-9, (
            f"{tag}: weighted engine retained {weighted:.3f} < unweighted "
            f"pipeline {unweighted:.3f} — the portfolio floor is broken"
        )
        assert weighted <= maximum + 1e-9, (
            f"{tag}: weighted engine retained {weighted:.3f} above the "
            f"exact maximum {maximum:.3f} — impossible; oracle or engine bug"
        )


def test_exact_weighted_prefers_heavy_hole_edge():
    """Hand-checked weighted instance: a 4-cycle keeps its three heaviest
    edges, dropping the lightest."""
    base = from_edge_array(
        4, np.asarray([(0, 1), (1, 2), (2, 3), (0, 3)], dtype=np.int64)
    )
    weights = {(0, 1): 5.0, (1, 2): 4.0, (2, 3): 3.0, (0, 3): 0.5}
    edges, weight = exact_max_chordal(base, weights=weights)
    assert weight == pytest.approx(12.0)
    assert (0, 3) not in {tuple(map(int, e)) for e in edges}


def test_exact_rejects_negative_weights_and_honours_node_limit():
    g = gnp_random_graph(10, 0.5, seed=1)
    first = tuple(map(int, g.edge_array()[0]))
    with pytest.raises(ValueError, match="non-negative"):
        exact_max_chordal(g, weights={first: -1.0})
    with pytest.raises(RuntimeError, match="node_limit"):
        exact_max_chordal(gnp_random_graph(16, 0.6, seed=2), node_limit=3)
