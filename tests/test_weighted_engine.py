"""Weighted extraction: the weights API, the engine, and its degenerate inputs.

Covers the satellite checklist for the quality subsystem:

* attaching weights (mapping / per-edge array / scalar), validation of
  non-edges, wrong shapes, non-finite values, and duplicate orientations
  (agreeing duplicates fine, conflicting ones rejected);
* degenerate weight values — zero, negative, uniform — are legal
  *preferences*: extraction stays a valid maximal chordal subgraph and
  uniform weights reproduce the unweighted MAXCHORD pass exactly;
* a weighted graph with a non-weight-aware engine is a ``ConfigError``
  (silently ignoring weights is the bug this gate exists to prevent);
* weights survive graph transforms (adjacency sorting, shuffling,
  session-level BFS renumbering);
* the retained-weight metrics on :class:`ChordalResult`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dearing import dearing_max_chordal
from repro.chordality.maximality import assert_valid_extraction
from repro.core.session import Extractor
from repro.core.weighted import weighted_max_chordal
from repro.errors import ConfigError, GraphFormatError
from repro.graph.builder import build_graph
from repro.graph.generators.random import gnp_random_graph
from repro.graph.ops import edge_subgraph
from repro.graph.weights import (
    attach_edge_weights,
    edge_weight_mapping,
    retained_weight,
    uniform_weights,
)
from tests.conftest import live_engine


def _weighted(n=16, p=0.3, seed=0, *, lo=0.1, hi=5.0):
    g = gnp_random_graph(n, p, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    return attach_edge_weights(g, rng.uniform(lo, hi, g.num_edges))


# ---------------------------------------------------------------------------
# Attaching weights.


def test_attach_mapping_scalar_and_array_agree():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    by_map = attach_edge_weights(g, {(0, 1): 2.0, (1, 2): 2.0, (2, 3): 2.0})
    by_scalar = attach_edge_weights(g, 2.0)
    by_array = attach_edge_weights(g, [2.0, 2.0, 2.0])
    for gw in (by_map, by_scalar, by_array):
        assert gw.has_weights
        assert gw.total_weight == pytest.approx(6.0)
        assert gw.edge_weight(1, 2) == pytest.approx(2.0)


def test_attach_mapping_accepts_either_orientation_and_default():
    g = build_graph(3, [(0, 1), (1, 2)])
    gw = attach_edge_weights(g, {(2, 1): 7.0}, default=3.0)
    assert gw.edge_weight(1, 2) == pytest.approx(7.0)
    assert gw.edge_weight(0, 1) == pytest.approx(3.0)


def test_attach_rejects_bad_inputs():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError, match="not an edge"):
        attach_edge_weights(g, {(0, 2): 1.0})
    with pytest.raises(GraphFormatError, match="not a valid edge"):
        attach_edge_weights(g, {(0, 9): 1.0})
    with pytest.raises(GraphFormatError, match="finite"):
        attach_edge_weights(g, {(0, 1): float("nan")})
    with pytest.raises(GraphFormatError, match="length"):
        attach_edge_weights(g, [1.0])


def test_duplicate_orientations_agreeing_ok_conflicting_rejected():
    g = build_graph(3, [(0, 1), (1, 2)])
    gw = attach_edge_weights(g, {(0, 1): 2.0, (1, 0): 2.0})
    assert gw.edge_weight(0, 1) == pytest.approx(2.0)
    with pytest.raises(GraphFormatError, match="conflicting duplicate"):
        attach_edge_weights(g, {(0, 1): 2.0, (1, 0): 3.0})


def test_without_weights_round_trip():
    gw = _weighted()
    assert gw.has_weights
    stripped = gw.without_weights()
    assert not stripped.has_weights
    assert stripped.num_edges == gw.num_edges
    assert stripped.total_weight == float(gw.num_edges)


def test_neighbor_weights_align_with_neighbors():
    gw = _weighted(seed=3)
    mapping = edge_weight_mapping(gw)
    for v in range(gw.num_vertices):
        for u, w in zip(gw.neighbors(v), gw.neighbor_weights(v)):
            edge = (min(v, int(u)), max(v, int(u)))
            assert w == pytest.approx(mapping[edge])


# ---------------------------------------------------------------------------
# Transforms preserve weights.


def test_sorted_adjacency_and_shuffle_preserve_edge_weights():
    gw = _weighted(seed=5)
    before = edge_weight_mapping(gw)
    assert edge_weight_mapping(gw.with_sorted_adjacency()) == before
    rng = np.random.default_rng(9)
    assert edge_weight_mapping(gw.shuffled(rng)) == before


def test_session_renumber_carries_weights():
    gw = _weighted(seed=6)
    with Extractor(engine="weighted", renumber="bfs") as ex:
        result = ex.extract(gw)
    assert_valid_extraction(gw, edge_subgraph(gw, result.edges), check_maximal=True)
    # Renumbering is an internal detail: plain and renumbered runs are
    # both maximal; their retained weight refers to the same original ids.
    assert result.retained_weight == pytest.approx(
        retained_weight(gw, result.edges)
    )


# ---------------------------------------------------------------------------
# Degenerate weight values.


@pytest.mark.parametrize("value", [0.0, -2.5, 1.0])
def test_uniform_degenerate_weights_still_extract_validly(value):
    g = gnp_random_graph(14, 0.35, seed=7)
    gw = attach_edge_weights(g, value)
    with Extractor(engine="weighted") as ex:
        result = ex.extract(gw)
    assert_valid_extraction(g, edge_subgraph(g, result.edges), check_maximal=True)
    assert result.retained_weight == pytest.approx(value * result.num_chordal_edges)


def test_mixed_sign_weights_extract_validly():
    g = gnp_random_graph(14, 0.35, seed=8)
    rng = np.random.default_rng(8)
    gw = attach_edge_weights(g, rng.uniform(-2.0, 2.0, g.num_edges))
    with Extractor(engine="weighted") as ex:
        result = ex.extract(gw)
    assert_valid_extraction(g, edge_subgraph(g, result.edges), check_maximal=True)


def test_uniform_weights_reproduce_unweighted_maxchord_exactly():
    """With uniform positive weights the weighted pass's selection order
    is pinned to the unweighted Dearing–Shier–Warner baseline."""
    for seed in range(5):
        g = gnp_random_graph(18, 0.3, seed=seed)
        gu = uniform_weights(g, 2.0)
        ours, _profile = weighted_max_chordal(gu, complete=False)
        baseline = np.asarray(dearing_max_chordal(g), dtype=np.int64).reshape(-1, 2)
        a = sorted(map(tuple, np.sort(ours, axis=1)))
        b = sorted(map(tuple, np.sort(baseline, axis=1)))
        assert a == b, f"seed={seed}: uniform-weight pass diverged from MAXCHORD"


# ---------------------------------------------------------------------------
# The engine gate and metrics.


@pytest.mark.parametrize("engine", ["superstep", "threaded", "native", "reference"])
def test_weighted_graph_with_unweighted_engine_is_config_error(engine):
    gw = _weighted(seed=9)
    with Extractor(engine=live_engine(engine)) as ex:
        with pytest.raises(ConfigError, match="not weight-aware"):
            ex.extract(gw)
    # The stripped graph extracts fine in the same session.
    with Extractor(engine=live_engine(engine)) as ex:
        result = ex.extract(gw.without_weights())
    assert result.num_chordal_edges > 0


def test_weighted_engine_accepts_unweighted_graph():
    g = gnp_random_graph(15, 0.3, seed=10)
    with Extractor(engine="weighted") as ex:
        result = ex.extract(g)
    assert_valid_extraction(g, edge_subgraph(g, result.edges), check_maximal=True)
    # Unweighted weight is edge count.
    assert result.retained_weight == float(result.num_chordal_edges)
    assert result.weight_fraction == pytest.approx(result.chordal_fraction)


def test_weighted_engine_rejects_asynchronous_schedule():
    with pytest.raises(
        ConfigError, match="'weighted' does not support schedule 'asynchronous'"
    ):
        Extractor(engine="weighted", schedule="asynchronous")


def test_result_weight_metrics():
    gw = _weighted(seed=11)
    with Extractor(engine="weighted") as ex:
        result = ex.extract(gw)
    assert result.total_weight == pytest.approx(float(gw.total_weight))
    assert 0.0 < result.retained_weight <= result.total_weight
    assert 0.0 < result.weight_fraction <= 1.0
    assert result.weight_fraction == pytest.approx(
        result.retained_weight / result.total_weight
    )


def test_retained_weight_rejects_foreign_edges():
    gw = _weighted(seed=12)
    with pytest.raises(GraphFormatError, match="not in the graph"):
        retained_weight(gw, [(0, gw.num_vertices - 1)]) if not gw.has_edge(
            0, gw.num_vertices - 1
        ) else retained_weight(gw, [(-5, -4)])


def test_retained_weight_rejects_aliased_non_edge():
    # Key 0*3+5 equals key 1*3+2: without a range check (0, 5) would be
    # counted as the edge (1, 2).
    gw = attach_edge_weights(build_graph(3, [(1, 2)]), 2.5)
    with pytest.raises(GraphFormatError, match=r"not in the graph: \[\(0, 5\)\]"):
        retained_weight(gw, [(0, 5)])
    assert retained_weight(gw, [(2, 1)]) == 2.5


def test_retained_weight_unweighted_rejects_non_edges():
    # The unweighted count runs the same membership check: a non-edge
    # is not one unit of retained weight.
    g = build_graph(3, [(1, 2)])
    with pytest.raises(GraphFormatError, match=r"not in the graph: \[\(0, 5\)\]"):
        retained_weight(g, [(0, 5)])
    with pytest.raises(GraphFormatError, match="not in the graph"):
        retained_weight(g, [(0, 1)])
    assert retained_weight(g, [(2, 1)]) == 1.0


def test_retained_weight_on_edgeless_graph_rejects_any_edge():
    gw = attach_edge_weights(build_graph(3, []), 1.0)
    with pytest.raises(GraphFormatError, match="not in the graph"):
        retained_weight(gw, [(0, 1)])


def test_weighted_determinism_across_runs():
    gw = _weighted(seed=13)
    with Extractor(engine="weighted") as ex:
        first = ex.extract(gw).edges
        second = ex.extract(gw).edges
    assert np.array_equal(first, second)
