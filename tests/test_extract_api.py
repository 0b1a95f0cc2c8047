"""Tests for the public extraction API and ChordalResult."""

import numpy as np
import pytest

from repro.chordality.maximality import assert_valid_extraction
from repro.chordality.recognition import is_chordal
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.graph.bfs import connected_components
from repro.graph.builder import build_graph
from repro.graph.generators.classic import cycle_graph, disjoint_cliques, grid_graph
from repro.graph.generators.rmat import rmat_b, rmat_g


class TestResultObject:
    def test_fields(self):
        g = cycle_graph(5)
        r = extract_maximal_chordal_subgraph(g)
        assert r.num_chordal_edges == 4
        assert r.chordal_fraction == pytest.approx(4 / 5)
        assert r.num_iterations == len(r.queue_sizes)
        assert r.engine == "superstep"
        assert r.variant == "optimized"
        assert r.schedule == "asynchronous"

    def test_edges_canonical(self):
        g = rmat_g(7, seed=2)
        r = extract_maximal_chordal_subgraph(g)
        e = r.edges
        assert bool(np.all(e[:, 0] < e[:, 1]))
        order = np.lexsort((e[:, 1], e[:, 0]))
        assert bool(np.all(order == np.arange(e.shape[0])))

    def test_subgraph_cached(self):
        g = cycle_graph(5)
        r = extract_maximal_chordal_subgraph(g)
        assert r.subgraph is r.subgraph

    def test_empty_graph(self):
        g = build_graph(0, [])
        r = extract_maximal_chordal_subgraph(g)
        assert r.num_chordal_edges == 0
        assert r.chordal_fraction == 1.0

    def test_edgeless_graph(self):
        g = build_graph(5, [])
        r = extract_maximal_chordal_subgraph(g)
        assert r.num_chordal_edges == 0
        assert r.num_iterations == 0


class TestOptions:
    # These assert the ValueError back-compat contract of the legacy
    # shims; the raised type is actually ConfigError (a ValueError
    # subclass) — see tests/test_session_api.py for the session API.
    def test_invalid_engine(self):
        with pytest.raises(ValueError, match="engine"):
            extract_maximal_chordal_subgraph(cycle_graph(4), engine="gpu")

    def test_errors_catchable_as_reproerror(self):
        from repro.errors import ConfigError, ReproError

        with pytest.raises(ReproError):
            extract_maximal_chordal_subgraph(cycle_graph(4), engine="gpu")
        with pytest.raises(ConfigError):
            extract_maximal_chordal_subgraph(cycle_graph(4), schedule="warp")

    def test_invalid_variant(self):
        with pytest.raises(ValueError, match="variant"):
            extract_maximal_chordal_subgraph(cycle_graph(4), variant="turbo")

    def test_invalid_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            extract_maximal_chordal_subgraph(cycle_graph(4), schedule="warp")

    def test_invalid_renumber(self):
        with pytest.raises(ValueError, match="renumber"):
            extract_maximal_chordal_subgraph(cycle_graph(4), renumber="dfs")

    def test_trace_requires_trace_capable_engine(self):
        """Traces are a driver feature of the runtime: superstep collects
        them, reference does not."""
        for engine in ("reference",):
            with pytest.raises(ValueError, match="collect_trace"):
                extract_maximal_chordal_subgraph(
                    cycle_graph(4), engine=engine, collect_trace=True
                )
        r = extract_maximal_chordal_subgraph(cycle_graph(4), collect_trace=True)
        assert r.trace is not None

    def test_all_engine_variant_combos_chordal(self, zoo_graph):
        for engine in ("superstep", "reference"):
            for variant in ("optimized", "unoptimized"):
                r = extract_maximal_chordal_subgraph(
                    zoo_graph, engine=engine, variant=variant, num_threads=2
                )
                assert is_chordal(r.subgraph), (engine, variant)


class TestRenumber:
    def test_edges_in_original_ids(self):
        g = rmat_b(7, seed=4)
        r = extract_maximal_chordal_subgraph(g, renumber="bfs")
        assert r.renumbered
        # every output edge exists in the original graph
        for u, v in r.edges:
            assert g.has_edge(int(u), int(v))

    def test_bfs_connected_output_per_component(self):
        g = grid_graph(4, 4)
        r = extract_maximal_chordal_subgraph(g, renumber="bfs")
        assert connected_components(r.subgraph)[0] == 1

    def test_maximalize_with_bfs_certified(self):
        g = rmat_b(7, seed=4)
        r = extract_maximal_chordal_subgraph(g, renumber="bfs", maximalize=True)
        assert_valid_extraction(g, r.subgraph)


class TestStitch:
    def test_disjoint_cliques_bridged(self):
        g = disjoint_cliques(3, 3)
        plain = extract_maximal_chordal_subgraph(g, stitch=True)
        # no cross-component edges exist in G, so no bridges can be added
        assert plain.stitched_bridges == 0

    def test_stitch_connects_when_possible(self):
        # natural ids that fragment EC: star with high-id hub
        g = build_graph(6, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (0, 1)])
        r = extract_maximal_chordal_subgraph(g, stitch=True)
        assert is_chordal(r.subgraph)
        assert connected_components(r.subgraph)[0] <= connected_components(
            extract_maximal_chordal_subgraph(g).subgraph
        )[0]


class TestMaximalize:
    def test_gap_reported_and_closed(self):
        g = rmat_b(8, seed=42)
        raw = extract_maximal_chordal_subgraph(g)
        fixed = extract_maximal_chordal_subgraph(g, maximalize=True)
        assert fixed.maximality_gap >= 0
        assert fixed.num_chordal_edges == raw.num_chordal_edges + fixed.maximality_gap
        from repro.chordality.maximality import addable_edges

        assert addable_edges(g, fixed.subgraph, limit=1) == []

    def test_gap_zero_when_already_maximal(self):
        g = cycle_graph(5)
        r = extract_maximal_chordal_subgraph(g, maximalize=True)
        assert r.maximality_gap == 0
