"""End-to-end integration tests across the full pipeline."""

import numpy as np

from repro import (
    bfs_renumber,
    extract_maximal_chordal_subgraph,
    is_chordal,
    rmat_b,
    rmat_er,
)
from repro.baselines.dearing import dearing_max_chordal
from repro.chordalg.cliques import max_clique
from repro.chordalg.coloring import chordal_coloring, greedy_coloring, verify_coloring
from repro.chordality.maximality import assert_valid_extraction
from repro.graph.generators.bio import (
    GSE5140_UNT,
    bio_network,
    correlation_network,
    synthetic_expression,
)
from repro.graph.io import load_graph, save_graph
from repro.graph.ops import edge_subgraph
from repro.machine.calibration import default_opteron, default_xmt


class TestFullPipelineSynthetic:
    """generate -> extract -> verify -> consume, as a user would."""

    def test_rmat_to_coloring(self):
        g = rmat_er(9, seed=1)
        result = extract_maximal_chordal_subgraph(g, renumber="bfs", maximalize=True)
        assert_valid_extraction(g, result.subgraph)
        colors, k_chordal = chordal_coloring(result.subgraph)
        assert verify_coloring(result.subgraph, colors)
        # the chordal coloring seeds a valid greedy coloring of G itself
        full_colors = greedy_coloring(g, np.argsort(colors, kind="stable"))
        assert verify_coloring(g, full_colors)

    def test_rmat_clique_lower_bound(self):
        g = rmat_b(9, seed=2)
        sub = extract_maximal_chordal_subgraph(g).subgraph
        clique = max_clique(sub)
        # a clique of the subgraph is a clique of G: NP-hard lower bound
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert g.has_edge(u, v)
        assert len(clique) >= 3

    def test_serialization_roundtrip_preserves_extraction(self, tmp_path):
        g = rmat_b(8, seed=3)
        before = extract_maximal_chordal_subgraph(g).edges
        save_graph(g, tmp_path / "g.txt", "edgelist")
        save_graph(g, tmp_path / "g.npz", "npz")
        for loaded in (
            load_graph(tmp_path / "g.txt", "edgelist"),
            load_graph(tmp_path / "g.npz", "npz"),
        ):
            after = extract_maximal_chordal_subgraph(loaded).edges
            assert np.array_equal(before, after)


class TestFullPipelineBio:
    def test_expression_to_extraction(self):
        expr, _ = synthetic_expression(250, 30, 5, seed=4)
        g = correlation_network(expr, threshold=0.9)
        result = extract_maximal_chordal_subgraph(g, renumber="bfs")
        assert is_chordal(result.subgraph)
        assert result.num_chordal_edges <= g.num_edges

    def test_bio_replica_to_machine_models(self):
        g = bio_network(GSE5140_UNT.scaled(1 / 128), seed=5)
        result = extract_maximal_chordal_subgraph(g, collect_trace=True)
        trace = result.trace
        t_xmt = default_xmt().simulate(trace, 16).total_seconds
        t_amd = default_opteron().simulate(trace, 16).total_seconds
        assert t_xmt > 0 and t_amd > 0


class TestCrossAlgorithmConsistency:
    def test_alg1_and_dearing_same_graph_class(self, zoo_graph):
        """Both must produce chordal subgraphs; Dearing must be maximal."""
        alg1 = extract_maximal_chordal_subgraph(zoo_graph).subgraph
        dearing = edge_subgraph(zoo_graph, dearing_max_chordal(zoo_graph))
        assert is_chordal(alg1)
        assert_valid_extraction(zoo_graph, dearing)

    def test_renumbering_invariance_of_validity(self):
        g = rmat_b(8, seed=7)
        renumbered, _ = bfs_renumber(g)
        for graph in (g, renumbered):
            result = extract_maximal_chordal_subgraph(graph)
            assert is_chordal(result.subgraph)

    def test_maximalized_yield_between_raw_and_total(self):
        g = rmat_b(9, seed=8)
        raw = extract_maximal_chordal_subgraph(g).num_chordal_edges
        fixed = extract_maximal_chordal_subgraph(g, maximalize=True).num_chordal_edges
        assert raw <= fixed <= g.num_edges
