"""Tests for structural graph operations."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import build_graph
from repro.graph.generators.classic import complete_graph, cycle_graph, path_graph
from repro.graph.ops import (
    complement,
    degree_histogram,
    edge_subgraph,
    induced_subgraph,
    relabel,
    union_edges,
)


@pytest.fixture
def diamond():
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


class TestEdgeSubgraph:
    def test_keeps_all_vertices(self, diamond):
        sub = edge_subgraph(diamond, [(0, 1)])
        assert sub.num_vertices == 4
        assert sub.num_edges == 1

    def test_empty_edge_set(self, diamond):
        sub = edge_subgraph(diamond, [])
        assert sub.num_edges == 0

    def test_numpy_input(self, diamond):
        sub = edge_subgraph(diamond, np.array([[0, 1], [1, 3]]))
        assert sub.edge_set() == {(0, 1), (1, 3)}

    def test_foreign_edge_rejected(self, diamond):
        with pytest.raises(GraphFormatError, match="not present"):
            edge_subgraph(diamond, [(0, 3)])

    def test_first_missing_edge_named(self):
        path = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        # (2, 4) and (1, 3) are missing; (1, 3) comes first in (u, v) order.
        with pytest.raises(
            GraphFormatError, match=r"^edge \(1, 3\) not present in parent graph$"
        ):
            edge_subgraph(path, [(4, 2), (3, 4), (3, 1), (0, 1)])

    def test_out_of_range_edge_rejected(self, diamond):
        with pytest.raises(GraphFormatError, match=r"edge \(0, 4\) out of range for n=4"):
            edge_subgraph(diamond, [(0, 1), (0, 4)])


class TestInducedSubgraph:
    def test_relabels(self, diamond):
        sub, mapping = induced_subgraph(diamond, [1, 2, 3])
        assert sub.num_vertices == 3
        assert list(mapping) == [1, 2, 3]
        assert sub.edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_empty_selection(self, diamond):
        sub, mapping = induced_subgraph(diamond, [])
        assert sub.num_vertices == 0
        assert mapping.size == 0

    def test_out_of_range_rejected(self, diamond):
        with pytest.raises(GraphFormatError):
            induced_subgraph(diamond, [9])

    def test_duplicates_ignored(self, diamond):
        sub, mapping = induced_subgraph(diamond, [2, 2, 1])
        assert sub.num_vertices == 2


class TestRelabel:
    def test_identity(self, diamond):
        assert relabel(diamond, np.arange(4)) == diamond

    def test_swap_preserves_structure(self, diamond):
        perm = np.array([3, 1, 2, 0])
        out = relabel(diamond, perm)
        assert out.num_edges == diamond.num_edges
        assert sorted(out.degrees().tolist()) == sorted(diamond.degrees().tolist())

    def test_non_permutation_rejected(self, diamond):
        with pytest.raises(GraphFormatError, match="permutation"):
            relabel(diamond, np.array([0, 0, 1, 2]))

    def test_wrong_length_rejected(self, diamond):
        with pytest.raises(GraphFormatError):
            relabel(diamond, np.array([0, 1, 2]))


class TestUnionComplement:
    def test_union(self):
        a = build_graph(4, [(0, 1)])
        b = build_graph(4, [(1, 2)])
        assert union_edges(a, b).edge_set() == {(0, 1), (1, 2)}

    def test_union_overlapping(self):
        a = build_graph(3, [(0, 1), (1, 2)])
        b = build_graph(3, [(1, 2)])
        assert union_edges(a, b).num_edges == 2

    def test_union_size_mismatch(self):
        with pytest.raises(GraphFormatError):
            union_edges(build_graph(3, []), build_graph(4, []))

    def test_complement_of_empty_is_complete(self):
        comp = complement(build_graph(4, []))
        assert comp.num_edges == 6

    def test_complement_of_complete_is_empty(self):
        assert complement(complete_graph(5)).num_edges == 0

    def test_complement_involution(self):
        g = cycle_graph(6)
        assert complement(complement(g)) == g

    def test_complement_size_guard(self):
        with pytest.raises(ValueError):
            complement(build_graph(5000, []))


class TestDegreeHistogram:
    def test_path(self):
        hist = degree_histogram(path_graph(4))
        assert list(hist) == [0, 2, 2]

    def test_empty(self):
        assert list(degree_histogram(build_graph(0, []))) == [0]

    def test_sums_to_n(self):
        g = cycle_graph(7)
        assert degree_histogram(g).sum() == 7
