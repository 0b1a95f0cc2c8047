"""Tests for the CSR graph structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.builder import build_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators.rmat import rmat_er
from repro.graph.weights import attach_edge_weights


@pytest.fixture
def small():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])


class TestBasics:
    def test_counts(self, small):
        assert small.num_vertices == 4
        assert small.num_edges == 4
        assert small.num_arcs == 8

    def test_degrees(self, small):
        assert small.degree(0) == 2
        assert small.degree(2) == 3
        assert list(small.degrees()) == [2, 2, 3, 1]

    def test_max_degree(self, small):
        assert small.max_degree() == 3

    def test_neighbors_sorted(self, small):
        assert list(small.neighbors(2)) == [0, 1, 3]

    def test_has_edge_both_directions(self, small):
        assert small.has_edge(0, 2) and small.has_edge(2, 0)

    def test_has_edge_absent(self, small):
        assert not small.has_edge(0, 3)

    def test_has_edge_unsorted_graph(self, small):
        shuffled = small.shuffled(np.random.default_rng(0))
        assert shuffled.has_edge(0, 2)
        assert not shuffled.has_edge(0, 3)

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_arrays_readonly(self, small):
        with pytest.raises(ValueError):
            small.indices[0] = 3

    def test_callers_arrays_stay_writeable(self):
        # The dtypes need no conversion, so the graph shares the caller's
        # memory; only its own views are frozen.
        ip = np.array([0, 1, 2], dtype=np.int64)
        ix = np.array([1, 0], dtype=np.int32)
        w = np.array([2.5, 2.5])
        g = CSRGraph.from_untrusted(ip, ix, sorted_adjacency=True, arc_weights=w)
        assert ip.flags.writeable and ix.flags.writeable and w.flags.writeable
        assert np.shares_memory(g.indices, ix)
        for arr in (g.indptr, g.indices, g.arc_weights, g.degrees()):
            assert not arr.flags.writeable
        w[0] += 1.0  # the caller may still write its own array


class TestEdgeViews:
    def test_edge_array_ordered(self, small):
        edges = small.edge_array()
        assert edges.shape == (4, 2)
        assert bool(np.all(edges[:, 0] < edges[:, 1]))

    def test_edge_set(self, small):
        assert small.edge_set() == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_iter_edges_matches_edge_set(self, small):
        assert set(small.iter_edges()) == small.edge_set()


class TestTransforms:
    def test_shuffled_same_edge_set(self, small):
        shuffled = small.shuffled(np.random.default_rng(1))
        assert shuffled == small
        assert not shuffled.sorted_adjacency

    def test_with_sorted_adjacency_roundtrip(self, small):
        resorted = small.shuffled(np.random.default_rng(1)).with_sorted_adjacency()
        assert resorted == small
        assert resorted.sorted_adjacency

    def test_with_sorted_is_noop_when_sorted(self, small):
        assert small.with_sorted_adjacency() is small

    def test_validate_symmetry_ok(self, small):
        small.validate_symmetry()

    def test_validate_symmetry_detects_asymmetry(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])
        g = CSRGraph(indptr, indices, sorted_adjacency=True, validate=False)
        with pytest.raises(GraphFormatError):
            g.validate_symmetry()

    def test_validate_symmetry_detects_self_loop(self):
        indptr = np.array([0, 1])
        indices = np.array([0])
        g = CSRGraph(indptr, indices, sorted_adjacency=True, validate=False)
        with pytest.raises(GraphFormatError, match="self-loop"):
            g.validate_symmetry()

    def test_untrusted_rejects_mismatched_arc_weights(self):
        with pytest.raises(GraphFormatError, match="different weights"):
            CSRGraph.from_untrusted(
                np.array([0, 1, 2]),
                np.array([1, 0]),
                sorted_adjacency=True,
                arc_weights=np.array([1.0, 5.0]),
            )

    @pytest.mark.parametrize("shuffle", (False, True), ids=("sorted", "shuffled"))
    def test_untrusted_pairs_each_arc_with_its_reverse(self, shuffle):
        # Symmetric weights pass in any slice order; changing one arc's
        # weight (and only that arc's) is caught.
        base = rmat_er(7, seed=2)
        g = attach_edge_weights(base, np.random.default_rng(4).random(base.num_edges))
        if shuffle:
            g = g.shuffled(np.random.default_rng(5))
        CSRGraph.from_untrusted(
            g.indptr, g.indices, sorted_adjacency=g.sorted_adjacency, arc_weights=g.arc_weights
        )
        weights = g.arc_weights.copy()
        weights[weights.size // 2] += 0.5
        with pytest.raises(GraphFormatError, match="different weights"):
            CSRGraph.from_untrusted(
                g.indptr, g.indices, sorted_adjacency=g.sorted_adjacency, arc_weights=weights
            )


class TestValidation:
    def test_bad_indptr_start(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]), sorted_adjacency=False)

    def test_indptr_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 3]), np.array([0]), sorted_adjacency=False)

    def test_decreasing_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0, 1]), sorted_adjacency=False)

    def test_out_of_range_indices(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5]), sorted_adjacency=False)

    def test_sorted_claim_checked(self):
        indptr = np.array([0, 2, 3, 3])
        indices = np.array([2, 1, 0])
        with pytest.raises(GraphFormatError, match="strictly increasing"):
            CSRGraph(indptr, indices, sorted_adjacency=True)


class TestEquality:
    def test_equal_ignores_adjacency_order(self, small):
        assert small == small.shuffled(np.random.default_rng(3))

    def test_unequal_different_edges(self, small):
        other = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert small != other

    def test_unequal_different_sizes(self, small):
        other = build_graph(5, list(small.iter_edges()))
        assert small != other

    def test_not_equal_to_non_graph(self, small):
        assert small != "graph"


# ---------------------------------------------------------------------------
# The whole-array checks against per-row / edge-set references


def _first_unsorted_row(indptr, indices):
    """Reference: the first vertex whose slice does not rise strictly
    (``None`` when every slice does), one row at a time."""
    for v in range(len(indptr) - 1):
        row = indices[indptr[v]:indptr[v + 1]]
        if any(a >= b for a, b in zip(row, row[1:])):
            return v
    return None


@st.composite
def _csr_rows(draw):
    """Structurally valid CSR arrays: empty rows, ``n`` from 0, empty
    ``indices``, and rows drawn both unsorted and strictly sorted."""
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(n):
        row = draw(st.lists(st.integers(0, n - 1), max_size=6))
        if draw(st.booleans()):
            row = sorted(set(row))
        rows.append(row)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    indices = np.array([v for r in rows for v in r], dtype=np.int64)
    return indptr, indices


@given(_csr_rows())
def test_sorted_check_matches_per_row_reference(arrays):
    indptr, indices = arrays
    CSRGraph(indptr, indices, sorted_adjacency=False)
    expected = _first_unsorted_row(indptr.tolist(), indices.tolist())
    if expected is None:
        CSRGraph(indptr, indices, sorted_adjacency=True)
    else:
        message = (
            f"adjacency of vertex {expected} is not strictly increasing "
            "but sorted_adjacency=True"
        )
        with pytest.raises(GraphFormatError) as excinfo:
            CSRGraph(indptr, indices, sorted_adjacency=True)
        assert str(excinfo.value) == message


def _symmetry_reference(arcs):
    """Reference: the check :meth:`CSRGraph.validate_symmetry` should
    fail first on the arc list (``None`` when it should pass)."""
    if any(u == v for u, v in arcs):
        return "self-loops"
    if len(set(arcs)) != len(arcs):
        return "duplicate arcs"
    if set(arcs) != {(v, u) for u, v in arcs}:
        return "not symmetric"
    return None


@given(
    n=st.integers(1, 7),
    raw=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14),
    close=st.booleans(),
    declare_sorted=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_validate_symmetry_matches_edge_set_reference(n, raw, close, declare_sorted, seed):
    arcs = [(u % n, v % n) for u, v in raw]
    if close:
        # Most raw lists fail on a loop or a missing back-arc; closing
        # them under reversal (loop- and duplicate-free) exercises the
        # passing side too.
        arcs = sorted({a for u, v in arcs if u != v for a in ((u, v), (v, u))})
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(arcs)) if rng.random() < 0.5 else np.arange(len(arcs))
    arcs = [arcs[i] for i in order]
    # Group by source (stable, so each slice keeps its drawn order).
    arcs.sort(key=lambda a: a[0])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, [u + 1 for u, _ in arcs], 1)
    indptr = np.cumsum(indptr)
    indices = np.array([v for _, v in arcs], dtype=np.int64)
    graph = CSRGraph(indptr, indices, sorted_adjacency=declare_sorted, validate=False)
    expected = _symmetry_reference(arcs)
    if expected is None:
        graph.validate_symmetry()
    else:
        with pytest.raises(GraphFormatError, match=expected):
            graph.validate_symmetry()
