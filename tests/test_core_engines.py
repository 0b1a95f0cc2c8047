"""Tests for the reference transcription, the serial runtime pairing and
the native thread team of Algorithm 1, and their agreement."""

import numpy as np
import pytest

from repro.chordality.recognition import is_chordal
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.reference import reference_max_chordal
from repro.core.runtime import LocalState, SerialExecutor, drive
from repro.errors import ConvergenceError
from repro.graph.builder import build_graph
from repro.graph.generators.classic import (
    complete_graph,
    cycle_graph,
    disjoint_cliques,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.rmat import rmat_b
from repro.graph.ops import edge_subgraph


def canon(edges: np.ndarray) -> set[tuple[int, int]]:
    return {(min(int(u), int(v)), max(int(u), int(v))) for u, v in edges}


def superstep(graph, **kwargs):
    """The ``superstep`` engine's pairing, driven directly."""
    return drive(LocalState(graph), SerialExecutor(), **kwargs)


def team(graph, num_threads, **kwargs):
    """The ``native`` engine: compiled round bodies on a thread team."""
    return extract_maximal_chordal_subgraph(
        graph, engine="native", num_threads=num_threads, **kwargs
    )


class TestReferenceEngine:
    def test_cycle_keeps_all_but_one(self):
        edges, _ = reference_max_chordal(cycle_graph(6))
        assert len(edges) == 5

    def test_clique_keeps_everything(self):
        edges, qs = reference_max_chordal(complete_graph(5))
        assert len(edges) == 10
        assert len(qs) == 4  # paper: k-1 steps for a k-clique

    def test_empty_and_trivial(self):
        edges, qs = reference_max_chordal(build_graph(0, []))
        assert edges.shape == (0, 2) and qs == []
        edges, qs = reference_max_chordal(build_graph(3, []))
        assert edges.shape == (0, 2) and qs == []

    def test_path_keeps_everything(self):
        edges, _ = reference_max_chordal(path_graph(6))
        assert len(edges) == 5

    def test_star_single_iteration(self):
        edges, qs = reference_max_chordal(star_graph(5))
        assert len(edges) == 5
        assert len(qs) == 1  # hub 0 is everyone's only parent

    def test_parent_rows_are_lower(self):
        edges, _ = reference_max_chordal(rmat_b(7, seed=3))
        assert bool(np.all(edges[:, 0] < edges[:, 1]))

    def test_schedules_both_chordal(self, zoo_graph):
        for schedule in ("asynchronous", "synchronous"):
            edges, _ = reference_max_chordal(zoo_graph, schedule=schedule)
            assert is_chordal(edge_subgraph(zoo_graph, edges))

    def test_sync_iterations_bounded_by_max_lower_degree(self):
        g = rmat_b(7, seed=5)
        _, qs = reference_max_chordal(g, schedule="synchronous")
        max_lower = max(
            int(np.sum(g.neighbors(v) < v)) for v in range(g.num_vertices)
        )
        assert len(qs) == max_lower

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            reference_max_chordal(path_graph(3), schedule="bogus")

    def test_iteration_budget_enforced(self):
        with pytest.raises(ConvergenceError):
            reference_max_chordal(complete_graph(8), max_iterations=2)


class TestSuperstepEngine:
    def test_matches_reference_async(self, zoo_graph):
        ref, ref_qs = reference_max_chordal(zoo_graph, schedule="asynchronous")
        got, qs, _tr = superstep(zoo_graph, schedule="asynchronous")
        assert canon(got) == canon(ref)
        assert qs == ref_qs

    def test_matches_reference_sync(self, zoo_graph):
        ref, ref_qs = reference_max_chordal(zoo_graph, schedule="synchronous")
        got, qs, _tr = superstep(zoo_graph, schedule="synchronous")
        assert canon(got) == canon(ref)
        assert qs == ref_qs

    def test_unoptimized_same_edges(self, zoo_graph):
        opt, _, _ = superstep(zoo_graph, variant="optimized")
        unopt, _, _ = superstep(zoo_graph, variant="unoptimized")
        assert canon(opt) == canon(unopt)

    def test_unsorted_input_handled(self):
        g = rmat_b(7, seed=9).shuffled(np.random.default_rng(0))
        opt, _, _ = superstep(g, variant="optimized")
        unopt, _, _ = superstep(g, variant="unoptimized")
        assert canon(opt) == canon(unopt)

    def test_trace_collection(self):
        g = rmat_b(7, seed=1)
        edges, qs, trace = superstep(g, collect_trace=True)
        assert trace is not None
        assert trace.num_iterations == len(qs)
        assert trace.queue_sizes == qs
        assert trace.total_edges_added == len(edges)
        assert trace.total_work > 0
        assert all(it.critical_path_ops > 0 for it in trace.iterations)

    def test_no_trace_by_default(self):
        _, _, trace = superstep(path_graph(4))
        assert trace is None

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            superstep(path_graph(3), variant="bogus")

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            superstep(path_graph(3), schedule="bogus")

    def test_disjoint_cliques_parallel_queues(self):
        g = disjoint_cliques(3, 4)
        _, qs, _ = superstep(g)
        # three cliques progress simultaneously: first queue has 3 LPs
        assert qs[0] == 3
        assert len(qs) == 3  # k-1 iterations for K4


class TestThreadedEngine:
    """The thread-team engine (``native``) against the serial pairing."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_sync_equals_serial_exactly(self, zoo_graph, threads):
        serial, s_qs, _ = superstep(zoo_graph, schedule="synchronous")
        threaded = team(zoo_graph, threads, schedule="synchronous")
        assert canon(threaded.edges) == canon(serial)
        assert threaded.queue_sizes == s_qs

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_async_output_valid(self, zoo_graph, threads):
        r = team(zoo_graph, threads, schedule="asynchronous")
        assert is_chordal(edge_subgraph(zoo_graph, r.edges))

    def test_single_thread_async_matches_serial(self, zoo_graph):
        """One thread has no races to lose: its asynchronous live rounds
        are a serial run, so repeated runs agree exactly (edges and queue
        profile) and the output is chordal."""
        first = team(zoo_graph, 1, schedule="asynchronous")
        again = team(zoo_graph, 1, schedule="asynchronous")
        assert np.array_equal(first.edges, again.edges)
        assert first.queue_sizes == again.queue_sizes
        assert is_chordal(edge_subgraph(zoo_graph, first.edges))

    def test_bad_thread_count(self):
        with pytest.raises(ValueError, match="num_threads"):
            team(path_graph(3), 0)

    def test_bad_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            team(path_graph(3), 2, schedule="bogus")

    def test_unoptimized_variant(self):
        g = grid_graph(4, 4)
        r = team(g, 3, variant="unoptimized")
        assert is_chordal(edge_subgraph(g, r.edges))
