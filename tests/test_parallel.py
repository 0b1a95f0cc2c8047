"""Tests for the thread runtime, partitioners, and atomics."""

import threading

import numpy as np
import pytest

from repro.parallel.atomics import AtomicCounter, AtomicMax
from repro.parallel.partition import (
    balanced_chunks,
    block_ranges,
    cyclic_indices,
    degree_balanced_cuts,
    lpt_assign,
)
from repro.parallel.runtime import ThreadTeam, parallel_for


class TestThreadTeam:
    def test_runs_all_workers(self):
        seen = [False] * 4
        with ThreadTeam(4) as team:
            team.run(lambda tid: seen.__setitem__(tid, True))
        assert all(seen)

    def test_multiple_supersteps(self):
        counter = AtomicCounter()
        with ThreadTeam(3) as team:
            for _ in range(5):
                team.run(lambda tid: counter.fetch_add(1))
        assert counter.value == 15

    def test_worker_exception_propagates(self):
        def boom(tid):
            if tid == 1:
                raise RuntimeError("worker failed")

        with ThreadTeam(2) as team:
            with pytest.raises(RuntimeError, match="worker failed"):
                team.run(boom)
            # team still usable after an error
            team.run(lambda tid: None)

    def test_close_idempotent(self):
        team = ThreadTeam(2)
        team.close()
        team.close()
        with pytest.raises(RuntimeError):
            team.run(lambda tid: None)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadTeam(0)

    def test_parallel_for_covers_items(self):
        items = list(range(23))
        hit = [0] * 23
        with ThreadTeam(4) as team:
            parallel_for(team, items, lambda i, item: hit.__setitem__(i, item + 1))
        assert hit == [i + 1 for i in range(23)]


class TestBlockRanges:
    def test_exact_division(self):
        assert block_ranges(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_spread(self):
        ranges = block_ranges(10, 3)
        sizes = [b - a for a, b in ranges]
        assert sorted(sizes) == [3, 3, 4]
        assert ranges[-1][1] == 10

    def test_more_parts_than_items(self):
        ranges = block_ranges(2, 5)
        sizes = [b - a for a, b in ranges]
        assert sum(sizes) == 2
        assert all(s in (0, 1) for s in sizes)

    def test_zero_items(self):
        assert block_ranges(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            block_ranges(5, 0)
        with pytest.raises(ValueError):
            block_ranges(-1, 2)


class TestBalancedChunks:
    def test_covers_everything_contiguously(self):
        w = np.array([5, 1, 1, 1, 5, 1, 1, 1], dtype=float)
        chunks = balanced_chunks(w, 3)
        assert chunks[0][0] == 0 and chunks[-1][1] == 8
        for (a1, b1), (a2, b2) in zip(chunks, chunks[1:]):
            assert b1 == a2

    def test_balances_weights(self):
        w = np.ones(100)
        chunks = balanced_chunks(w, 4)
        sizes = [b - a for a, b in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_heavy_head(self):
        w = np.array([100, 1, 1, 1], dtype=float)
        chunks = balanced_chunks(w, 2)
        assert chunks[0] == (0, 1)

    def test_zero_weights_fall_back(self):
        chunks = balanced_chunks(np.zeros(6), 2)
        assert chunks == [(0, 3), (3, 6)]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            balanced_chunks(np.array([-1.0, 2.0]), 2)

    def test_empty(self):
        assert balanced_chunks(np.empty(0), 3) == [(0, 0)] * 3


class TestDegreeBalancedCuts:
    def test_shape_and_cover(self):
        cuts = degree_balanced_cuts(np.ones(10), 3)
        assert cuts.dtype == np.int64
        assert cuts[0] == 0 and cuts[-1] == 10
        assert np.all(np.diff(cuts) >= 0)

    def test_uniform_degrees_match_block_ranges(self):
        cuts = degree_balanced_cuts(np.full(12, 5.0), 4)
        blocks = block_ranges(12, 4)
        assert [(int(cuts[p]), int(cuts[p + 1])) for p in range(4)] == blocks

    def test_power_law_beats_block_ranges(self):
        """On a hub-heavy degree sequence the vertex-count split piles
        most of the degree mass into the first part; the degree-balanced
        cuts keep every part near 1/n_parts of the mass."""
        from repro.graph.generators.rmat import rmat_b

        graph = rmat_b(9, seed=3)
        degrees = graph.degrees().astype(np.float64)
        total = degrees.sum()
        n_parts = 4

        def part_masses(ranges):
            return [degrees[a:b].sum() for a, b in ranges]

        block_masses = part_masses(block_ranges(graph.num_vertices, n_parts))
        cuts = degree_balanced_cuts(degrees, n_parts)
        cut_masses = part_masses([(cuts[p], cuts[p + 1]) for p in range(n_parts)])
        assert max(block_masses) / total > 0.4, (
            "expected RMAT-B hub skew to make the block split lopsided "
            f"(masses {block_masses}); the premise of this test is gone"
        )
        assert max(cut_masses) / total < max(block_masses) / total
        # Every part within 2x of the ideal share (one giant hub vertex
        # is the only way to exceed this, and RMAT-B at scale 9 has none).
        assert max(cut_masses) <= 2.0 * total / n_parts

    def test_ownership_lookup_via_searchsorted(self):
        degrees = np.array([9.0, 1.0, 1.0, 1.0, 9.0, 1.0])
        cuts = degree_balanced_cuts(degrees, 2)
        owner = np.searchsorted(cuts, np.arange(6), side="right") - 1
        for p in range(2):
            members = np.flatnonzero(owner == p)
            assert np.array_equal(members, np.arange(cuts[p], cuts[p + 1]))

    def test_zero_degrees_fall_back_to_blocks(self):
        cuts = degree_balanced_cuts(np.zeros(7), 3)
        blocks = block_ranges(7, 3)
        assert [(int(cuts[p]), int(cuts[p + 1])) for p in range(3)] == blocks

    def test_isolated_tail_vertices_are_covered(self):
        degrees = np.array([4.0, 4.0, 0.0, 0.0, 0.0])
        cuts = degree_balanced_cuts(degrees, 2)
        assert cuts[-1] == 5  # isolated tail still owned by the last part

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            degree_balanced_cuts(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            degree_balanced_cuts(np.ones(4), 0)
        with pytest.raises(ValueError):
            degree_balanced_cuts(np.array([1.0, -1.0]), 2)


class TestCyclicAndLpt:
    def test_cyclic_partition_disjoint_cover(self):
        parts = [set(cyclic_indices(10, p, 3).tolist()) for p in range(3)]
        union = set().union(*parts)
        assert union == set(range(10))
        assert sum(len(p) for p in parts) == 10

    def test_cyclic_bad_part(self):
        with pytest.raises(ValueError):
            cyclic_indices(10, 3, 3)

    def test_lpt_balances(self):
        costs = np.array([7.0, 5.0, 4.0, 3.0, 2.0, 2.0])
        loads, assignment = lpt_assign(costs, 2)
        assert loads.sum() == costs.sum()
        assert max(loads) <= 13  # LPT optimum here is 12; 4/3 bound allows 16

    def test_lpt_assignment_consistent(self):
        costs = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        loads, assignment = lpt_assign(costs, 3)
        for p in range(3):
            assert loads[p] == pytest.approx(costs[assignment == p].sum())

    def test_lpt_empty(self):
        loads, assignment = lpt_assign(np.empty(0), 4)
        assert loads.tolist() == [0, 0, 0, 0]

    def test_lpt_invalid_parts(self):
        with pytest.raises(ValueError):
            lpt_assign(np.array([1.0]), 0)


class TestAtomics:
    def test_counter_fetch_add(self):
        c = AtomicCounter(10)
        assert c.fetch_add(5) == 10
        assert c.value == 15

    def test_counter_threaded_consistency(self):
        c = AtomicCounter()
        threads = [
            threading.Thread(target=lambda: [c.fetch_add(1) for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000

    def test_atomic_max(self):
        m = AtomicMax()
        m.update(3.0)
        m.update(1.0)
        assert m.value == 3.0
        assert m.update(7.0) == 7.0
