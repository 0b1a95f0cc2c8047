"""Unit tests for the bulk NumPy kernels (repro.core.kernels).

Each kernel is checked against a straightforward per-vertex reference on
random inputs; the synchronous rounds they make up are cross-checked
against the historical Python pair loop elsewhere
(tests/test_engine_equivalence.py).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import (
    advance_parents,
    append_accepted,
    arena_offsets,
    build_arena_keys,
    initial_parents,
    lower_counts,
    subset_mask,
)
from repro.core.runtime import LocalState, SerialExecutor, drive
from repro.graph.generators.classic import complete_graph
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b


class TestLowerCounts:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_vertex_count(self, seed):
        g = gnp_random_graph(40, 0.2, seed=seed)
        lower = lower_counts(g.indptr, g.indices)
        for v in range(g.num_vertices):
            assert lower[v] == int(np.count_nonzero(g.neighbors(v) < v))

    def test_unsorted_adjacency(self):
        g = rmat_b(6, seed=1).shuffled(np.random.default_rng(0))
        assert np.array_equal(
            lower_counts(g.indptr, g.indices),
            lower_counts(
                g.with_sorted_adjacency().indptr, g.with_sorted_adjacency().indices
            ),
        )

    def test_empty(self):
        from repro.graph.builder import build_graph

        g = build_graph(3, [])
        assert np.array_equal(lower_counts(g.indptr, g.indices), np.zeros(3))


class TestInitialParents:
    @pytest.mark.parametrize("seed", range(4))
    def test_smallest_lower_neighbor(self, seed):
        g = gnp_random_graph(30, 0.25, seed=seed)
        lower = lower_counts(g.indptr, g.indices)
        lp = initial_parents(g.indptr, g.indices, lower)
        for w in range(g.num_vertices):
            below = g.neighbors(w)[g.neighbors(w) < w]
            assert lp[w] == (int(below.min()) if below.size else -1)


class TestArenaKeys:
    def _random_arena(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        lower = rng.integers(0, 5, size=n)
        offsets = arena_offsets(lower)
        arena = np.full(int(offsets[-1]), -1, dtype=np.int64)
        counts = np.array([rng.integers(0, c + 1) for c in lower], dtype=np.int64)
        for v in range(n):
            fill = np.sort(rng.choice(n, size=int(counts[v]), replace=False))
            arena[offsets[v] : offsets[v] + counts[v]] = fill
        return n, offsets, arena, counts

    @pytest.mark.parametrize("seed", range(5))
    def test_keys_sorted_and_complete(self, seed):
        n, offsets, arena, counts = self._random_arena(seed)
        keys = build_arena_keys(arena, offsets, counts, n)
        assert keys.size == counts.sum()
        assert bool(np.all(np.diff(keys) > 0))  # strictly increasing
        expected = [
            v * n + int(e)
            for v in range(n)
            for e in arena[offsets[v] : offsets[v] + counts[v]]
        ]
        assert keys.tolist() == expected

    def test_out_buffer_prefix(self):
        n, offsets, arena, counts = self._random_arena(0)
        scratch = np.full(int(offsets[-1]), 123, dtype=np.int64)
        keys = build_arena_keys(arena, offsets, counts, n, out=scratch)
        assert keys.base is scratch
        assert np.array_equal(keys, build_arena_keys(arena, offsets, counts, n))

    def test_empty_counts(self):
        n, offsets, arena, counts = self._random_arena(1)
        counts[:] = 0
        assert build_arena_keys(arena, offsets, counts, n).size == 0


class TestSubsetMask:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_semantics(self, seed):
        rng = np.random.default_rng(seed)
        n = 14
        lower = rng.integers(0, 6, size=n)
        offsets = arena_offsets(lower)
        arena = np.full(int(offsets[-1]), -1, dtype=np.int64)
        counts = np.array([rng.integers(0, c + 1) for c in lower], dtype=np.int64)
        sets = []
        for v in range(n):
            fill = np.sort(rng.choice(n, size=int(counts[v]), replace=False))
            arena[offsets[v] : offsets[v] + counts[v]] = fill
            sets.append(set(fill.tolist()))
        pairs = rng.integers(0, n, size=(20, 2))
        ws, vs = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
        keys = build_arena_keys(arena, offsets, counts, n)
        ok = subset_mask(keys, arena, offsets, counts, ws, vs, n)
        for i in range(ws.size):
            assert bool(ok[i]) == (sets[ws[i]] <= sets[vs[i]]), (ws[i], vs[i])

    def test_empty_queries(self):
        counts = np.zeros(3, dtype=np.int64)
        offsets = arena_offsets(counts)
        arena = np.empty(0, dtype=np.int64)
        keys = build_arena_keys(arena, offsets, counts, 3)
        ws = vs = np.empty(0, dtype=np.int64)
        assert subset_mask(keys, arena, offsets, counts, ws, vs, 3).size == 0


class TestAppendAdvance:
    def test_append_keeps_runs_sorted(self):
        lower = np.array([0, 1, 2, 3], dtype=np.int64)
        offsets = arena_offsets(lower)
        arena = np.full(int(offsets[-1]), -1, dtype=np.int64)
        counts = np.zeros(4, dtype=np.int64)
        ws = np.array([1, 2, 3], dtype=np.int64)
        vs = np.array([0, 0, 0], dtype=np.int64)
        ok = np.array([True, False, True])
        v_ok, w_ok = append_accepted(arena, offsets, counts, ws, vs, ok)
        assert w_ok.tolist() == [1, 3] and v_ok.tolist() == [0, 0]
        assert counts.tolist() == [0, 1, 0, 1]
        ok2 = np.array([False, True, True])
        append_accepted(arena, offsets, counts, ws, np.array([0, 1, 2]), ok2)
        assert arena[offsets[3] : offsets[3] + 2].tolist() == [0, 2]  # sorted

    def test_advance_walks_sorted_parents(self):
        g = complete_graph(4).with_sorted_adjacency()
        lower = lower_counts(g.indptr, g.indices)
        cursor = np.zeros(4, dtype=np.int64)
        lp = initial_parents(g.indptr, g.indices, lower)
        assert lp.tolist() == [-1, 0, 0, 0]
        ws = np.array([1, 2, 3], dtype=np.int64)
        advance_parents(g.indptr, g.indices, lower, cursor, lp, ws)
        assert lp.tolist() == [-1, -1, 1, 1]
        advance_parents(g.indptr, g.indices, lower, cursor, lp, ws[1:])
        assert lp.tolist() == [-1, -1, -1, 2]


class TestVectorizedEngine:
    """The kernels as the runtime drives them: synchronous rounds on the
    serial executor."""

    def test_unsorted_input(self):
        g = rmat_b(6, seed=2)
        shuffled = g.shuffled(np.random.default_rng(3))
        a, qa, _ = drive(LocalState(g), SerialExecutor(), schedule="synchronous")
        b, qb, _ = drive(LocalState(shuffled), SerialExecutor(), schedule="synchronous")
        assert np.array_equal(a, b) and qa == qb
