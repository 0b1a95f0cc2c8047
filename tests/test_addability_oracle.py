"""The addability oracle (:class:`repro.chordality.maximality.AddabilityOracle`).

Every production "can ``uv`` be added?" question goes through one
oracle: the completion pass, the maximality certificate, the sharded
stitcher, the seam sampler and the distributed baseline's repair mode.
These tests pin it from three sides, on both of its paths — the compiled
loops (``native``, skipped with the resolution detail when the backend
is absent) and the interpreted fallback (forced with ``REPRO_NATIVE=0``):

* **answers** — against :func:`edge_addable` (the plain-Python
  reference) and :func:`addable_edges_slow` (rebuild + recognise), over
  Hypothesis-drawn chordal hosts;
* **greedy results** — :func:`maximalize_chordal_edges` must be
  bit-identical to the per-candidate greedy loop it replaced (kept below
  as :func:`reference_maximalize`), in unweighted and weight-ordered
  candidate order;
* **callers** — the Theorem 2 counterexample, and the stitched edge set
  of a small sharded input against a plain fixpoint reference.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chordality.maximality import (
    AddabilityOracle,
    addable_edges,
    addable_edges_slow,
    edge_addable,
    missing_edges,
)
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.maximalize import maximalize_chordal_edges
from repro.core.native import DISABLE_ENV
from repro.core.native.build import resolve
from repro.errors import GraphFormatError
from repro.graph.bfs import bfs_renumber
from repro.graph.builder import from_edge_array
from repro.graph.generators.chordal import partial_ktree, random_chordal
from repro.graph.generators.classic import path_graph
from repro.graph.generators.rmat import rmat_b, rmat_er
from repro.graph.io import save_graph
from repro.shard import (
    build_plan,
    default_shard_config,
    load_boundary_edges,
    load_shard_result,
    run_shards,
    stitch_shards,
)


@pytest.fixture(params=[pytest.param("native", marks=pytest.mark.native), "fallback"])
def oracle_path(request):
    """Run the test on one oracle path; the backend memo is restored
    after the environment, so later tests see the real resolution."""
    mp = pytest.MonkeyPatch()
    if request.param == "fallback":
        mp.setenv(DISABLE_ENV, "0")
    module = resolve(force=True)[1]
    assert (module is not None) == (request.param == "native")
    yield request.param
    mp.undo()
    resolve(force=True)


def adjacency_sets(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return adj


def reference_maximalize(graph, chordal_edges, weights=None):
    """The completion pass before the oracle: one :func:`edge_addable`
    BFS per candidate, passes until one adds nothing."""
    base = np.asarray(chordal_edges, dtype=np.int64).reshape(-1, 2)
    adj = adjacency_sets(graph.num_vertices, base)
    have = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in base}
    candidates = sorted(graph.edge_set() - have)
    if weights is not None:
        candidates.sort(key=lambda e: (-weights.get(e, 1.0), e))
    added: list[tuple[int, int]] = []
    while True:
        progress = False
        remaining = []
        for u, v in candidates:
            if edge_addable(adj, u, v):
                adj[u].add(v)
                adj[v].add(u)
                added.append((u, v))
                progress = True
            else:
                remaining.append((u, v))
        candidates = remaining
        if not progress or not candidates:
            break
    if not added:
        return base, 0
    return np.vstack((base, np.asarray(added, dtype=np.int64))), len(added)


def reference_stitch(n, shard_edges, boundary):
    """Boundary fixpoint with :func:`edge_addable` and no shortcuts:
    ``(edges, admitted, rejected, rounds)``."""
    adj = adjacency_sets(n, np.vstack(shard_edges))
    alive = [tuple(int(x) for x in row) for row in boundary]
    admitted: list[tuple[int, int]] = []
    rounds = 0
    while alive:
        rounds += 1
        still = []
        for u, v in alive:
            if edge_addable(adj, u, v):
                adj[u].add(v)
                adj[v].add(u)
                admitted.append((u, v))
            else:
                still.append((u, v))
        progress = len(still) < len(alive)
        alive = still
        if not progress:
            break
    admitted_arr = np.asarray(admitted, dtype=np.int64).reshape(-1, 2)
    edges = np.array(
        sorted((min(u, v), max(u, v)) for u, v in np.vstack(shard_edges + [admitted_arr]).tolist()),
        dtype=np.int64,
    ).reshape(-1, 2)
    return edges, admitted_arr, np.asarray(alive, dtype=np.int64).reshape(-1, 2), rounds


@st.composite
def chordal_hosts(draw):
    """``(G, H)``: a chordal ``H`` inside a graph ``G`` it is not maximal in.

    Either ``H`` is a random chordal graph and ``G`` adds random noise
    edges to it, or ``G`` is a noisy partial k-tree and ``H`` its
    Algorithm 1 extraction (chordal, often not maximal).
    """
    n = draw(st.integers(4, 28))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    noise = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2))
    if draw(st.booleans()):
        host = random_chordal(n, draw(st.floats(0.0, 1.0)), seed=seed)
        graph = from_edge_array(n, np.vstack((host.edge_array(), noise)))
        return graph, host
    k = draw(st.integers(1, min(4, n - 1)))
    host = partial_ktree(n, k, draw(st.floats(0.3, 1.0)), seed=seed)
    graph = from_edge_array(n, np.vstack((host.edge_array(), noise)))
    return graph, extract_maximal_chordal_subgraph(graph).subgraph


class TestAnswers:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(chordal_hosts())
    def test_matches_both_references(self, oracle_path, case):
        graph, sub = case
        candidates = np.asarray(missing_edges(graph, sub), dtype=np.int64).reshape(-1, 2)
        hits = AddabilityOracle.of_graph(sub).first_addable(candidates)
        adj = adjacency_sets(sub.num_vertices, sub.edge_array())
        expected = [i for i, (u, v) in enumerate(candidates.tolist()) if edge_addable(adj, u, v)]
        assert hits.tolist() == expected
        found = [tuple(e) for e in candidates[hits].tolist()]
        assert found == addable_edges_slow(graph, sub)
        assert found == addable_edges(graph, sub)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(chordal_hosts())
    def test_greedy_matches_reference_loop(self, oracle_path, case):
        graph, sub = case
        expected, gap = reference_maximalize(graph, sub.edge_array())
        got, got_gap = maximalize_chordal_edges(graph, sub.edge_array())
        assert got_gap == gap
        np.testing.assert_array_equal(got, expected)

    def test_component_cases(self, oracle_path):
        # Path 0-1-2-3 plus an isolated vertex 4.
        oracle = AddabilityOracle.of_graph(from_edge_array(5, path_graph(4).edge_array()))
        cands = np.array([[0, 4], [0, 2], [0, 3], [1, 3]])
        # different components / common neighbour 1 / no common neighbour
        # in one component / common neighbour 2.
        assert oracle.first_addable(cands).tolist() == [0, 1, 3]
        assert oracle.first_addable(cands, limit=2).tolist() == [0, 1]

    def test_greedy_passes_and_admission_order(self, oracle_path):
        # H = path 0-1-2-3.  Offered (0, 3) first: same component, no
        # common neighbour -> rejected.  (0, 2) and (1, 3) triangulate,
        # after which (0, 3) has common neighbours {1, 2} and is addable
        # in pass 2.
        oracle = AddabilityOracle(4, np.full(4, 3))
        oracle.add_edges(path_graph(4).edge_array())
        accepted, passes = oracle.greedy(np.array([[0, 3], [0, 2], [1, 3]]))
        assert accepted.tolist() == [2, 1, 1]
        assert passes == 2

    def test_single_pass_limit(self, oracle_path):
        oracle = AddabilityOracle(4, np.full(4, 3))
        oracle.add_edges(path_graph(4).edge_array())
        accepted, passes = oracle.greedy(np.array([[0, 3], [0, 2], [1, 3]]), max_passes=1)
        assert accepted.tolist() == [0, 1, 1]
        assert passes == 1

    def test_capacity_and_range_are_checked(self, oracle_path):
        with pytest.raises(ValueError, match="non-negative"):
            AddabilityOracle(2, np.array([5, -3]))
        oracle = AddabilityOracle(3, np.array([1, 1, 0]))
        with pytest.raises(ValueError, match="capacity"):
            oracle.add_edges(np.array([[0, 2]]))
        with pytest.raises(GraphFormatError):
            oracle.add_edges(np.array([[0, 3]]))
        with pytest.raises(GraphFormatError):
            oracle.first_addable(np.array([[-1, 0]]))
        oracle.add_edges(np.array([[0, 1]]))
        assert oracle.greedy(np.empty((0, 2), np.int64))[1] == 0


@functools.cache
def rmat_case(family: str, scale: int, seed: int, weighted: bool):
    """``(graph, base, weights, expected, gap)``, the reference computed
    once and shared by both oracle paths."""
    graph = (rmat_er if family == "er" else rmat_b)(scale, seed=seed)
    base = extract_maximal_chordal_subgraph(graph).edges
    weights = None
    if weighted:
        # Few distinct values: the (u, v) tie-break decides often.
        rng = np.random.default_rng(seed)
        weights = {
            (int(u), int(v)): float(w)
            for (u, v), w in zip(graph.edge_array(), rng.integers(0, 4, graph.num_edges))
        }
    expected, gap = reference_maximalize(graph, base, weights)
    return graph, base, weights, expected, gap


class TestMaximalizeBitIdentity:
    """The completion pass against the loop it replaced, on RMAT inputs."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scale", [9, 10])
    @pytest.mark.parametrize("family", ["er", "b"])
    def test_rmat(self, oracle_path, family, scale, seed, weighted):
        graph, base, weights, expected, gap = rmat_case(family, scale, seed, weighted)
        got, got_gap = maximalize_chordal_edges(graph, base, weights=weights)
        assert got_gap == gap > 0
        np.testing.assert_array_equal(got, expected)


class TestCallers:
    def test_theorem2_counterexample(self, oracle_path):
        graph, _ = bfs_renumber(rmat_b(8, seed=42))
        result = extract_maximal_chordal_subgraph(graph)
        found = addable_edges(graph, result.subgraph, limit=3)
        assert found and found == addable_edges_slow(graph, result.subgraph, limit=3)
        fixed, gap = maximalize_chordal_edges(graph, result.edges)
        expected, expected_gap = reference_maximalize(graph, result.edges)
        assert gap == expected_gap > 0
        np.testing.assert_array_equal(fixed, expected)
        assert addable_edges(graph, from_edge_array(graph.num_vertices, fixed)) == []

    def test_stitch_unchanged(self, oracle_path, tmp_path):
        graph = rmat_er(9, seed=4)
        save_graph(graph, tmp_path / "g.mtx")
        plan, _ = build_plan(tmp_path / "g.mtx", 3, tmp_path / "spill")
        run_shards(plan)
        result = stitch_shards(plan)
        cfg = default_shard_config().resolved()
        shard_edges = [load_shard_result(plan, s, cfg)[0] for s in range(plan.num_shards)]
        edges, admitted, rejected, rounds = reference_stitch(
            plan.num_vertices, shard_edges, load_boundary_edges(plan)
        )
        assert result.admitted_boundary > 0 and rejected.size
        np.testing.assert_array_equal(result.edges, edges)
        np.testing.assert_array_equal(result.admitted, admitted)
        np.testing.assert_array_equal(result.rejected, rejected)
        assert result.rounds == rounds
