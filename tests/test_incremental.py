"""Property suite for :class:`repro.core.incremental.IncrementalExtractor`.

The contract under test: after *every* applied batch the session's edges
equal a from-scratch maximalizing extraction of the current graph,
``Extractor(ExtractionConfig(maximalize=True)).extract(inc.graph).edges``
(with the session's config when one is given), whatever the edit
history.  Spot checks also run the full certificate
(:func:`~repro.chordality.verify.verify_extraction` with maximality) and
the certified floor
(:func:`~repro.chordality.quality.maximal_chordal_floor`).

**Chordal streams** (:func:`chordal_mutation_stream`) add an oracle that
needs no extractor: the host graph is chordal at every event boundary,
and the only maximal chordal subgraph of a chordal graph is the graph
itself, so the answer must also equal ``G``'s edges.

Replaying a failure
-------------------
Every stream here is seeded; a failing parametrization prints the
``(family, seed, mutation index)`` triple.  To replay outside pytest::

    PYTHONPATH=src python - <<'PY'
    from repro import IncrementalExtractor
    from repro.graph.generators import gnp_random_graph
    from repro.graph.generators.chordal import random_mutation_stream
    g = gnp_random_graph(40, 0.15, seed=7)          # the failing family
    inc = IncrementalExtractor(g)
    for i, (op, u, v) in enumerate(random_mutation_stream(g, 120, seed=5)):
        inc.apply_batch([(op, u, v)])               # stop at the index
    PY

The long streams live behind the ``incremental_stress`` marker
(``--run-incremental-stress``); tier-1 runs the short versions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExtractionConfig, IncrementalExtractor
from repro.chordality.quality import maximal_chordal_floor
from repro.chordality.recognition import is_chordal
from repro.chordality.verify import verify_extraction
from repro.core.session import Extractor
from repro.errors import ConfigError
from repro.graph.builder import build_graph, from_edge_keys
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    chordal_mutation_stream,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    random_chordal,
    rmat_b,
    rmat_er,
)
from repro.graph.generators.chordal import random_mutation_stream
from repro.graph.weights import attach_edge_weights

# ---------------------------------------------------------------------------
# Helpers.

_FRESH = Extractor(ExtractionConfig(maximalize=True))


def _assert_matches_fresh(
    inc: IncrementalExtractor, context: str, fresh: Extractor = _FRESH
) -> None:
    """The session answer is the from-scratch maximalizing extraction."""
    expected = fresh.extract(inc.graph).edges
    assert np.array_equal(inc.edges, expected), f"{context}: differs from a fresh extraction"


def _assert_valid(inc: IncrementalExtractor, context: str) -> None:
    """The full certificate: chordal + maximal + floor met."""
    result = inc.result()
    report = verify_extraction(result.graph, result.edges, check_maximal=True)
    assert report.ok, f"{context}: {report}"
    floor = maximal_chordal_floor(result.graph)
    assert result.edges.shape[0] >= floor, (
        f"{context}: retained {result.edges.shape[0]} < floor {floor}"
    )


def _assert_equals_host(inc: IncrementalExtractor, context: str) -> None:
    """On a chordal graph the answer is the graph itself."""
    assert np.array_equal(inc.edges, inc.graph.edge_array()), f"{context}: H != G"


_FAMILIES = {
    "gnp": lambda: gnp_random_graph(40, 0.15, seed=7),
    "grid": lambda: grid_graph(6, 6),
    "cycle": lambda: cycle_graph(12),
    "rmat_er": lambda: rmat_er(7, seed=1),
    "rmat_b": lambda: rmat_b(7, seed=3),
    "chordal": lambda: random_chordal(40, 0.2, seed=9),
}


# ---------------------------------------------------------------------------
# Every family: the answer equals a fresh extraction after every mutation.


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_property_sweep_verifies_after_every_mutation(family):
    graph = _FAMILIES[family]()
    inc = IncrementalExtractor(graph)
    _assert_matches_fresh(inc, f"{family}: initial")
    _assert_valid(inc, f"{family}: initial")
    stream = random_mutation_stream(graph, 120, seed=5)
    for index, (op, u, v) in enumerate(stream):
        if op == "insert":
            inc.insert_edge(u, v)
        else:
            inc.delete_edge(u, v)
        _assert_matches_fresh(inc, f"family={family} seed=5 mutation#{index} {op} {u} {v}")
    _assert_valid(inc, f"family={family} seed=5 end of stream")


def test_graph_property_tracks_mutations():
    graph = gnp_random_graph(30, 0.2, seed=3)
    inc = IncrementalExtractor(graph)
    assert inc.graph == graph
    before = inc.num_edges
    stream = random_mutation_stream(graph, 40, seed=4)
    counts = inc.apply_batch(stream)
    assert counts["applied"] == 40
    assert counts["inserted"] + counts["deleted"] == 40
    assert inc.num_edges == before + counts["inserted"] - counts["deleted"]
    assert inc.graph.num_edges == inc.num_edges
    mirror = graph.edge_set()
    for op, u, v in stream:
        (mirror.add if op == "insert" else mirror.remove)((min(u, v), max(u, v)))
    assert inc.graph.edge_set() == mirror
    # Retained edges are a subset of the current graph.
    current = {tuple(e) for e in inc.graph.edge_array()}
    assert {tuple(e) for e in inc.edges} <= current
    _assert_matches_fresh(inc, "after one 40-op batch")


def test_one_extraction_per_read_batch():
    graph = gnp_random_graph(30, 0.2, seed=3)
    inc = IncrementalExtractor(graph)
    assert inc.stats["full_rebuilds"] == 0  # opening extracts nothing
    inc.edges
    inc.edges
    assert inc.stats["full_rebuilds"] == 1
    u, v = (int(x) for x in graph.edge_array()[0])
    inc.delete_edge(u, v)  # a delete-only batch reads nothing
    inc.delete_edge(*(int(x) for x in graph.edge_array()[1]))
    assert inc.stats["full_rebuilds"] == 1
    inc.insert_edge(u, v)  # the retained count reads the new answer
    inc.result()
    assert inc.stats["full_rebuilds"] == 2
    assert inc.stats["inserts"] == 1 and inc.stats["deletes"] == 2


def test_determinism_bit_identical_replay():
    graph = gnp_random_graph(40, 0.15, seed=7)
    stream = random_mutation_stream(graph, 200, seed=11)
    runs = []
    for _ in range(2):
        inc = IncrementalExtractor(graph)
        inc.apply_batch(stream)
        runs.append(inc.edges)
    assert np.array_equal(runs[0], runs[1])


def test_session_config_is_the_extraction_config():
    graph = rmat_b(7, seed=5)
    config = ExtractionConfig(schedule="synchronous", variant="unoptimized")
    inc = IncrementalExtractor(graph, config=config)
    fresh = Extractor(config.replace(maximalize=True))
    stream = random_mutation_stream(graph, 60, seed=8)
    for index in range(0, len(stream), 10):
        inc.apply_batch(stream[index : index + 10])
        _assert_matches_fresh(inc, f"synchronous batch at op#{index}", fresh)


# ---------------------------------------------------------------------------
# Chordal streams: the answer is the graph itself.


@pytest.mark.parametrize("seed", [1, 11])
def test_chordal_stream_tracks_host_exactly(seed):
    host, events = chordal_mutation_stream(36, 120, seed=seed)
    assert is_chordal(host)
    inc = IncrementalExtractor(host)
    _assert_equals_host(inc, f"seed={seed} initial")
    for index, event in enumerate(events):
        counts = inc.apply_batch(event)
        assert counts["retained"] == counts["inserted"]
        _assert_equals_host(inc, f"seed={seed} event#{index}")
        assert is_chordal(inc.graph)
    # One extraction per read of a changed graph; empty events change nothing.
    assert inc.stats["full_rebuilds"] == 1 + sum(1 for event in events if event)


@pytest.mark.parametrize("seed", [2, 13])
def test_chordal_stream_checkpoints_match_from_scratch(seed):
    host, events = chordal_mutation_stream(30, 80, seed=seed)
    inc = IncrementalExtractor(host)
    for index, event in enumerate(events):
        inc.apply_batch(event)
        _assert_matches_fresh(inc, f"seed={seed} event#{index}")
        _assert_equals_host(inc, f"seed={seed} event#{index}")


def test_deleting_retained_edge_repairs_chordality():
    # K4: every edge retained; deleting one leaves a chordal graph, so
    # the answer is all five remaining edges.
    graph = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    inc = IncrementalExtractor(graph)
    assert inc.num_chordal_edges == 6
    inc.delete_edge(0, 1)
    _assert_valid(inc, "K4 after delete")
    assert inc.num_chordal_edges == 5


# ---------------------------------------------------------------------------
# The session's CSR, edited in place.


def _assert_csr_is(inc: IncrementalExtractor, keys: set[int], context: str) -> None:
    """The session graph is exactly the builder's graph of ``keys`` once
    an op has applied (until then it is the graph the session opened on)."""
    if not inc.stats["inserts"] + inc.stats["deletes"]:
        assert inc.graph.edge_set() == {divmod(k, inc.num_vertices) for k in keys}
        return
    got = inc.graph
    want = from_edge_keys(inc.num_vertices, np.array(sorted(keys), dtype=np.int64))
    assert got.sorted_adjacency and want.sorted_adjacency, context
    assert got.indptr.dtype == want.indptr.dtype, context
    assert got.indices.dtype == want.indices.dtype, context
    assert np.array_equal(got.indptr, want.indptr), context
    assert np.array_equal(got.indices, want.indices), context
    assert inc.num_edges == len(keys), context


def _apply_to_keys(n: int, keys: set[int], batch) -> None:
    """A batch applied to a key set, stopping at the first bad op."""
    for op, u, v in batch:
        lo, hi = min(u, v), max(u, v)
        if not (0 <= lo and hi < n) or lo == hi:
            return
        key = lo * n + hi
        if (op == "insert") == (key in keys):
            return
        (keys.add if op == "insert" else keys.remove)(key)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_edited_csr_equals_the_builders_after_every_batch(data):
    n = data.draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    start = data.draw(st.lists(pair, max_size=2 * n))
    graph = build_graph(n, start)
    if data.draw(st.booleans()):  # a session may open on 64-bit indices
        graph = CSRGraph(graph.indptr, graph.indices.astype(np.int64), sorted_adjacency=True)
    inc = IncrementalExtractor(graph)
    keys = {min(u, v) * n + max(u, v) for u, v in start if u != v}
    _assert_csr_is(inc, keys, "opened")
    op = st.sampled_from(["insert", "delete"])
    for _ in range(data.draw(st.integers(1, 6))):
        # u may reach n: out of range, so the batch is rejected there.
        batch = data.draw(
            st.lists(
                st.tuples(op, st.integers(0, n), st.integers(0, n - 1)),
                min_size=1,
                max_size=6,
            )
        )
        try:
            inc.apply_batch(batch)
        except ValueError:
            pass  # the ops before the bad one stay applied
        _apply_to_keys(n, keys, batch)
        _assert_csr_is(inc, keys, f"after {batch}")
    _assert_matches_fresh(inc, "end of the edits")


def test_edits_at_the_ends_and_on_isolated_vertices():
    n = 7
    inc = IncrementalExtractor(build_graph(n, [(2, 3), (3, 4)]))  # 0, 1, 5, 6 isolated
    keys = {2 * n + 3, 3 * n + 4}
    batches = [
        [("insert", 0, 6)],  # the first and the last row
        [("insert", 6, 1), ("insert", 0, 5)],
        [("delete", 2, 3), ("delete", 3, 4)],  # 2, 3 and 4 isolated again
        [("insert", 5, 6), ("delete", 0, 6), ("insert", 0, 6)],
        [("insert", 1, 2), ("delete", 4, 5)],  # rejected at op #1
        [("delete", 0, 6), ("delete", 1, 6), ("delete", 0, 5), ("delete", 5, 6)],
        [("insert", 0, 1)],
    ]
    for batch in batches:
        try:
            inc.apply_batch(batch)
        except ValueError:
            pass
        _apply_to_keys(n, keys, batch)
        _assert_csr_is(inc, keys, f"after {batch}")
        _assert_matches_fresh(inc, f"after {batch}")
    assert keys == {n * 0 + 1, 1 * n + 2}


# ---------------------------------------------------------------------------
# Error handling and config validation.


def test_error_cases():
    graph = build_graph(5, [(0, 1), (1, 2), (2, 3)])
    inc = IncrementalExtractor(graph)
    with pytest.raises(ValueError, match="already an edge"):
        inc.insert_edge(0, 1)
    with pytest.raises(ValueError, match="already an edge"):
        inc.insert_edge(1, 0)  # canonicalised first
    with pytest.raises(ValueError, match="not an edge"):
        inc.delete_edge(0, 3)
    with pytest.raises(ValueError, match="self-loop"):
        inc.insert_edge(2, 2)
    with pytest.raises(ValueError, match="out of range"):
        inc.insert_edge(0, 5)
    with pytest.raises(ValueError, match="out of range"):
        inc.delete_edge(-1, 2)
    # Non-integer endpoints are rejected, never truncated or parsed.
    for u, v in ((0, 2.9), ("3", 0), (True, 2), (0, np.float64(2.0))):
        with pytest.raises(ValueError, match="must be integers"):
            inc.insert_edge(u, v)
    with pytest.raises(ValueError, match="must be integers"):
        inc.delete_edge(0.0, 1)
    inc.insert_edge(np.int64(0), np.int32(2))  # NumPy integers are fine
    inc.delete_edge(np.int32(2), np.int64(0))
    # Failed mutations must not corrupt state.
    _assert_valid(inc, "after rejected mutations")
    _assert_matches_fresh(inc, "after rejected mutations")
    assert inc.num_edges == 3


def test_apply_batch_rejects_malformed_rows():
    inc = IncrementalExtractor(build_graph(4, [(0, 1)]))
    with pytest.raises(ValueError, match="mutation #1.*unknown op"):
        inc.apply_batch([("insert", 1, 2), ("upsert", 2, 3)])
    with pytest.raises(ValueError, match=r"mutation #0.*\(op, u, v\)"):
        inc.apply_batch([("insert", 1)])
    # The first (valid) row of the failed batch was applied, and the
    # answer is that graph's.
    assert inc.num_edges == 2
    assert inc.graph.edge_set() == {(0, 1), (1, 2)}
    _assert_matches_fresh(inc, "after a rejected batch")


def test_weighted_graph_rejected():
    graph = attach_edge_weights(build_graph(3, [(0, 1), (1, 2)]), 2.0)
    with pytest.raises(ConfigError, match="without_weights"):
        IncrementalExtractor(graph)
    # The suggested remedy works.
    IncrementalExtractor(graph.without_weights())


def test_maximalize_is_forced_on():
    graph = gnp_random_graph(25, 0.2, seed=1)
    config = ExtractionConfig(maximalize=False)
    inc = IncrementalExtractor(graph, config=config)
    _assert_valid(inc, "maximalize forced on")
    _assert_matches_fresh(inc, "maximalize forced on")


def test_result_matches_extract_chordal_contract():
    graph = gnp_random_graph(25, 0.2, seed=1)
    inc = IncrementalExtractor(graph)
    result = inc.result()
    expected = _FRESH.extract(graph)
    # The extractor's own result: the engine, schedule and kernel path
    # that actually ran.
    assert (result.engine, result.schedule, result.kernel_path) == (
        expected.engine, expected.schedule, expected.kernel_path,
    )
    assert result.engine == ExtractionConfig().resolved().engine
    assert np.array_equal(result.edges, expected.edges)
    assert result.maximality_gap == expected.maximality_gap
    assert result.graph is inc.graph


# ---------------------------------------------------------------------------
# Stress tier: long streams, checked after every event.


@pytest.mark.incremental_stress
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_stress_long_streams(family):
    graph = _FAMILIES[family]()
    inc = IncrementalExtractor(graph)
    stream = random_mutation_stream(graph, 600, seed=23)
    for index, (op, u, v) in enumerate(stream):
        if op == "insert":
            inc.insert_edge(u, v)
        else:
            inc.delete_edge(u, v)
        _assert_matches_fresh(inc, f"stress family={family} seed=23 mutation#{index}")
    _assert_valid(inc, f"stress family={family} seed=23 end of stream")


@pytest.mark.incremental_stress
def test_stress_chordal_stream_long():
    host, events = chordal_mutation_stream(60, 500, seed=29)
    inc = IncrementalExtractor(host)
    for index, event in enumerate(events):
        inc.apply_batch(event)
        _assert_matches_fresh(inc, f"event#{index}")
        _assert_equals_host(inc, f"event#{index}")
