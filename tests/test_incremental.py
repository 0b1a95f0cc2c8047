"""Property suite for :class:`repro.core.incremental.IncrementalExtractor`.

The invariant under test: after *every* mutation the retained edge set is
a maximal chordal subgraph of the current graph
(:func:`~repro.chordality.verify.verify_extraction` with the maximality
certificate) and meets the certified quality floor
(:func:`~repro.chordality.quality.maximal_chordal_floor`).

Two oracles make the checks exact rather than merely self-consistent:

* **Chordal streams** (:func:`chordal_mutation_stream`): the host graph
  is chordal at every event boundary, and the only maximal chordal
  subgraph of a chordal graph is the graph itself — so ``H == G`` is a
  bit-exact expectation, no reference extractor needed.
* **From-scratch checkpoints**: on chordal streams the unique answer
  also lets us bit-compare against a fresh
  :class:`~repro.core.session.Extractor` run at sampled checkpoints.

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

The long sweeps live behind the ``incremental_stress`` marker
(``--run-incremental-stress``); tier-1 runs the short versions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ExtractionConfig,
    IncrementalExtractor,
    extract_maximal_chordal_subgraph,
)
from repro.chordality.quality import maximal_chordal_floor
from repro.chordality.recognition import is_chordal
from repro.chordality.verify import verify_extraction
from repro.core.session import Extractor
from repro.errors import ConfigError
from repro.graph.builder import build_graph
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


def _assert_valid(inc: IncrementalExtractor, context: str) -> None:
    """The full certificate: chordal + maximal + floor met."""
    result = inc.result()
    report = verify_extraction(result.graph, result.edges, check_maximal=True)
    assert report.ok, f"{context}: {report}"
    floor = maximal_chordal_floor(result.graph)
    assert result.edges.shape[0] >= floor, (
        f"{context}: retained {result.edges.shape[0]} < floor {floor}"
    )


_FAMILIES = {
    "gnp": lambda: gnp_random_graph(40, 0.15, seed=7),
    "grid": lambda: grid_graph(6, 6),
    "cycle": lambda: cycle_graph(12),
    "rmat_er": lambda: rmat_er(7, seed=1),
    "rmat_b": lambda: rmat_b(7, seed=3),
    "chordal": lambda: random_chordal(40, 0.2, seed=9),
}


# ---------------------------------------------------------------------------
# Property sweep: every family, verify after every mutation.


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_property_sweep_verifies_after_every_mutation(family):
    graph = _FAMILIES[family]()
    inc = IncrementalExtractor(graph)
    _assert_valid(inc, f"{family}: initial")
    stream = random_mutation_stream(graph, 120, seed=5)
    for index, (op, u, v) in enumerate(stream):
        if op == "insert":
            inc.insert_edge(u, v)
        else:
            inc.delete_edge(u, v)
        _assert_valid(inc, f"family={family} seed=5 mutation#{index} {op} {u} {v}")


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
    # Retained edges are a subset of the current graph.
    current = {tuple(e) for e in inc.graph.edge_array()}
    assert {tuple(e) for e in inc.edges} <= current


def test_determinism_bit_identical_replay():
    graph = gnp_random_graph(40, 0.15, seed=7)
    stream = random_mutation_stream(graph, 200, seed=11)
    runs = []
    for _ in range(2):
        inc = IncrementalExtractor(graph)
        inc.apply_batch(stream)
        runs.append(inc.edges)
    assert np.array_equal(runs[0], runs[1])


# ---------------------------------------------------------------------------
# Chordal-stream oracle: unique answer, bit-exact.


@pytest.mark.parametrize("seed", [1, 11])
def test_chordal_stream_tracks_host_exactly(seed):
    host, events = chordal_mutation_stream(36, 120, seed=seed)
    assert is_chordal(host)
    inc = IncrementalExtractor(host)
    assert inc.num_chordal_edges == inc.num_edges
    for index, event in enumerate(events):
        inc.apply_batch(event)
        # The host stays chordal at event boundaries; the only maximal
        # chordal subgraph of a chordal graph is itself.
        assert inc.num_chordal_edges == inc.num_edges, (
            f"seed={seed} event#{index}: H != G on a chordal stream"
        )
        assert is_chordal(inc.graph)
    assert inc.stats["rejected_inserts"] == 0
    assert inc.stats["full_rebuilds"] == 0


@pytest.mark.parametrize("seed", [2, 13])
def test_chordal_stream_checkpoints_match_from_scratch(seed):
    host, events = chordal_mutation_stream(30, 80, seed=seed)
    inc = IncrementalExtractor(host)
    config = ExtractionConfig(maximalize=True)
    with Extractor(config) as fresh:
        for index, event in enumerate(events):
            inc.apply_batch(event)
            if index % 20 != 19:
                continue
            expected = fresh.extract(inc.graph).edges
            assert np.array_equal(inc.edges, expected), (
                f"seed={seed} checkpoint after event#{index}"
            )


# ---------------------------------------------------------------------------
# Repair path and the full-rebuild escape hatch.


def test_deleting_retained_edge_repairs_chordality():
    # K4 minus nothing: every edge retained; deleting one must keep H
    # chordal and maximal in the smaller graph.
    graph = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    inc = IncrementalExtractor(graph)
    assert inc.num_chordal_edges == 6
    inc.delete_edge(0, 1)
    _assert_valid(inc, "K4 after delete")
    assert inc.num_chordal_edges == 5


def test_full_rebuild_threshold_zero_forces_rebuild():
    graph = gnp_random_graph(30, 0.25, seed=19)
    inc = IncrementalExtractor(graph, full_rebuild_threshold=0)
    # Delete retained edges until a repair would evict something.
    for u, v in [tuple(e) for e in inc.edges]:
        inc.delete_edge(int(u), int(v))
        _assert_valid(inc, f"threshold=0 delete ({u},{v})")
        if inc.stats["full_rebuilds"]:
            break
    assert inc.stats["full_rebuilds"] >= 1


def test_threshold_none_never_rebuilds():
    graph = gnp_random_graph(30, 0.25, seed=19)
    inc = IncrementalExtractor(graph, full_rebuild_threshold=None)
    inc.apply_batch(random_mutation_stream(graph, 80, seed=2))
    assert inc.stats["full_rebuilds"] == 0
    _assert_valid(inc, "threshold=None sweep")


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
    assert inc.num_edges == 3


def test_apply_batch_rejects_malformed_rows():
    inc = IncrementalExtractor(build_graph(4, [(0, 1)]))
    with pytest.raises(ValueError, match="mutation #1.*unknown op"):
        inc.apply_batch([("insert", 1, 2), ("upsert", 2, 3)])
    with pytest.raises(ValueError, match=r"mutation #0.*\(op, u, v\)"):
        inc.apply_batch([("insert", 1)])
    # The first (valid) row of the failed batch was applied.
    assert inc.num_edges == 2


def test_weighted_graph_rejected():
    graph = attach_edge_weights(build_graph(3, [(0, 1), (1, 2)]), 2.0)
    with pytest.raises(ConfigError, match="without_weights"):
        IncrementalExtractor(graph)
    # The suggested remedy works.
    IncrementalExtractor(graph.without_weights())


def test_bad_threshold_rejected():
    graph = build_graph(3, [(0, 1)])
    with pytest.raises(ConfigError, match="full_rebuild_threshold"):
        IncrementalExtractor(graph, full_rebuild_threshold=-1)


def test_maximalize_is_forced_on():
    graph = gnp_random_graph(25, 0.2, seed=1)
    config = ExtractionConfig(maximalize=False)
    inc = IncrementalExtractor(graph, config=config)
    _assert_valid(inc, "maximalize forced on")


def test_result_matches_extract_chordal_contract():
    graph = gnp_random_graph(25, 0.2, seed=1)
    inc = IncrementalExtractor(graph)
    result = inc.result()
    assert result.engine == "incremental"
    assert result.schedule == "incremental"
    # Same certified floor contract as the one-shot API.
    baseline = extract_maximal_chordal_subgraph(graph, maximalize=True)
    floor = maximal_chordal_floor(graph)
    assert result.edges.shape[0] >= floor
    assert baseline.edges.shape[0] >= floor


# ---------------------------------------------------------------------------
# Stress tier: long streams, verified after every event.


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
        _assert_valid(inc, f"stress family={family} seed=23 mutation#{index}")


@pytest.mark.incremental_stress
def test_stress_chordal_stream_long():
    host, events = chordal_mutation_stream(60, 500, seed=29)
    inc = IncrementalExtractor(host)
    for index, event in enumerate(events):
        inc.apply_batch(event)
        assert inc.num_chordal_edges == inc.num_edges, f"event#{index}"
    assert inc.stats["rejected_inserts"] == 0
