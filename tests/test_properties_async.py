"""Property-based engine × schedule × thread-count verification sweep.

The asynchronous live rounds of the native thread team are *any-valid*:
a run returns some chordal subgraph, not a bit-reproducible one, so these
tests certify every configuration through
:func:`repro.chordality.verify_extraction` instead of bit-identity:

1. the **raw** output of every engine × schedule × thread-count combo is
   a chordal subgraph of the input (Theorem 1, no completion pass);
2. after the completion pass the output is certified **maximal**
   (Theorem 2 as the paper intended it).

Graphs are drawn from seeded generators across every family the paper
touches (R-MAT ER/G/B, Erdős–Rényi, bio co-expression stand-ins, chordal
generators) plus the degenerate shapes that historically break engines
(empty, isolated vertices, a single edge, cliques, stars, cycles).

Every assertion message carries the ``(family, seed, engine, schedule,
threads)`` tuple needed to replay the exact failing case — see
``tests/README.md`` ("Re-running a failing property seed").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chordality.verify import verify_extraction
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.maximalize import maximalize_chordal_edges
from repro.graph.builder import build_graph
from repro.graph.generators.bio import GSE5140_UNT, bio_network
from repro.graph.generators.chordal import ktree, partial_ktree, random_chordal
from repro.graph.generators.classic import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from tests.conftest import live_engine

#: family name -> seeded builder.  Sizes are kept small enough that the
#: maximality certificate (one BFS per rejected edge) stays cheap.
FAMILIES = {
    "rmat_er": lambda s: rmat_er(5, seed=s),
    "rmat_g": lambda s: rmat_g(5, seed=s),
    "rmat_b": lambda s: rmat_b(5, seed=s),
    "gnp": lambda s: gnp_random_graph(16 + s % 17, 0.08 + 0.04 * (s % 5), seed=s),
    "bio": lambda s: bio_network(GSE5140_UNT.scaled(1 / 1024), seed=s),
    "chordal": lambda s: random_chordal(14 + s % 12, 0.25, seed=s),
    "ktree": lambda s: ktree(10 + s % 8, 1 + s % 3, seed=s),
    "partial_ktree": lambda s: partial_ktree(18, 3, 0.6, seed=s),
    # Degenerate shapes: every engine must survive them at every thread
    # count (empty active sets, more threads than vertices, ...).
    "empty": lambda s: build_graph(0, []),
    "isolated": lambda s: build_graph(1 + s % 5, []),
    "single_edge": lambda s: build_graph(2 + s % 3, [(0, 1)]),
    "complete": lambda s: complete_graph(3 + s % 5),
    "star": lambda s: star_graph(4 + s % 4),
    "path": lambda s: path_graph(5 + s % 5),
    "cycle": lambda s: cycle_graph(4 + s % 4),
}

#: Every engine × schedule × thread-count combination under test (0 =
#: a serial engine, which ignores the thread count).  ``threaded`` and
#: ``process`` are retired alias labels kept in the case ids; see
#: ``tests/conftest.py`` (``live_engine``) for the engine each runs.
CONFIGS = [
    ("reference", "synchronous", 0),
    ("reference", "asynchronous", 0),
    ("superstep", "synchronous", 0),
    ("superstep", "asynchronous", 0),
    ("threaded", "synchronous", 3),
    ("threaded", "asynchronous", 3),
    ("native", "synchronous", 1),
    ("native", "synchronous", 3),
    ("native", "asynchronous", 1),
    ("native", "asynchronous", 3),
    ("process", "synchronous", 1),
    ("process", "synchronous", 3),
    ("process", "asynchronous", 1),
    ("process", "asynchronous", 3),
    ("process", "asynchronous", 4),
]

_CONFIG_IDS = [f"{e}-{s[:5]}-w{w}" for e, s, w in CONFIGS]

#: Acceptance-criterion sweep size for the async native engine.
ACCEPTANCE_GRAPHS = 200
_CHUNK = 20


def _run_and_verify(graph, *, family, seed, engine, schedule, threads):
    """Extract, certify raw chordality, then certify completed maximality."""
    tag = (
        f"family={family} seed={seed} engine={engine} "
        f"schedule={schedule} threads={threads}"
    )
    result = extract_maximal_chordal_subgraph(
        graph,
        engine=live_engine(engine),
        schedule=schedule,
        num_threads=threads or 3,
    )
    raw = verify_extraction(graph, result, check_maximal=False)
    assert raw.ok, f"{tag}: raw output invalid: {raw}"
    # Iteration budget (the paper's O(max degree) bound, +2 slack).
    assert result.num_iterations <= graph.max_degree() + 2, tag
    completed, _gap = maximalize_chordal_edges(graph, result.edges)
    report = verify_extraction(graph, completed, check_maximal=True)
    assert report.ok, f"{tag}: completed output not maximal-chordal: {report}"
    return result


@pytest.mark.parametrize("engine,schedule,threads", CONFIGS, ids=_CONFIG_IDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_config_yields_valid_extraction(family, engine, schedule, threads):
    for seed in (0, 1):
        _run_and_verify(
            FAMILIES[family](seed),
            family=family,
            seed=seed,
            engine=engine,
            schedule=schedule,
            threads=threads,
        )


@pytest.mark.parametrize("chunk", range(ACCEPTANCE_GRAPHS // _CHUNK))
def test_acceptance_async_process_200_graphs(chunk):
    """Acceptance criterion: ``engine="native", schedule="asynchronous",
    num_threads=4`` passes ``verify_extraction()`` (chordal + maximal
    after the completion pass) on 200 randomized property-test graphs."""
    names = sorted(FAMILIES)
    for i in range(_CHUNK):
        idx = chunk * _CHUNK + i
        family = names[idx % len(names)]
        seed = 1000 + idx
        _run_and_verify(
            FAMILIES[family](seed),
            family=family,
            seed=seed,
            engine="native",
            schedule="asynchronous",
            threads=4,
        )


def test_async_process_is_not_required_to_match_sync():
    """Document the weaker async contract: live-sweep output *may* differ
    from the synchronous edge set (it does on this input), yet both are
    valid extractions of the same graph."""
    g = rmat_b(7, seed=2)
    sync = extract_maximal_chordal_subgraph(
        g, engine="native", schedule="synchronous", num_threads=4
    )
    seen_diff = False
    for _ in range(5):
        r = extract_maximal_chordal_subgraph(
            g, engine="native", schedule="asynchronous", num_threads=4
        )
        assert verify_extraction(g, r, check_maximal=False).ok
        if not np.array_equal(r.edges, sync.edges):
            seen_diff = True
    # Not asserted: equality would also be a legal outcome.  Record the
    # observation so a future all-equal regression is at least visible.
    if not seen_diff:  # pragma: no cover - legal but unexpected
        pytest.skip("async runs happened to match sync on every repeat")


@pytest.mark.async_stress
@pytest.mark.parametrize("seed", tuple(range(12)))
def test_async_native_wide_seed_sweep(seed):
    """Deeper randomized sweep across thread counts (--run-async-stress)."""
    for family in sorted(FAMILIES):
        for threads in (1, 2, 3, 5):
            _run_and_verify(
                FAMILIES[family](seed),
                family=family,
                seed=seed,
                engine="native",
                schedule="asynchronous",
                threads=threads,
            )
