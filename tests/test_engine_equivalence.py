"""Cross-engine equivalence harness (property-style seed sweep).

The synchronous schedule is the repo's determinism contract: every
Algorithm-1 engine (``superstep``, ``reference``) × both variants must
produce the *identical canonical edge set* on every input, at every
thread count of the ``superstep`` team (one driver serves every
executor, so this also pins the driver against each of them).  For the
asynchronous schedule every run must yield a chordal subgraph whose
maximality gap the completion pass can close; the property sweep over
every engine × schedule × thread count lives in
``tests/test_properties_async.py``.

A small seed sweep runs in tier-1; the wide sweep is marked ``slow``
(``--run-slow``).  See ``tests/README.md``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chordality.maximality import addable_edges
from repro.chordality.recognition import is_chordal
from repro.core.config import ExtractionConfig
from repro.core.engines import engine_names, get_engine
from repro.core.extract import VARIANTS, extract_maximal_chordal_subgraph
from repro.core.runtime import (
    LocalState,
    NativeThreadTeamExecutor,
    SerialExecutor,
    drive,
)
from repro.core.session import Extractor
from repro.errors import SessionClosedError
from repro.graph.generators.chordal import partial_ktree, random_chordal
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from tests.conftest import live_engine

#: name -> seeded generator; diverse shapes, small enough for a full sweep.
GENERATORS = {
    "gnp": lambda s: gnp_random_graph(28, 0.18, seed=s),
    "rmat_er": lambda s: rmat_er(7, seed=s),
    "rmat_g": lambda s: rmat_g(7, seed=s),
    "rmat_b": lambda s: rmat_b(7, seed=s),
    "chordal": lambda s: random_chordal(24, 0.3, seed=s),
    "partial_ktree": lambda s: partial_ktree(24, 3, 0.7, seed=s),
}

TIER1_SEEDS = (0, 1, 2)
WIDE_SEEDS = tuple(range(3, 15))

#: Case labels of the async sweep; ``threaded``/``process`` are retired
#: alias labels (see ``tests/conftest.py``: ``live_engine``).
ASYNC_ENGINES = ("superstep", "threaded", "reference", "process")

#: Thread counts the synchronous determinism pin sweeps (1 = degenerate
#: team, 3 = uneven slices, 6 = more threads than some actives).
SYNC_THREAD_COUNTS = (1, 3, 6)


def _assert_sync_engines_identical(maker, seed: int) -> None:
    """All Algorithm-1 engines agree bit-for-bit under the synchronous
    schedule.  Engines implementing a *different* algorithm (the
    ``weighted`` MAXCHORD engine, ``EngineSpec.algorithm != "algorithm1"``)
    legitimately return different maximal chordal subgraphs and are
    excluded by the registry's algorithm tag."""
    graph = maker(seed)
    baseline = extract_maximal_chordal_subgraph(
        graph, engine="superstep", schedule="synchronous"
    ).edges
    for engine in engine_names():
        if getattr(get_engine(engine), "algorithm", "algorithm1") != "algorithm1":
            continue
        for variant in VARIANTS:
            result = extract_maximal_chordal_subgraph(
                graph,
                engine=engine,
                variant=variant,
                schedule="synchronous",
                num_threads=3,
            )
            assert np.array_equal(result.edges, baseline), (
                engine,
                variant,
                seed,
            )


def _assert_async_run_valid(maker, seed: int, engine: str, variant: str) -> None:
    graph = maker(seed)
    result = extract_maximal_chordal_subgraph(
        graph,
        engine=live_engine(engine),
        variant=variant,
        schedule="asynchronous",
        num_threads=3,
        maximalize=True,
    )
    # Chordal, certified maximal after the completion pass, and the gap the
    # pass had to close is bounded (a blown bound means the engine is
    # discarding far more than the benign snapshot race can explain).
    assert is_chordal(result.subgraph), (engine, variant, seed)
    assert addable_edges(graph, result.subgraph, limit=1) == []
    assert result.maximality_gap <= max(4, result.num_chordal_edges // 2), (
        engine,
        variant,
        seed,
        result.maximality_gap,
    )
    # Queue budget: the run fitted the paper's max_degree + 2 iteration bound.
    assert result.num_iterations <= graph.max_degree() + 2


@pytest.mark.parametrize("seed", TIER1_SEEDS)
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_sync_all_engines_identical(gen, seed):
    _assert_sync_engines_identical(GENERATORS[gen], seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_sync_all_engines_identical_wide(gen, seed):
    _assert_sync_engines_identical(GENERATORS[gen], seed)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
@pytest.mark.parametrize("engine", ASYNC_ENGINES)
def test_async_runs_chordal_and_gap_bounded(engine, seed):
    for gen in ("gnp", "rmat_b"):
        for variant in VARIANTS:
            _assert_async_run_valid(GENERATORS[gen], seed, engine, variant)


@pytest.mark.slow
@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("engine", ASYNC_ENGINES)
def test_async_runs_chordal_and_gap_bounded_wide(engine, seed):
    for gen in sorted(GENERATORS):
        for variant in VARIANTS:
            _assert_async_run_valid(GENERATORS[gen], seed, engine, variant)


def _sync(graph, engine: str = "superstep", **kwargs):
    return extract_maximal_chordal_subgraph(
        graph, engine=engine, schedule="synchronous", **kwargs
    )


class TestKernelLoopAgreement:
    """The compiled round bodies (the thread team's kernels; the NumPy
    bodies again when the backend does not resolve) and the serial
    pairing's NumPy bodies agree exactly under the synchronous schedule:
    raw rows in emission order and queue sizes."""

    @pytest.mark.parametrize("seed", TIER1_SEEDS)
    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_rows_and_queues_identical(self, gen, seed):
        graph = GENERATORS[gen](seed)
        loop_edges, loop_qs, _ = drive(
            LocalState(graph), SerialExecutor(), schedule="synchronous"
        )
        with NativeThreadTeamExecutor(1) as executor:
            vec_edges, vec_qs, _ = drive(
                LocalState(graph), executor, schedule="synchronous"
            )
        assert loop_qs == vec_qs
        assert np.array_equal(loop_edges, vec_edges)

    def test_kernels_refuse_trace(self):
        """An engine without the trace capability refuses a trace request
        up front (the ``superstep`` team's rounds trace like any other)."""
        with pytest.raises(ValueError, match="collect_trace"):
            extract_maximal_chordal_subgraph(
                gnp_random_graph(10, 0.3, seed=0),
                engine="reference",
                schedule="synchronous",
                collect_trace=True,
            )


class TestSyncDeterminismPins:
    """The synchronous schedule is the determinism contract: bit-identical
    edge sets AND queue profiles across every engine and every thread
    count."""

    @pytest.mark.parametrize("gen", ("gnp", "rmat_b"))
    def test_process_sync_identical_for_every_worker_count(self, gen):
        for seed in TIER1_SEEDS[:2]:
            graph = GENERATORS[gen](seed)
            serial = _sync(graph)
            for threads in SYNC_THREAD_COUNTS:
                team = _sync(graph, num_threads=threads)
                assert np.array_equal(team.edges, serial.edges), (gen, seed, threads)
                assert team.queue_sizes == serial.queue_sizes, (gen, seed, threads)

    def test_sync_unchanged_after_async_runs_on_same_pool(self):
        """Asynchronous runs of the same engine leave no residue that
        shifts a later sync run."""
        graph = GENERATORS["rmat_er"](4)
        serial = _sync(graph)
        before = _sync(graph, num_threads=3)
        for _ in range(3):
            extract_maximal_chordal_subgraph(
                graph, schedule="asynchronous", num_threads=3
            )
        after = _sync(graph, num_threads=3)
        for team in (before, after):
            assert np.array_equal(team.edges, serial.edges)
            assert team.queue_sizes == serial.queue_sizes

    def test_threaded_sync_identical_for_every_thread_count(self):
        graph = GENERATORS["gnp"](1)
        baseline = _sync(graph).edges
        for threads in (1, 2, 4, 5, 8):
            result = _sync(graph, num_threads=threads)
            assert np.array_equal(result.edges, baseline), threads


class TestProcessEngineContract:
    def test_async_schedule_supported(self):
        """A thread count does not stop the asynchronous schedule (the
        sweep is serial; validity is certified by
        tests/test_properties_async.py; here just the plumbing)."""
        g = gnp_random_graph(10, 0.3, seed=0)
        r = extract_maximal_chordal_subgraph(
            g, schedule="asynchronous", num_threads=2
        )
        assert r.edges.shape[1] == 2
        assert r.num_iterations >= 1

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            ExtractionConfig(schedule="bogus")

    def test_bad_worker_count(self):
        with pytest.raises(ValueError, match="num_threads"):
            _sync(gnp_random_graph(5, 0.5, seed=0), num_threads=0)

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            _sync(gnp_random_graph(5, 0.5, seed=0), variant="turbo")

    def test_more_workers_than_vertices(self):
        g = gnp_random_graph(6, 0.6, seed=1)
        serial = _sync(g)
        team = _sync(g, num_threads=8)
        assert np.array_equal(team.edges, serial.edges)
        assert team.queue_sizes == serial.queue_sizes

    def test_pool_reuse_is_deterministic(self):
        g = rmat_er(7, seed=5)
        with Extractor(schedule="synchronous", num_threads=2) as ex:
            first = ex.extract(g)
            second = ex.extract(g)
        assert np.array_equal(first.edges, second.edges)
        assert first.queue_sizes == second.queue_sizes

    def test_closed_pool_rejected(self):
        ex = Extractor(schedule="synchronous", num_threads=2)
        ex.close()
        with pytest.raises(SessionClosedError, match="closed"):
            ex.extract(rmat_er(7, seed=5))

    def test_trivial_graphs(self):
        from repro.graph.builder import build_graph

        for g in (build_graph(0, []), build_graph(7, [])):
            r = _sync(g, num_threads=2)
            assert r.edges.shape == (0, 2)
            assert r.queue_sizes == []

    def test_iteration_budget_enforced(self):
        from repro.errors import ConvergenceError
        from repro.graph.generators.classic import complete_graph

        g = complete_graph(8)
        with pytest.raises(ConvergenceError):
            _sync(g, num_threads=2, max_iterations=2)
