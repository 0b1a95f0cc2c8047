"""Tests for the unified extraction runtime (driver × state × executor).

The refactor's contract, pinned here:

1. **Determinism pins** — the synchronous schedule produces bit-identical
   edge rows and queue profiles across every state × executor pairing
   and slice count.
2. **Cross-backend trace equivalence** — the work trace is a property of
   the schedule, not of who ran it: the serial executor and the thread
   team produce identical synchronous traces (queue sizes, per-iteration
   services and work items, critical path), and both match the reference
   engine's queue sizes on the deterministic schedules.
3. **Driver validation** — bad knobs and unsupported combinations raise
   :class:`~repro.errors.ConfigError` before any work happens.
4. **The third-party recipe** — ``backend_run_fn`` + ``register_engine``
   is enough to plug a new pairing into the session API.
5. **One Algorithm-1 engine** — ``superstep`` picks its executor by
   schedule, and both schedules are deterministic at every thread count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExtractionConfig
from repro.core.engines import (
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.reference import reference_max_chordal
from repro.core.runtime import (
    LocalState,
    NativeThreadTeamExecutor,
    SerialExecutor,
    backend_run_fn,
    drive,
)
from repro.errors import ConfigError, ConvergenceError
from repro.graph.builder import build_graph
from repro.graph.generators.classic import complete_graph, disjoint_cliques
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er

GENERATORS = {
    "gnp": lambda s: gnp_random_graph(28, 0.18, seed=s),
    "rmat_er": lambda s: rmat_er(7, seed=s),
    "rmat_b": lambda s: rmat_b(7, seed=s),
}
SEEDS = (0, 1, 2)


class TestSyncDeterminismAcrossPairings:
    """Bit-identical synchronous rows for every state × executor pairing
    and slice count."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_all_pairings_bit_identical(self, gen, seed):
        graph = GENERATORS[gen](seed)
        base_edges, base_qs, _ = drive(
            LocalState(graph), SerialExecutor(), schedule="synchronous"
        )

        pairings = []
        for slices in (1, 3):
            pairings.append((LocalState(graph, slices), SerialExecutor()))
        # Thread team: compiled bodies when available, NumPy fallback
        # otherwise — both must reproduce the same rows at any width.
        for threads in (1, 2, 4, 5):
            pairings.append(
                (LocalState(graph, threads), NativeThreadTeamExecutor(threads))
            )

        for state, executor in pairings:
            with executor:
                edges, qs, _ = drive(state, executor, schedule="synchronous")
            label = (executor.num_slices, type(executor).__name__, seed)
            assert np.array_equal(edges, base_edges), label
            assert qs == base_qs, label

    @pytest.mark.parametrize("threads", (1, 3, 6))
    def test_process_team_matches_serial(self, threads):
        graph = GENERATORS["rmat_er"](4)
        base = extract_maximal_chordal_subgraph(graph, schedule="synchronous")
        team = extract_maximal_chordal_subgraph(
            graph, schedule="synchronous", num_threads=threads
        )
        assert np.array_equal(team.edges, base.edges)
        assert team.queue_sizes == base.queue_sizes


class TestCrossBackendTraceEquivalence:
    """The trace is a property of the schedule, not the executor."""

    @pytest.mark.parametrize("variant", ("optimized", "unoptimized"))
    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_threaded_sync_trace_equals_superstep(self, gen, variant):
        graph = GENERATORS[gen](0)
        _, _, serial_trace = drive(
            LocalState(graph),
            SerialExecutor(),
            schedule="synchronous",
            variant=variant,
            collect_trace=True,
        )
        with NativeThreadTeamExecutor(3) as executor:
            _, _, team_trace = drive(
                LocalState(graph, 3),
                executor,
                schedule="synchronous",
                variant=variant,
                collect_trace=True,
            )
        assert serial_trace.queue_sizes == team_trace.queue_sizes
        assert len(serial_trace.iterations) == len(team_trace.iterations)
        for a, b in zip(serial_trace.iterations, team_trace.iterations):
            assert a.services == b.services
            assert a.edges_added == b.edges_added
            assert a.subset_comparisons == b.subset_comparisons
            assert a.advance_ops == b.advance_ops
            assert a.scan_ops == b.scan_ops
            assert a.queue_ops == b.queue_ops
            assert a.critical_path_ops == b.critical_path_ops
            assert np.array_equal(a.work_items, b.work_items)

    @pytest.mark.parametrize("schedule", ("asynchronous", "synchronous"))
    def test_traced_queue_sizes_match_reference(self, schedule):
        """Superstep (serial, both schedules) and reference agree on the
        per-iteration queue profile; the trace repeats it exactly."""
        graph = GENERATORS["rmat_b"](2)
        _, ref_qs = reference_max_chordal(graph, schedule=schedule)
        edges, qs, trace = drive(
            LocalState(graph), SerialExecutor(), schedule=schedule, collect_trace=True
        )
        assert qs == ref_qs
        assert trace.queue_sizes == ref_qs
        assert trace.total_edges_added == edges.shape[0]

    def test_session_trace_for_threaded_engine(self):
        """A session asked for a thread count on the serial engine returns
        the serial pairing's own trace."""
        graph = GENERATORS["gnp"](0)
        r = extract_maximal_chordal_subgraph(
            graph,
            engine="superstep",
            schedule="synchronous",
            num_threads=2,
            collect_trace=True,
        )
        _, _, base = drive(
            LocalState(graph), SerialExecutor(), schedule="synchronous",
            collect_trace=True,
        )
        assert r.trace.queue_sizes == base.queue_sizes
        assert r.trace.total_work == base.total_work


class TestDriverValidation:
    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            drive(LocalState(complete_graph(4)), SerialExecutor(), variant="turbo")

    def test_bad_schedule(self):
        with pytest.raises(ConfigError, match="schedule"):
            drive(LocalState(complete_graph(4)), SerialExecutor(), schedule="warp")

    def test_sweep_refuses_a_multi_slice_executor(self):
        """The asynchronous sweep is serial: its executor must offer
        exactly one slice."""

        class TwoSlices(SerialExecutor):
            num_slices = 2

        with pytest.raises(ConfigError, match="serial"):
            drive(LocalState(complete_graph(5), 2), TwoSlices(), schedule="asynchronous")
        with NativeThreadTeamExecutor(2) as team:
            with pytest.raises(ConfigError, match="serial"):
                drive(LocalState(complete_graph(5), 2), team, schedule="asynchronous")

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError, match="iteration budget"):
            drive(
                LocalState(complete_graph(8)),
                SerialExecutor(),
                schedule="synchronous",
                max_iterations=2,
            )

    def test_trivial_graphs(self):
        for g in (build_graph(0, []), build_graph(5, [])):
            edges, qs, trace = drive(
                LocalState(g), SerialExecutor(), collect_trace=True
            )
            assert edges.shape == (0, 2)
            assert qs == []
            assert trace.num_iterations == 0


class TestThirdPartyBackendRecipe:
    """The README's 'writing a third-party backend' recipe end to end."""

    def test_registered_pairing_runs_through_session(self):
        run_fn = backend_run_fn(
            lambda graph, num_slices, config: LocalState(graph, num_slices),
            lambda config: NativeThreadTeamExecutor(2),
        )
        spec = EngineSpec(
            name="duo",
            run_fn=run_fn,
            description="two-thread pairing (test)",
            deterministic_schedules=("synchronous",),
            supports_trace=True,
        )
        register_engine(spec)
        try:
            graph = GENERATORS["rmat_er"](0)
            base = extract_maximal_chordal_subgraph(graph, schedule="synchronous")
            got = extract_maximal_chordal_subgraph(
                graph, engine="duo", schedule="synchronous"
            )
            assert np.array_equal(got.edges, base.edges)
            traced = extract_maximal_chordal_subgraph(
                graph, engine="duo", schedule="synchronous", collect_trace=True
            )
            assert traced.trace is not None
        finally:
            unregister_engine("duo")


class TestSweepSemantics:
    """Pins of the maximal-progress sweep the serial engines rely on."""

    def test_clique_iteration_law(self):
        for k in (3, 5, 8):
            _, qs, _ = drive(LocalState(complete_graph(k)), SerialExecutor())
            assert len(qs) == k - 1

    def test_disjoint_cliques_progress_in_parallel(self):
        g = disjoint_cliques(3, 4)
        _, qs, _ = drive(LocalState(g), SerialExecutor())
        assert qs[0] == 3
        assert len(qs) == 3


class TestOneEngineContract:
    """``superstep`` is the one registered Algorithm-1 engine: the serial
    sweep for the asynchronous schedule, the thread team's barrier rounds
    for the synchronous one, both deterministic at every thread count."""

    def test_registry_schedules_and_thread_counts(self):
        assert engine_names() == ("superstep", "reference", "weighted")
        with pytest.raises(
            ConfigError, match=r"\('superstep', 'reference', 'weighted'\)"
        ):
            ExtractionConfig(engine="native")
        spec = get_engine("superstep")

        def run(graph, schedule, threads):
            cfg = ExtractionConfig(schedule=schedule, num_threads=threads)
            edges, queue_sizes, _ = spec.run(graph, cfg)
            return edges, queue_sizes

        for gen in sorted(GENERATORS):
            graph = GENERATORS[gen](1)
            # Asynchronous: raw rows in service order and queue sizes.
            a_edges, a_qs = run(graph, "asynchronous", 1)
            b_edges, b_qs = run(graph, "asynchronous", 4)
            assert np.array_equal(a_edges, b_edges), gen
            assert a_qs == b_qs, gen
            # Synchronous: every width reproduces the serial pairing.
            base_edges, base_qs, _ = drive(
                LocalState(graph), SerialExecutor(), schedule="synchronous"
            )
            for threads in (1, 2, 3):
                edges, qs = run(graph, "synchronous", threads)
                assert np.array_equal(edges, base_edges), (gen, threads)
                assert qs == base_qs, (gen, threads)
        assert ExtractionConfig(schedule="asynchronous").deterministic
        assert ExtractionConfig(schedule="synchronous").deterministic
        assert ExtractionConfig().deterministic
