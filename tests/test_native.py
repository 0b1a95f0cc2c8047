"""Tests for the compiled (nogil) kernel backend and the thread team.

Coverage is split by what each piece needs from the host:

* **Fallback semantics** (no marker — runs on every host): the engine's
  thread team must work and match the serial pairing even when the
  compiled backend cannot be resolved; ``REPRO_NATIVE=0`` forces that
  branch on a host that *does* have a toolchain, and a mocked-out
  compiler lookup exercises the true no-compiler resolution path.
* **Compiled-path assertions** (``@pytest.mark.native`` — auto-skipped
  with the resolution detail as the reason): bit-identity of the
  compiled synchronous rows, verified asynchronous output, the
  ``kernel_path`` surfacing, and the executor's capability flags.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.chordality.verify import verify_extraction
from repro.core.config import ExtractionConfig
from repro.core.engines import get_engine
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.native import DISABLE_ENV, native_module, native_status, pointers
from repro.core.native.build import resolve
from repro.core.runtime import (
    LocalState,
    NativeThreadTeamExecutor,
    SerialExecutor,
    drive,
)
from repro.graph.builder import build_graph
from repro.graph.generators.classic import complete_graph, star_graph
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g

GRAPHS = {
    "rmat_er": lambda: rmat_er(8, seed=3),
    "rmat_g": lambda: rmat_g(7, seed=5),
    "rmat_b": lambda: rmat_b(7, seed=1),
    "gnp": lambda: gnp_random_graph(60, 0.12, seed=9),
}


@pytest.fixture
def native_env():
    """A MonkeyPatch whose undo happens *before* the backend memo is
    restored (the builtin ``monkeypatch`` fixture undoes too late: the
    re-resolution would still see the patched environment)."""
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()
    resolve(force=True)


class TestFallbackSemantics:
    """The engine and its thread team with the compiled backend forced off.

    These run on every host (tier-1 with or without a toolchain): they
    prove the acceptance criterion that tier-1 passes unchanged when no
    extension can be built.
    """

    def test_disabled_env_reports_reason(self, native_env):
        native_env.setenv(DISABLE_ENV, "0")
        status = native_status(force=True)
        assert not status.available
        assert f"disabled via {DISABLE_ENV}" in status.detail

    def test_no_compiler_branch(self, native_env, tmp_path):
        """Force the real no-compiler resolution path: an empty artifact
        cache and a compiler lookup that finds nothing."""
        pytest.importorskip("cffi")
        native_env.delenv(DISABLE_ENV, raising=False)
        native_env.delenv("CC", raising=False)
        native_env.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
        native_env.setattr(shutil, "which", lambda _cmd: None)
        status = native_status(force=True)
        assert not status.available
        assert "no C compiler found" in status.detail

    def test_engine_works_and_matches_with_backend_disabled(self, native_env):
        native_env.setenv(DISABLE_ENV, "0")
        resolve(force=True)
        graph = GRAPHS["rmat_er"]()
        spec = get_engine("superstep")
        base, base_qs, _ = drive(
            LocalState(graph), SerialExecutor(), schedule="synchronous"
        )
        cfg = ExtractionConfig(schedule="synchronous", num_threads=3)
        edges, qs, _ = spec.run(graph, cfg)
        assert np.array_equal(edges, base) and qs == base_qs
        # The asynchronous fallback runs the reference loop.
        edges_a, _, _ = spec.run(graph, ExtractionConfig().resolved())
        assert verify_extraction(graph, edges_a, check_maximal=False).ok

    def test_executor_flags_in_fallback(self, native_env):
        native_env.setenv(DISABLE_ENV, "0")
        resolve(force=True)
        with NativeThreadTeamExecutor(2) as executor:
            assert executor.needs_keys  # NumPy sync bodies read the key array
            assert executor.kernel_path == "numpy"

    def test_kernel_path_reported_numpy_when_disabled(self, native_env):
        native_env.setenv(DISABLE_ENV, "0")
        resolve(force=True)
        r = extract_maximal_chordal_subgraph(
            GRAPHS["rmat_b"](), schedule="synchronous"
        )
        assert r.kernel_path == "numpy"


@pytest.mark.native
class TestCompiledPath:
    """Assertions that only hold when the compiled backend resolved."""

    def test_status_names_the_artifact(self):
        status = native_status()
        assert status.available
        assert "_repro_native_" in status.detail

    def test_pointers_refuse_wrong_dtype_and_strides(self):
        """Every C call takes its arrays through one checked helper: the
        C loops read raw memory and would not notice."""
        ffi = native_module().ffi
        assert len(pointers(ffi, np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))) == 2
        with pytest.raises(TypeError, match="int64"):
            pointers(ffi, np.zeros(3, dtype=np.int32))
        with pytest.raises(TypeError, match="non-contiguous"):
            pointers(ffi, np.zeros(6, dtype=np.int64)[::2])

    def test_executor_flags(self):
        with NativeThreadTeamExecutor(2) as executor:
            assert not executor.needs_keys  # C probes arena runs directly
            assert executor.kernel_path == "native"

    @pytest.mark.parametrize("threads", (1, 2, 5))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_sync_bit_identical_across_widths(self, name, threads):
        """Acceptance criterion: compiled synchronous rows are
        bit-identical to the superstep driver at every thread count."""
        graph = GRAPHS[name]()
        base_edges, base_qs, _ = drive(
            LocalState(graph), SerialExecutor(), schedule="synchronous"
        )
        with NativeThreadTeamExecutor(threads) as executor:
            edges, qs, _ = drive(
                LocalState(graph), executor, schedule="synchronous"
            )
        assert np.array_equal(edges, base_edges), (name, threads)
        assert qs == base_qs, (name, threads)

    @pytest.mark.parametrize("threads", (1, 2, 4))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_async_output_verifies(self, name, threads):
        """The engine's asynchronous schedule runs the compiled sweep at
        every configured thread count, and every run certifies as a
        chordal subgraph within the iteration budget."""
        graph = GRAPHS[name]()
        r = extract_maximal_chordal_subgraph(
            graph, schedule="asynchronous", num_threads=threads
        )
        assert r.kernel_path == "native"
        report = verify_extraction(graph, r, check_maximal=False)
        assert report.ok, (name, threads, report)
        assert r.num_iterations <= graph.max_degree() + 2

    def test_degenerate_graphs(self):
        for g in (
            build_graph(0, []),
            build_graph(4, []),
            build_graph(2, [(0, 1)]),
            complete_graph(6),
            star_graph(5),
        ):
            for schedule in ("synchronous", "asynchronous"):
                r = extract_maximal_chordal_subgraph(
                    g, schedule=schedule, num_threads=3
                )
                assert verify_extraction(g, r, check_maximal=False).ok

    def test_kernel_path_surfaces_native(self):
        # Synchronous rounds run the compiled bodies on the thread team
        # (the asynchronous default runs the compiled sweep; see
        # tests/test_native_sweep.py) ...
        r = extract_maximal_chordal_subgraph(
            GRAPHS["rmat_er"](), schedule="synchronous", num_threads=2
        )
        assert r.kernel_path == "native"
        # ... while a directly driven serial pairing keeps the NumPy rounds.
        base = drive(
            LocalState(GRAPHS["rmat_er"]()), SerialExecutor(), schedule="synchronous"
        )
        assert base.kernel_path == "numpy"

    def test_engine_capability_flag(self):
        spec = get_engine("superstep")
        assert spec.schedules == ("asynchronous", "synchronous")
        assert spec.supports_trace

    def test_clique_iteration_law_native(self):
        """k-clique needs exactly k-1 synchronous rounds — same schedule
        law as every other pairing, now through the compiled bodies."""
        for k in (3, 5, 8):
            with NativeThreadTeamExecutor(2) as executor:
                _, qs, _ = drive(
                    LocalState(complete_graph(k)), executor, schedule="synchronous"
                )
            assert len(qs) == k - 1
