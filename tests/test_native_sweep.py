"""The compiled asynchronous maximal-progress sweep.

The sweep's specification is the asynchronous loop of
:func:`repro.core.reference.reference_max_chordal`, which is also what
the driver runs when no backend resolves (``REPRO_NATIVE=0`` forces it)
and when a work trace is requested.  Both are deterministic, so the
contract is exact: the same edge set and the same queue sizes.  Row order
within a turn is not part of it (callers see canonical edges).  The
final schema arrays follow from the reference's edges alone: ``counts``
is the number of parents each child admitted, each ``arena`` run holds
those parents in ascending order, every ``cursor`` has walked past all
``lower`` parents and no ``lp`` remains.

Coverage:

* **Bit-identity** (``@pytest.mark.native``): Hypothesis over the random
  graphs of ``tests/test_properties.py`` and small R-MAT graphs,
  ``superstep`` against ``reference`` on RMAT-ER/B, trivial graphs, the
  clique iteration law and the iteration budget.
* **Kernel path reporting**: ``kernel_path`` says ``native`` exactly when
  compiled code produced the edges — through the API, the CLI summary
  line and the service reply and counters.
* **Untrusted ``max_iterations``**: a huge budget from a caller or a
  daemon request gives the normal answer and sizes no allocation.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.core.native import DISABLE_ENV
from repro.core.native.build import resolve
from repro.core.reference import reference_max_chordal
from repro.core.runtime import LocalState, SerialExecutor, drive
from repro.errors import ConvergenceError
from repro.graph.builder import build_graph
from repro.graph.generators.classic import complete_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from repro.graph.io import save_graph
from repro.service import ReproServer, ServiceClient, ServiceConfig
from tests.conftest import live_engine
from tests.test_properties import graphs


@contextmanager
def interpreted():
    """Run the body with the compiled backend forced off, then restore it."""
    mp = pytest.MonkeyPatch()
    mp.setenv(DISABLE_ENV, "0")
    resolve(force=True)
    try:
        yield
    finally:
        mp.undo()
        resolve(force=True)


def small_graph():
    return rmat_er(8, seed=3)


def sweep(graph, **kwargs):
    """``drive`` the asynchronous sweep; returns (result, final state)."""
    state = LocalState(graph)
    result = drive(state, SerialExecutor(), schedule="asynchronous", **kwargs)
    return result, state


def canonical(edges: np.ndarray) -> np.ndarray:
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def assert_matches_reference(graph, **kwargs):
    """The compiled sweep of ``graph`` against the reference loop: same
    edge set, same queue sizes, and final arrays derived from the
    reference's edges.  Returns the compiled ``DriveResult``."""
    result, state = sweep(graph, **kwargs)
    assert result.kernel_path == ("native" if graph.num_edges else "numpy")
    ref_edges, ref_qs = reference_max_chordal(
        graph, max_iterations=kwargs.get("max_iterations")
    )
    edges, qs, _ = result
    assert edges.dtype == np.int64
    assert edges.shape == ref_edges.shape
    assert np.array_equal(canonical(edges), canonical(ref_edges))
    assert qs == ref_qs
    if graph.num_edges:  # an edgeless graph runs nothing, not even reset
        a, n = state.arrays, state.n
        counts = np.bincount(ref_edges[:, 1], minlength=n)
        assert np.array_equal(a["counts"][:n], counts)
        # Slot j of child w's arena run sits at offsets[w] + j; the
        # reference's edges sorted by (child, parent) list the same runs.
        by_child = ref_edges[np.lexsort((ref_edges[:, 0], ref_edges[:, 1]))]
        starts = np.cumsum(counts) - counts
        slots = np.repeat(a["offsets"][:n] - starts, counts) + np.arange(counts.sum())
        assert np.array_equal(a["arena"][slots], by_child[:, 0])
        assert np.array_equal(a["cursor"][:n], a["lower"][:n])
        assert np.all(a["lp"][:n] == -1)
    return result


@pytest.mark.native
class TestBitIdentity:
    """Exact agreement with the specification (see the module docstring)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        assert_matches_reference(graphs(data.draw, max_n=12))

    @settings(max_examples=60, deadline=None)
    @given(
        generator=st.sampled_from([rmat_er, rmat_g, rmat_b]),
        scale=st.integers(3, 9),
        seed=st.integers(0, 100),
        variant=st.sampled_from(["optimized", "unoptimized"]),
    )
    def test_rmat_graphs(self, generator, scale, seed, variant):
        assert_matches_reference(generator(scale, seed=seed), variant=variant)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("scale", (9, 10, 11))
    @pytest.mark.parametrize("generator", (rmat_er, rmat_b), ids=("er", "b"))
    def test_superstep_matches_reference(self, generator, scale, seed):
        assert_matches_reference(generator(scale, seed=seed))

    @pytest.mark.parametrize(
        "graph, edges, queue_sizes",
        [
            (build_graph(0, []), [], []),
            (build_graph(5, []), [], []),
            (build_graph(2, [(0, 1)]), [(0, 1)], [1]),
        ],
        ids=("n0", "edgeless", "one-edge"),
    )
    def test_trivial_graphs(self, graph, edges, queue_sizes):
        got, qs, _ = assert_matches_reference(graph)
        assert got.shape == (len(edges), 2)
        assert [tuple(e) for e in got.tolist()] == edges
        assert qs == queue_sizes

    @pytest.mark.parametrize("k", (2, 3, 5, 8))
    def test_clique_iteration_law(self, k):
        edges, qs, _ = assert_matches_reference(complete_graph(k))
        assert len(qs) == k - 1
        assert edges.shape[0] == k * (k - 1) // 2

    def test_budget_exceeded_raises_on_both_paths(self):
        graph = complete_graph(6)  # needs 5 iterations
        with pytest.raises(ConvergenceError) as compiled:
            sweep(graph, max_iterations=2)
        with interpreted(), pytest.raises(ConvergenceError) as loop:
            sweep(graph, max_iterations=2)
        assert str(compiled.value) == str(loop.value)
        assert "exceeded iteration budget 2" in str(compiled.value)

    def test_exact_budget_suffices(self):
        assert_matches_reference(complete_graph(6), max_iterations=5)


def test_fallback_is_the_reference_loop():
    """With no backend the driver returns the reference's own rows."""
    graph = rmat_b(9, seed=1)
    with interpreted():
        for variant in ("optimized", "unoptimized"):
            result, _ = sweep(graph, variant=variant)
            ref_edges, ref_qs = reference_max_chordal(graph)
            assert result.kernel_path == "numpy"
            assert np.array_equal(result[0], ref_edges)
            assert result[1] == ref_qs


class TestKernelPath:
    """``kernel_path`` names the code that produced the edges."""

    @pytest.mark.native
    @pytest.mark.parametrize(
        "config, expected",
        [
            ({}, "native"),
            ({"variant": "unoptimized"}, "native"),
            ({"schedule": "synchronous"}, "native"),
            ({"collect_trace": True}, "numpy"),
            ({"schedule": "synchronous", "num_threads": 2}, "native"),
            ({"engine": "reference"}, "numpy"),
        ],
        ids=("default", "unoptimized", "superstep-sync", "traced", "native-sync", "reference"),
    )
    def test_api(self, config, expected):
        result = extract_maximal_chordal_subgraph(small_graph(), **config)
        assert result.kernel_path == expected

    @pytest.mark.parametrize(
        "engine, schedule",
        [("superstep", "asynchronous"), ("superstep", "synchronous"), ("native", "synchronous")],
    )
    def test_api_numpy_when_disabled(self, engine, schedule):
        with interpreted():
            result = extract_maximal_chordal_subgraph(
                small_graph(), engine=live_engine(engine), schedule=schedule
            )
        assert result.kernel_path == "numpy"

    def _cli_kernel(self, tmp_path, capsys, *flags) -> str:
        path = tmp_path / "g.mtx"
        save_graph(small_graph(), path)
        assert main(["extract", str(path), "-o", str(tmp_path / "h.txt"), *flags]) == 0
        line = capsys.readouterr().err
        return line.split("kernel=")[1].split()[0]

    @pytest.mark.native
    def test_cli_summary(self, tmp_path, capsys):
        assert self._cli_kernel(tmp_path, capsys) == "native"
        assert self._cli_kernel(tmp_path, capsys, "--schedule", "synchronous") == "native"
        assert self._cli_kernel(tmp_path, capsys, "--engine", "reference") == "numpy"

    def test_cli_summary_when_disabled(self, tmp_path, capsys):
        with interpreted():
            assert self._cli_kernel(tmp_path, capsys) == "numpy"

    @pytest.mark.native
    def test_serve_reply_and_counters(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        graph = small_graph()
        with ReproServer(ServiceConfig(socket_path=sock)) as server:
            with ServiceClient(socket_path=server.config.socket_path) as client:
                before = client.stats()
                compiled = client.extract(graph, no_cache=True)
                loop = client.extract(
                    graph, config={"engine": "reference"}, no_cache=True
                )
                after = client.stats()
        assert compiled.kernel_path == "native"
        assert loop.kernel_path == "numpy"
        assert after["kernel_native"] == before["kernel_native"] + 1
        assert after["kernel_numpy"] == before["kernel_numpy"] + 1


class TestUntrustedMaxIterations:
    """A caller's ``max_iterations`` bounds the loop, never a buffer."""

    HUGE = 2**62

    @pytest.mark.parametrize(
        "engine, schedule",
        [
            ("superstep", "asynchronous"),
            ("superstep", "synchronous"),
            ("native", "asynchronous"),
            ("native", "synchronous"),
            ("reference", "asynchronous"),
        ],
    )
    def test_api_huge_budget_gives_normal_answer(self, engine, schedule):
        engine = live_engine(engine)
        graph = rmat_b(8, seed=2)
        base = extract_maximal_chordal_subgraph(graph, engine=engine, schedule=schedule)
        huge = extract_maximal_chordal_subgraph(
            graph, engine=engine, schedule=schedule, max_iterations=self.HUGE
        )
        assert huge.kernel_path == base.kernel_path
        assert np.array_equal(huge.edges, base.edges)
        assert huge.queue_sizes == base.queue_sizes

    def test_budget_sizes_no_allocation(self):
        """A budget whose buffer would be 128 MiB allocates nothing like it
        (``np.empty`` of that size would succeed silently, so measure)."""
        graph = rmat_er(8, seed=1)
        extract_maximal_chordal_subgraph(graph)  # warm imports and the backend
        tracemalloc.start()
        try:
            extract_maximal_chordal_subgraph(graph, max_iterations=2**24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_serve_request_huge_budget(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        graph = rmat_b(8, seed=2)
        base = extract_maximal_chordal_subgraph(graph)
        with ReproServer(ServiceConfig(socket_path=sock)) as server:
            with ServiceClient(socket_path=server.config.socket_path) as client:
                got = client.extract(
                    graph, config={"max_iterations": self.HUGE}, no_cache=True
                )
        assert np.array_equal(got.edges, base.edges)
        assert got.num_iterations == base.num_iterations
