"""Shared fixtures, markers and helpers for the test suite.

Markers (registered here so ``--strict-markers`` stays viable):

* ``slow``   — long-running sweeps; skipped unless ``--run-slow`` (or an
  explicit ``-m`` expression naming ``slow``) is given.
* ``stress`` — adversarial concurrency stress; skipped unless
  ``--run-stress`` (or ``-m ... stress ...``) is given.
* ``service_stress`` — fault injection against a live ``repro serve``
  daemon (client kill, queue saturation, deadlines, drain);
  skipped unless ``--run-service-stress`` (or ``-m ... service_stress
  ...``) is given.
* ``incremental_stress`` — long seeded mutation streams whose answer
  must equal a from-scratch extraction after every event
  (``IncrementalExtractor``); skipped unless
  ``--run-incremental-stress`` (or ``-m ... incremental_stress ...``).
* ``sharded_stress`` — memory-capped (``resource.setrlimit``) proof that
  out-of-core sharded extraction fits where the in-memory path cannot;
  skipped unless ``--run-sharded-stress`` (or ``-m ... sharded_stress``).

One marker is different in kind:

* ``native`` — tests that require the *compiled* kernel backend
  (:mod:`repro.core.native`).  These run by default (they are tier-1 on
  any host with a C toolchain); when the backend cannot be resolved they
  are **skipped with the resolution detail as the reason** (no compiler
  vs. missing cffi vs. build failure vs. ``REPRO_NATIVE=0``) — never
  silently passed.

Tier-1 (``pytest -x -q``) therefore stays fast; the marked sweeps are the
tier-2 deep end (see ``tests/README.md``).
"""

from __future__ import annotations

import pytest

from repro.graph.builder import build_graph
from repro.graph.csr import CSRGraph
from repro.graph.generators.classic import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g

_OPTIONAL_MARKERS = {
    "slow": ("--run-slow", "long-running test; skipped unless --run-slow"),
    "stress": ("--run-stress", "adversarial stress test; skipped unless --run-stress"),
    "service_stress": (
        "--run-service-stress",
        "extraction-service fault injection; skipped unless --run-service-stress",
    ),
    "incremental_stress": (
        "--run-incremental-stress",
        "long seeded mutation streams, each answer compared with a "
        "from-scratch extraction; skipped unless --run-incremental-stress",
    ),
    "sharded_stress": (
        "--run-sharded-stress",
        "memory-capped (resource.setrlimit) out-of-core extraction proof; "
        "skipped unless --run-sharded-stress",
    ),
}


def pytest_addoption(parser) -> None:
    for name, (flag, _description) in _OPTIONAL_MARKERS.items():
        parser.addoption(
            flag,
            action="store_true",
            default=False,
            help=f"also run tests marked '{name}'",
        )


def pytest_configure(config) -> None:
    for name, (_flag, description) in _OPTIONAL_MARKERS.items():
        config.addinivalue_line("markers", f"{name}: {description}")
    config.addinivalue_line(
        "markers",
        "native: needs the compiled kernel backend; skipped (with the "
        "resolution detail as the reason) when it cannot be built/loaded",
    )


def pytest_collection_modifyitems(config, items) -> None:
    markexpr = config.getoption("-m", default="") or ""
    for name, (flag, _description) in _OPTIONAL_MARKERS.items():
        if config.getoption(flag) or name in markexpr:
            continue
        skip = pytest.mark.skip(reason=f"needs {flag} (or -m {name})")
        for item in items:
            if name in item.keywords:
                item.add_marker(skip)
    if any("native" in item.keywords for item in items):
        from repro.core.native import native_status

        status = native_status()
        if not status.available:
            # Skip *with the specific reason* — a silent pass would hide
            # which failure mode (no compiler / no cffi / broken build /
            # explicit disable) the host is in.
            skip_native = pytest.mark.skip(
                reason=f"native kernel backend unavailable: {status.detail}"
            )
            for item in items:
                if "native" in item.keywords:
                    item.add_marker(skip_native)


#: Case labels of the retired ``threaded``, ``process`` and ``native``
#: engines.  Parametrized tests keep these labels in their ids so that
#: case names stay stable; every label now runs the one Algorithm-1
#: engine, ``superstep``, whose synchronous thread team is sized by the
#: case's thread count (formerly the team or worker count of the retired
#: engine).
RETIRED_ALIASES = {"threaded": "superstep", "process": "superstep", "native": "superstep"}


def live_engine(label: str) -> str:
    """The registered engine that a case label (engine name or retired
    alias) runs."""
    return RETIRED_ALIASES.get(label, label)


def to_networkx(graph: CSRGraph):
    """Convert to networkx.Graph (nodes 0..n-1 always present)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(graph.num_vertices))
    G.add_edges_from(map(tuple, graph.edge_array()))
    return G


@pytest.fixture
def triangle() -> CSRGraph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square() -> CSRGraph:
    """4-cycle — the smallest non-chordal graph."""
    return cycle_graph(4)


@pytest.fixture
def empty_graph() -> CSRGraph:
    return build_graph(0, [])


@pytest.fixture
def singleton() -> CSRGraph:
    return build_graph(1, [])


@pytest.fixture
def isolated_vertices() -> CSRGraph:
    return build_graph(5, [])


@pytest.fixture(
    params=["path", "cycle5", "k5", "grid33", "star", "barbell", "gnp",
            "rmat_er", "rmat_g", "rmat_b"]
)
def zoo_graph(request) -> CSRGraph:
    """A diverse zoo of small graphs for cross-cutting invariants."""
    return {
        "path": lambda: path_graph(8),
        "cycle5": lambda: cycle_graph(5),
        "k5": lambda: complete_graph(5),
        "grid33": lambda: grid_graph(3, 3),
        "star": lambda: star_graph(6),
        "barbell": lambda: barbell_graph(4, 2),
        "gnp": lambda: gnp_random_graph(40, 0.15, seed=7),
        "rmat_er": lambda: rmat_er(7, seed=1),
        "rmat_g": lambda: rmat_g(7, seed=2),
        "rmat_b": lambda: rmat_b(7, seed=3),
    }[request.param]()


def random_graph_from_data(n: int, edge_bits: list[bool]) -> CSRGraph:
    """Deterministic graph from a hypothesis-drawn boolean mask over the
    upper-triangular pair enumeration."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, edge_bits) if keep]
    return build_graph(n, edges)
