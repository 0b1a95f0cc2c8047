"""Theory-backed answer-quality oracles, swept over every engine x schedule.

``repro.chordality.quality`` turns "how many edges should an extraction
keep?" into assertable bounds.  This module tests both directions:

* the **oracles themselves** against hand-checkable graphs (cliques,
  trees, k-trees, cycles) and against each other (floor <= ceiling,
  envelope ordering);
* **every registered engine x schedule cell** against the certified
  per-graph floor ``maximal_chordal_floor`` on seeded random / R-MAT /
  chordal families — a maximal chordal subgraph provably cannot retain
  fewer edges, so any violation is an engine bug, independent of how
  the extraction is scheduled or parallelised.

The sweep is table-driven: every engine in ``engine_names()`` is held
to the same floor.  Every assertion message
carries the ``(family, seed, engine, schedule)`` tuple needed to replay
the failing case — see ``tests/README.md``.
"""

from __future__ import annotations

import math

import pytest

from repro.chordality.quality import (
    chordal_edge_ceiling,
    clique_number_chordal,
    f_lower_bound,
    gnp_envelope,
    maximal_chordal_floor,
    retained_fraction,
)
from repro.core.engines import engine_names, get_engine
from repro.core.session import Extractor
from repro.graph.builder import build_graph
from repro.graph.generators.chordal import ktree, partial_ktree, random_chordal
from repro.graph.generators.classic import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_er, rmat_g
from tests.conftest import RETIRED_ALIASES, live_engine

#: family name -> seeded builder (small: the floor check runs the full
#: engine grid, including the literal reference engine).
FAMILIES = {
    "gnp": lambda s: gnp_random_graph(24 + s % 13, 0.1 + 0.05 * (s % 4), seed=s),
    "rmat_er": lambda s: rmat_er(5, seed=s),
    "rmat_g": lambda s: rmat_g(5, seed=s),
    "chordal": lambda s: random_chordal(16 + s % 9, 0.3, seed=s),
    "partial_ktree": lambda s: partial_ktree(18, 3, 0.6, seed=s),
    "cycle": lambda s: cycle_graph(4 + s % 5),
    "single_edge": lambda s: build_graph(2 + s % 3, [(0, 1)]),
}

#: Registry-driven engine x schedule grid — new engines join automatically.
#: The retired alias labels (``tests/conftest.py``) keep their cells too.
CELLS = [
    (label, schedule)
    for label in (*engine_names(), *RETIRED_ALIASES)
    for schedule in get_engine(live_engine(label)).schedules
]
_CELL_IDS = [f"{engine}-{schedule[:5]}" for engine, schedule in CELLS]

SEEDS = (0, 1)


# ---------------------------------------------------------------------------
# The oracles themselves.


def test_f_lower_bound_small_cases():
    assert f_lower_bound(0, 0) == 0
    assert f_lower_bound(5, 0) == 0
    assert f_lower_bound(2, 1) == 1  # one edge survives whole
    # A triangle (m=3) needs s >= 3 non-isolated vertices -> >= 2 edges.
    assert f_lower_bound(3, 3) == 2
    # K5: s >= 5 -> ceil(5/2) = 3.
    assert f_lower_bound(5, 10) == 3
    with pytest.raises(ValueError):
        f_lower_bound(-1, 0)


def test_f_lower_bound_monotone_in_m():
    values = [f_lower_bound(40, m) for m in range(0, 780)]
    assert values == sorted(values)
    assert values[-1] == 20  # all 40 vertices non-isolated -> >= 20 edges


def test_floor_on_known_graphs():
    # Chordal inputs must be returned whole: floor == m.
    for g in (complete_graph(6), path_graph(7), star_graph(5), ktree(10, 2, seed=0)):
        assert maximal_chordal_floor(g) == g.num_edges
    # A cycle is connected: the spanning floor keeps n - 1 of its n edges.
    cycle = cycle_graph(8)
    assert maximal_chordal_floor(cycle) == 7
    # Edgeless graph: floor 0.
    assert maximal_chordal_floor(build_graph(4, [])) == 0


def test_chordal_edge_ceiling_known_values():
    # Trees: omega = 2 -> n - 1 edges.
    assert chordal_edge_ceiling(10, 2) == 9
    # Complete graph: omega = n -> C(n, 2).
    assert chordal_edge_ceiling(6, 6) == 15
    # omega beyond n clamps to n.
    assert chordal_edge_ceiling(4, 99) == 6
    assert chordal_edge_ceiling(5, 0) == 0
    # 3-trees (omega = 4) attain the bound exactly.
    g = ktree(12, 3, seed=1)
    assert g.num_edges == chordal_edge_ceiling(12, 4)


def test_clique_number_chordal_known_graphs():
    assert clique_number_chordal(complete_graph(7)) == 7
    assert clique_number_chordal(path_graph(6)) == 2
    assert clique_number_chordal(star_graph(5)) == 2
    assert clique_number_chordal(ktree(11, 3, seed=2)) == 4
    assert clique_number_chordal(build_graph(3, [])) == 1
    with pytest.raises(ValueError):
        clique_number_chordal(cycle_graph(5))


def test_floor_never_exceeds_ceiling():
    """Certified floor <= certified ceiling on every swept family."""
    for family, build in sorted(FAMILIES.items()):
        for seed in SEEDS:
            g = build(seed)
            if g.num_edges == 0:
                continue
            floor = maximal_chordal_floor(g)
            omega_cap = g.num_vertices  # trivial clique cap
            ceiling = min(g.num_edges, chordal_edge_ceiling(g.num_vertices, omega_cap))
            assert floor <= ceiling, f"family={family} seed={seed}"


def test_gnp_envelope_orders_and_scales():
    low, high = gnp_envelope(200, 0.3)
    assert 0 <= low < high
    assert low == pytest.approx(199, abs=1)  # connectivity regime
    # Theta(n log n) scaling: high grows ~linearly in n log n, so it is
    # far below the quadratic edge count of a dense G(n, p).
    assert high < 0.25 * 200 * 199 / 2
    with pytest.raises(ValueError):
        gnp_envelope(10, 1.5)


def test_gnp_envelope_contains_actual_extractions():
    """On comfortable (n, p) the retained count of the real pipeline
    falls inside the whp envelope."""
    n, p = 80, 0.3
    low, high = gnp_envelope(n, p)
    with Extractor(engine="superstep", maximalize=True) as ex:
        for seed in (3, 4, 5):
            g = gnp_random_graph(n, p, seed=seed)
            kept = ex.extract(g).num_chordal_edges
            assert low <= kept <= high, f"seed={seed} kept={kept} not in [{low},{high}]"


def test_retained_fraction_degenerate():
    g = build_graph(3, [])
    assert retained_fraction(g, []) == 1.0
    g = build_graph(3, [(0, 1), (1, 2)])
    assert retained_fraction(g, [(0, 1)]) == 0.5


# ---------------------------------------------------------------------------
# Every engine x schedule cell respects the certified floor.


@pytest.mark.parametrize("engine,schedule", CELLS, ids=_CELL_IDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_cell_meets_certified_floor(family, engine, schedule):
    for seed in SEEDS:
        graph = FAMILIES[family](seed)
        tag = f"family={family} seed={seed} engine={engine} schedule={schedule}"
        floor = maximal_chordal_floor(graph)
        with Extractor(
            engine=live_engine(engine), schedule=schedule, maximalize=True
        ) as ex:
            result = ex.extract(graph)
        kept = result.num_chordal_edges
        assert kept >= floor, (
            f"{tag}: retained {kept} edges, below the certified "
            f"maximal-chordal floor {floor} (n={graph.num_vertices}, "
            f"m={graph.num_edges}) — output cannot be maximal"
        )
        assert kept <= graph.num_edges, f"{tag}: retained more edges than exist"
        assert kept >= f_lower_bound(graph.num_vertices, graph.num_edges), tag


def test_floor_is_sharp_enough_to_bite():
    """Sanity that the floor is not vacuous: on a connected G(n, p) it
    demands at least the spanning-tree edge count, a substantial
    fraction of what the engines actually retain."""
    g = gnp_random_graph(40, 0.3, seed=9)
    floor = maximal_chordal_floor(g)
    assert floor >= g.num_vertices - 1  # connected at this density/seed
    with Extractor(engine="superstep", maximalize=True) as ex:
        kept = ex.extract(g).num_chordal_edges
    assert floor >= math.ceil(0.3 * kept)
