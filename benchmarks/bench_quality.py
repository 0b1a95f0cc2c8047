#!/usr/bin/env python
"""Record the answer-quality baseline (BENCH_quality.json).

``perfbench/`` times *how fast* the engines run; this baseline guards
*how much they keep*.  For every engine x schedule cell it
records the retained-edge fraction (``|EC| / |E|``, the paper's Section
V statistic, measured with ``maximalize=True`` — the full pipeline) on
a fixed menu of seeded families, plus a weighted section comparing the
``weighted`` engine's retained *weight* against the unweighted pipeline
on the same weighted graphs.

The regression guard (``bench_regression_guard.py``) re-measures every
cell and fails when

* a retained fraction drops more than ``QUALITY_TOLERANCE`` below its
  recorded value (one-sided: getting *better* never fails),
* any cell dips below the certified floor of
  :func:`repro.chordality.quality.maximal_chordal_floor` (that is a
  correctness bug, not a regression), or
* the weighted engine retains less weight than the unweighted pipeline
  (the portfolio's by-construction invariant).

Every cell is deterministic, so each is measured once.  Re-record after
an intentional quality change:

    PYTHONPATH=src python benchmarks/bench_quality.py
    # or: repro bench --record quality
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

QUALITY_PATH = Path(__file__).resolve().parent / "BENCH_quality.json"

#: Allowed one-sided drop of a retained fraction vs its recorded value.
#: Every cell reproduces exactly; this is headroom for an intentional
#: change of the extraction order.
QUALITY_TOLERANCE = 0.05

SCHEMA_VERSION = 1

#: Engine used as the unweighted comparator in the weighted section
#: (bit-identical to ``reference`` under either schedule).
UNWEIGHTED_COMPARATOR = "superstep"


def _gnp(n, p, seed):
    from repro.graph.generators import gnp_random_graph

    return gnp_random_graph(n, p, seed=seed)


def _rmat(scale, seed):
    from repro.graph.generators.rmat import rmat_er

    return rmat_er(scale, seed=seed)


def _chordal(n, density, seed):
    from repro.graph.generators import random_chordal

    return random_chordal(n, density, seed=seed)


#: Unweighted quality families: name -> zero-arg builder (seeded, so the
#: recorded and re-measured graphs are identical).
FAMILIES = {
    "gnp_n100_p0.10_s11": lambda: _gnp(100, 0.10, 11),
    "gnp_n100_p0.30_s12": lambda: _gnp(100, 0.30, 12),
    "rmat_er_s7_s13": lambda: _rmat(7, 13),
    "chordal_n80_d0.3_s14": lambda: _chordal(80, 0.3, 14),
}

#: Weighted families: the same structural menu with seeded U(0.1, 5)
#: edge weights attached.
WEIGHTED_FAMILY_SEEDS = {
    "gnp_n100_p0.10_s11": 21,
    "gnp_n100_p0.30_s12": 22,
    "rmat_er_s7_s13": 23,
}


def build_weighted(name: str):
    """The weighted variant of family ``name`` (seeded weights)."""
    import numpy as np

    from repro.graph.weights import attach_edge_weights

    graph = FAMILIES[name]()
    rng = np.random.default_rng(WEIGHTED_FAMILY_SEEDS[name])
    return attach_edge_weights(graph, rng.uniform(0.1, 5.0, graph.num_edges))


def quality_cells():
    """``engine|schedule`` labels for every engine x schedule cell."""
    from repro.core.engines import engine_names, get_engine

    return tuple(
        f"{name}|{schedule}"
        for name in engine_names()
        for schedule in get_engine(name).schedules
    )


def measure_cell(cell: str, graph) -> float:
    """Retained-edge fraction for one engine x schedule cell (one run)."""
    from repro.chordality.quality import retained_fraction
    from repro.core.session import Extractor

    engine, schedule = cell.split("|")
    with Extractor(engine=engine, schedule=schedule, maximalize=True) as ex:
        return float(retained_fraction(graph, ex.extract(graph).edges))


def measure_weighted(name: str) -> dict:
    """Weighted-engine vs unweighted-pipeline retained weight on one
    weighted family (both measured under the same weights)."""
    from repro.core.session import Extractor
    from repro.graph.weights import retained_weight

    graph = build_weighted(name)
    with Extractor(engine="weighted", maximalize=True) as ex:
        weighted = retained_weight(graph, ex.extract(graph).edges)
    with Extractor(
        engine=UNWEIGHTED_COMPARATOR, schedule="synchronous", maximalize=True
    ) as ex:
        edges = ex.extract(graph.without_weights()).edges
        unweighted = retained_weight(graph, edges)
    return {
        "weighted": weighted,
        "unweighted": unweighted,
        "total_weight": float(graph.total_weight),
    }


def record(path: Path = QUALITY_PATH) -> dict:
    from repro.chordality.quality import maximal_chordal_floor

    families_payload = {}
    for name, build in FAMILIES.items():
        graph = build()
        families_payload[name] = {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "floor": maximal_chordal_floor(graph),
        }

    fractions: dict[str, dict[str, float]] = {}
    for cell in quality_cells():
        row = {}
        for name, build in FAMILIES.items():
            row[name] = measure_cell(cell, build())
        fractions[cell] = row
        shown = " | ".join(f"{k} {v:.3f}" for k, v in row.items())
        print(f"{cell:24s} {shown}")

    weighted_payload = {}
    for name in WEIGHTED_FAMILY_SEEDS:
        weighted_payload[name] = measure_weighted(name)
        w, u = weighted_payload[name]["weighted"], weighted_payload[name]["unweighted"]
        print(f"weighted {name:24s} weighted {w:9.2f} vs unweighted {u:9.2f}")

    payload = {
        "schema": SCHEMA_VERSION,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "maximalize": True,
        "tolerance": QUALITY_TOLERANCE,
        "families": families_payload,
        "retained_fraction": fractions,
        "weighted": weighted_payload,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    record()
