"""Pinned work traces: the machine models' inputs do not move.

``tests/work_traces.json`` holds the ``collect_trace`` work trace of the
asynchronous sweep for both variants on RMAT-ER/B/G(8, 10) (seed 1) and
the four GEO replicas at fraction 1/64, all built by
:mod:`repro.experiments.testsuite`.  Every scalar field of every
:class:`~repro.core.instrument.IterationTrace` is stored, plus a SHA-256
of ``work_items.tobytes()`` (integer-valued float64, so the hash is
exact).  The fixture was recorded with the driver's former interpreted
sweep; the trace now comes from :func:`repro.core.reference.
reference_max_chordal`, and this test is what keeps the two equal.

Regenerate only for a deliberate change to the trace semantics::

    PYTHONPATH=src python -m tests.test_trace_fixture
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.extract import extract_maximal_chordal_subgraph
from repro.experiments.testsuite import (
    DEFAULT_BIO_FRACTION,
    bio_specs,
    build_graph_cached,
    rmat_spec,
)

FIXTURE = Path(__file__).with_name("work_traces.json")
VARIANTS = ("optimized", "unoptimized")
SCALAR_FIELDS = (
    "queue_size",
    "services",
    "edges_added",
    "subset_comparisons",
    "advance_ops",
    "scan_ops",
    "queue_ops",
    "critical_path_ops",
)


def specs():
    rmat = [rmat_spec(kind, s, seed=1) for kind in ("RMAT-ER", "RMAT-B", "RMAT-G") for s in (8, 10)]
    return rmat + bio_specs(DEFAULT_BIO_FRACTION)


def summarize(trace) -> dict:
    """The trace as JSON-ready columns: one list per field, one entry per
    iteration (``work_items`` as its hash; its length is ``queue_size``)."""
    its = trace.iterations
    columns = {name: [getattr(it, name) for it in its] for name in SCALAR_FIELDS}
    columns["work_items_sha256"] = [
        hashlib.sha256(it.work_items.tobytes()).hexdigest() for it in its
    ]
    return {
        "variant": trace.variant,
        "num_vertices": trace.num_vertices,
        "num_edges": trace.num_edges,
        **columns,
    }


def traced(spec, variant: str) -> dict:
    graph = build_graph_cached(spec)
    result = extract_maximal_chordal_subgraph(graph, variant=variant, collect_trace=True)
    return summarize(result.trace)


def record() -> dict:
    return {
        f"{spec.name}/{variant}": traced(spec, variant)
        for spec in specs()
        for variant in VARIANTS
    }


EXPECTED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.name)
def test_trace_matches_fixture(spec, variant):
    assert traced(spec, variant) == EXPECTED[f"{spec.name}/{variant}"]


def test_fixture_covers_every_case():
    assert sorted(EXPECTED) == sorted(f"{s.name}/{v}" for s in specs() for v in VARIANTS)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), separators=(",", ":"), sort_keys=True) + "\n")
