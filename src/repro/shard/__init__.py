"""Out-of-core sharded extraction: graphs that never fit in one segment.

Every in-memory engine (and the service, and the mutate session)
assumes the whole CSR fits in one shared segment.  This package lifts
that cap: the input file is streamed once into per-shard spill files by
an edge-balanced contiguous vertex partition, each shard is extracted
independently through the ordinary engine table, and boundary edges
are reconciled in deterministic rounds of
:class:`~repro.chordality.maximality.AddabilityOracle` tests, so the
stitched result is chordal **by construction** — the
certified fix for the border-merge cascade the distributed prior art
(`repro.baselines.distributed`) suffers.

Modules
-------
:mod:`repro.shard.plan`
    Streaming planner: content digest, degree-balanced cuts, per-shard
    spill files, ``plan.json`` persistence and resume.
:mod:`repro.shard.cache`
    On-disk per-shard result cache keyed by (input digest, cuts,
    resolved config) — a crashed run resumes per shard.
:mod:`repro.shard.driver`
    Per-shard extraction, the boundary fixpoint stitcher, and the
    sampled seam certificates.

Quickstart::

    from repro.shard import extract_sharded
    result = extract_sharded("huge.txt.gz", num_shards=8,
                             spill_dir="/tmp/spill")
    result.edges            # global chordal edge set, canonical order

CLI: ``repro extract --sharded --shards N --spill-dir DIR`` or the
stepwise ``repro shard plan|run|stitch`` group.
"""

from .cache import (
    clear_shard_results,
    load_shard_result,
    shard_result_digest,
    store_shard_result,
)
from .driver import (
    ShardedResult,
    ShardStats,
    certify_stitched,
    default_shard_config,
    extract_shard,
    extract_sharded,
    run_shards,
    sampled_boundary_report,
    stitch_shards,
)
from .plan import (
    ShardPlan,
    build_plan,
    load_boundary_edges,
    load_plan,
    load_shard_edges,
)

__all__ = [
    "ShardPlan",
    "ShardStats",
    "ShardedResult",
    "build_plan",
    "certify_stitched",
    "clear_shard_results",
    "default_shard_config",
    "extract_shard",
    "extract_sharded",
    "load_boundary_edges",
    "load_plan",
    "load_shard_edges",
    "load_shard_result",
    "run_shards",
    "sampled_boundary_report",
    "shard_result_digest",
    "stitch_shards",
    "store_shard_result",
]
