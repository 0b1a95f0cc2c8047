"""On-disk shard result cache: crash-safe resume for sharded extraction.

Each shard's retained (chordal) edge set is persisted as
``results/shard_XXXX.npz`` inside the spill directory, keyed by a
content digest in the style of
:func:`repro.service.protocol.graph_content_hash`: SHA-256 over the
input file's digest, the partition (shard count + cuts + spill schema),
the shard index, and the *resolved* extraction config
(:func:`repro.core.config.config_cache_key` — the same identity the
extraction service caches under).  A re-run with the same input,
partition, and regime loads instead of extracting; anything else — new
input bytes, different cuts, different engine knobs — misses cleanly.

Corrupt or stale result files are treated as misses, never as errors:
a crashed writer leaves at worst a half-written temp file (writes go
through ``os.replace``), and a digest mismatch means "extract again",
which is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.core.config import ExtractionConfig, config_cache_key

from .plan import ShardPlan

__all__ = [
    "shard_result_digest",
    "store_shard_result",
    "load_shard_result",
    "clear_shard_results",
]


def shard_result_digest(
    plan: ShardPlan, shard: int, config: ExtractionConfig
) -> str:
    """Cache identity of one shard's extraction under one regime."""
    key = {
        "input": plan.input_digest,
        "schema": plan.schema,
        "num_shards": plan.num_shards,
        "cuts": list(plan.cuts),
        "shard": shard,
        "config": list(config_cache_key(config.resolved())),
    }
    payload = json.dumps(key, sort_keys=True, default=str).encode()
    return hashlib.sha256(b"repro-shard-result-v1" + payload).hexdigest()


def store_shard_result(
    plan: ShardPlan,
    shard: int,
    config: ExtractionConfig,
    edges: np.ndarray,
    meta: dict,
) -> Path:
    """Persist one shard's retained edges (global ids) atomically."""
    plan.results_dir.mkdir(parents=True, exist_ok=True)
    path = plan.result_path(shard)
    tmp = path.with_suffix(".npz.tmp")
    digest = shard_result_digest(plan, shard, config)
    with open(tmp, "wb") as fh:
        np.savez_compressed(
            fh,
            digest=np.array(digest),
            edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )
    os.replace(tmp, path)
    return path


def load_shard_result(
    plan: ShardPlan, shard: int, config: ExtractionConfig
) -> tuple[np.ndarray, dict] | None:
    """Cached ``(edges, meta)`` for one shard, or ``None`` on any miss.

    A miss is silent by design: missing file, digest mismatch (different
    input / partition / config), or a corrupt archive all mean the shard
    must be extracted again.
    """
    path = plan.result_path(shard)
    if not path.exists():
        return None
    expected = shard_result_digest(plan, shard, config)
    try:
        with np.load(path, allow_pickle=False) as payload:
            if str(payload["digest"]) != expected:
                return None
            edges = np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 2)
            meta = json.loads(str(payload["meta"]))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, json.JSONDecodeError):
        return None
    if not isinstance(meta, dict):
        return None
    return edges, meta


def clear_shard_results(plan: ShardPlan) -> int:
    """Delete every cached shard result; returns the number removed."""
    removed = 0
    if not plan.results_dir.exists():
        return removed
    for path in sorted(plan.results_dir.glob("shard_*.npz")):
        path.unlink()
        removed += 1
    return removed
