"""Shard planning: stream a huge edge file into per-shard spill files.

The planner makes the one pass-structured decision the whole sharded
extractor rests on: a **contiguous, edge-balanced vertex partition**.
Shard ``s`` owns the vertex range ``[cuts[s], cuts[s+1])`` produced by
:func:`repro.parallel.partition.degree_balanced_cuts`, so ownership of
any endpoint is a single ``searchsorted`` and every per-shard graph is a
dense local id range (``local = global - cuts[s]``) — no per-shard
relabel tables.

Planning streams the input with :class:`repro.graph.io.EdgeStream`
(SNAP / MatrixMarket / edge list, gzipped or not) in ``(k, 2)`` chunks
and never materialises the full edge list:

1. *(SNAP only)* an id pass merges per-chunk unique endpoint ids into
   one sorted label array (SNAP dumps use sparse ids; the label array is
   ``O(n)``, not ``O(m)``, and is saved as ``labels.npy``);
2. a degree pass accumulates per-vertex degree counts (``O(n)``);
3. a binning pass canonicalises each chunk to ``u < v`` rows and appends
   them to ``shard_XXXX.spill`` (both endpoints owned by shard ``XXXX``)
   or ``boundary.spill`` (endpoints on different shards) as raw
   little-endian ``int64`` pairs.

The resulting :class:`ShardPlan` is persisted as ``plan.json`` in the
spill directory; :func:`build_plan` reuses a directory whose plan
matches the input's content digest (resume after a crash re-streams
nothing).  Duplicate and self-loop pairs are *not* removed here — the
per-shard CSR build collapses them — so spill counts are raw pair
counts, not graph edge counts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError, ShardError
from repro.graph.builder import canonical_keys, key_pairs
from repro.graph.io import EdgeStream
from repro.parallel.partition import degree_balanced_cuts

__all__ = [
    "PLAN_SCHEMA",
    "ShardPlan",
    "build_plan",
    "load_plan",
    "load_shard_edges",
    "iter_boundary_edges",
    "boundary_keys",
    "load_boundary_edges",
]

#: Bump when the on-disk spill layout changes; plans with a different
#: schema are rebuilt, never half-read.
PLAN_SCHEMA = 1

_PLAN_NAME = "plan.json"
_LABELS_NAME = "labels.npy"
_DIGEST_CHUNK = 1 << 20
#: Pairs per chunk when re-reading a spill file (16 MiB of int64 pairs).
_SPILL_CHUNK_PAIRS = 1 << 20


@dataclass(frozen=True)
class ShardPlan:
    """Immutable description of one planned sharding of one input file.

    ``cuts`` has length ``num_shards + 1``; shard ``s`` owns global
    vertex ids ``[cuts[s], cuts[s+1])`` (compacted ids for SNAP inputs —
    ``labels.npy`` maps them back).  ``local_counts[s]`` and
    ``boundary_count`` are **raw pair counts** in the spill files, before
    duplicate/self-loop collapse.
    """

    spill_dir: str
    input_path: str
    input_format: str
    input_digest: str
    num_vertices: int
    num_shards: int
    cuts: tuple[int, ...]
    raw_pairs: int
    local_counts: tuple[int, ...]
    boundary_count: int
    has_labels: bool
    schema: int = PLAN_SCHEMA

    # -- spill-directory layout -------------------------------------
    @property
    def plan_path(self) -> Path:
        return Path(self.spill_dir) / _PLAN_NAME

    @property
    def labels_path(self) -> Path:
        return Path(self.spill_dir) / _LABELS_NAME

    @property
    def boundary_path(self) -> Path:
        return Path(self.spill_dir) / "boundary.spill"

    @property
    def results_dir(self) -> Path:
        return Path(self.spill_dir) / "results"

    def spill_path(self, shard: int) -> Path:
        self._check_shard(shard)
        return Path(self.spill_dir) / f"shard_{shard:04d}.spill"

    def result_path(self, shard: int) -> Path:
        self._check_shard(shard)
        return self.results_dir / f"shard_{shard:04d}.npz"

    # -- partition queries ------------------------------------------
    def shard_range(self, shard: int) -> tuple[int, int]:
        """Global vertex id range ``[lo, hi)`` owned by ``shard``."""
        self._check_shard(shard)
        return int(self.cuts[shard]), int(self.cuts[shard + 1])

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning shard index for each global vertex id."""
        cuts = np.asarray(self.cuts, dtype=np.int64)
        return np.searchsorted(cuts, np.asarray(vertices), side="right") - 1

    def labels(self) -> np.ndarray | None:
        """``labels[compact_id] = original_id`` for SNAP inputs, else None."""
        if not self.has_labels:
            return None
        return np.load(self.labels_path)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ShardError(
                f"shard index {shard} out of range [0, {self.num_shards}) "
                f"for spill dir {self.spill_dir}"
            )

    # -- persistence ------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "input_path": self.input_path,
            "input_format": self.input_format,
            "input_digest": self.input_digest,
            "num_vertices": self.num_vertices,
            "num_shards": self.num_shards,
            "cuts": list(self.cuts),
            "raw_pairs": self.raw_pairs,
            "local_counts": list(self.local_counts),
            "boundary_count": self.boundary_count,
            "has_labels": self.has_labels,
        }

    @classmethod
    def from_json(cls, spill_dir: str | Path, payload: dict) -> "ShardPlan":
        try:
            return cls(
                spill_dir=str(spill_dir),
                input_path=str(payload["input_path"]),
                input_format=str(payload["input_format"]),
                input_digest=str(payload["input_digest"]),
                num_vertices=int(payload["num_vertices"]),
                num_shards=int(payload["num_shards"]),
                cuts=tuple(int(c) for c in payload["cuts"]),
                raw_pairs=int(payload["raw_pairs"]),
                local_counts=tuple(int(c) for c in payload["local_counts"]),
                boundary_count=int(payload["boundary_count"]),
                has_labels=bool(payload["has_labels"]),
                schema=int(payload["schema"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(
                f"malformed plan.json in {spill_dir}: {exc}"
            ) from exc

    def save(self) -> None:
        path = self.plan_path
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        os.replace(tmp, path)


def file_digest(path: str | Path) -> str:
    """SHA-256 of the raw file bytes (gz files hash as-is)."""
    h = hashlib.sha256(b"repro-shard-input-v1")
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_DIGEST_CHUNK)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def load_plan(spill_dir: str | Path) -> ShardPlan:
    """Load the persisted plan from ``spill_dir`` (raises if absent)."""
    path = Path(spill_dir) / _PLAN_NAME
    if not path.exists():
        raise ShardError(
            f"no plan.json in {spill_dir} — run `repro shard plan` first"
        )
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardError(f"unreadable plan.json in {spill_dir}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ShardError(f"malformed plan.json in {spill_dir}: not an object")
    return ShardPlan.from_json(spill_dir, payload)


def _collect_snap_labels(stream: EdgeStream) -> np.ndarray:
    """Sorted unique endpoint ids of a SNAP stream, in O(n) memory.

    Incremental ``union1d`` keeps only the sorted label set live — one
    extra merge per ~64K-pair chunk, never the concatenated id list.
    """
    labels = np.empty(0, dtype=np.int64)
    for chunk in stream:
        labels = np.union1d(labels, chunk.ravel())
    if labels.size and labels[0] < 0:
        raise GraphFormatError(
            f"negative vertex id {labels[0]} in {stream.path}"
        )
    return labels


def _accumulate_degrees(
    stream: EdgeStream, labels: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """One streamed pass: per-vertex pair-endpoint counts and raw pair total.

    Counts are a balance heuristic — duplicates and self-loops are still
    included — which is exactly what shard-size balancing wants: spill
    bytes are proportional to raw pairs, not deduped edges.
    """
    degrees = np.zeros(1024, dtype=np.int64)
    max_id = -1
    raw_pairs = 0
    for chunk in stream:
        raw_pairs += chunk.shape[0]
        flat = chunk.ravel()
        if labels is not None:
            flat = np.searchsorted(labels, flat)
        elif flat.size and flat.min() < 0:
            raise GraphFormatError(
                f"negative vertex id {flat.min()} in {stream.path}"
            )
        counts = np.bincount(flat)
        if counts.size > degrees.size:
            grown = np.zeros(max(counts.size, 2 * degrees.size), dtype=np.int64)
            grown[: degrees.size] = degrees
            degrees = grown
        degrees[: counts.size] += counts
        if flat.size:
            max_id = max(max_id, int(flat.max()))
    declared = stream.declared_vertices
    n = max_id + 1
    if labels is None and declared is not None:
        n = max(n, int(declared))
    return degrees[:n], raw_pairs


def _bin_pass(
    stream: EdgeStream,
    plan_dir: Path,
    cuts: np.ndarray,
    labels: np.ndarray | None,
    num_shards: int,
) -> tuple[list[int], int]:
    """Streamed binning: canonical ``u < v`` rows into per-shard spills.

    Self-loops are dropped here (they are never graph edges and can
    never be boundary pairs); duplicates pass through and are collapsed
    by the per-shard CSR build.
    """
    local_counts = [0] * num_shards
    boundary_count = 0
    handles = [
        open(plan_dir / f"shard_{s:04d}.spill", "wb") for s in range(num_shards)
    ]
    boundary_fh = open(plan_dir / "boundary.spill", "wb")
    try:
        for chunk in stream:
            if labels is not None:
                chunk = np.searchsorted(labels, chunk)
            keep = chunk[:, 0] != chunk[:, 1]
            if not keep.all():
                chunk = chunk[keep]
            if not chunk.size:
                continue
            lo = chunk.min(axis=1)
            hi = chunk.max(axis=1)
            rows = np.column_stack((lo, hi))
            owner_lo = np.searchsorted(cuts, lo, side="right") - 1
            owner_hi = np.searchsorted(cuts, hi, side="right") - 1
            local = owner_lo == owner_hi
            boundary_rows = rows[~local]
            if boundary_rows.size:
                np.ascontiguousarray(boundary_rows, dtype="<i8").tofile(boundary_fh)
                boundary_count += boundary_rows.shape[0]
            rows = rows[local]
            owners = owner_lo[local]
            for s in np.unique(owners):
                shard_rows = rows[owners == s]
                np.ascontiguousarray(shard_rows, dtype="<i8").tofile(handles[s])
                local_counts[int(s)] += shard_rows.shape[0]
    finally:
        for fh in handles:
            fh.close()
        boundary_fh.close()
    return local_counts, boundary_count


def build_plan(
    input_path: str | Path,
    num_shards: int,
    spill_dir: str | Path,
    *,
    format: str | None = None,
    resume: bool = True,
) -> tuple[ShardPlan, bool]:
    """Plan (or resume) a sharding of ``input_path`` into ``spill_dir``.

    Returns ``(plan, reused)``; ``reused`` is True when an existing
    ``plan.json`` matched the input's content digest and shard count and
    all spill files were intact, in which case nothing was re-streamed.
    Cached per-shard *results* are keyed separately (input digest + cuts
    + config), so a rebuild of identical spills keeps them valid.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    plan_dir = Path(spill_dir)
    plan_dir.mkdir(parents=True, exist_ok=True)
    digest = file_digest(input_path)

    if resume and (plan_dir / _PLAN_NAME).exists():
        prior = load_plan(plan_dir)
        if (
            prior.schema == PLAN_SCHEMA
            and prior.input_digest == digest
            and prior.num_shards == num_shards
            and (format is None or prior.input_format == format)
            and _spill_files_intact(prior)
        ):
            return prior, True

    stream = EdgeStream(input_path, format=format)
    labels: np.ndarray | None = None
    if stream.format == "snap":
        labels = _collect_snap_labels(stream)
        np.save(plan_dir / _LABELS_NAME, labels)
    degrees, raw_pairs = _accumulate_degrees(stream, labels)
    num_vertices = int(degrees.size)
    if num_vertices == 0:
        cuts = np.zeros(num_shards + 1, dtype=np.int64)
    else:
        cuts = degree_balanced_cuts(degrees.astype(np.float64), num_shards)
    local_counts, boundary_count = _bin_pass(
        stream, plan_dir, cuts, labels, num_shards
    )

    plan = ShardPlan(
        spill_dir=str(plan_dir),
        input_path=str(input_path),
        input_format=stream.format,
        input_digest=digest,
        num_vertices=num_vertices,
        num_shards=num_shards,
        cuts=tuple(int(c) for c in cuts),
        raw_pairs=raw_pairs,
        local_counts=tuple(local_counts),
        boundary_count=boundary_count,
        has_labels=labels is not None,
    )
    plan.save()
    return plan, False


def load_shard_edges(plan: ShardPlan, shard: int) -> np.ndarray:
    """Raw canonical pairs of one shard's spill file as a ``(k, 2)`` array.

    Global ids; duplicates possible.  This is the one per-shard array the
    driver materialises — ``O(max shard)``, never ``O(m)``.
    """
    path = plan.spill_path(shard)
    if not path.exists():
        raise ShardError(
            f"missing spill file {path} — re-run `repro shard plan` "
            f"(shard {shard} of {plan.num_shards})"
        )
    arr = np.fromfile(path, dtype="<i8")
    if arr.size != 2 * plan.local_counts[shard]:
        raise ShardError(
            f"spill file {path} holds {arr.size // 2} pairs, plan recorded "
            f"{plan.local_counts[shard]} — stale spill dir, re-run `repro shard plan`"
        )
    return arr.astype(np.int64, copy=False).reshape(-1, 2)


def iter_boundary_edges(
    plan: ShardPlan, *, chunk_pairs: int = _SPILL_CHUNK_PAIRS
) -> Iterator[np.ndarray]:
    """Stream the boundary spill in ``(k, 2)`` chunks (raw, duplicates kept)."""
    path = plan.boundary_path
    if plan.boundary_count == 0:
        return
    if not path.exists():
        raise ShardError(
            f"missing boundary spill {path} — re-run `repro shard plan`"
        )
    with open(path, "rb") as fh:
        while True:
            arr = np.fromfile(fh, dtype="<i8", count=2 * chunk_pairs)
            if arr.size == 0:
                break
            if arr.size % 2:
                raise ShardError(f"truncated boundary spill {path}")
            yield arr.astype(np.int64, copy=False).reshape(-1, 2)


def boundary_keys(plan: ShardPlan) -> np.ndarray:
    """Unique canonical boundary edge keys (see
    :func:`repro.graph.builder.edge_keys`), sorted.

    The spill is keyed in small chunks, then sorted in place and
    deduplicated, so the boundary is never held as pairs: peak memory is
    at most three int64 words per raw pair.
    """
    n = plan.num_vertices
    chunks = iter_boundary_edges(plan, chunk_pairs=1 << 16)
    keys = np.concatenate([np.empty(0, np.int64), *(canonical_keys(n, c) for c in chunks)])
    keys.sort()
    # A -1 key (a loop or an out-of-range pair) sorts first and is dropped.
    return keys[np.diff(keys, prepend=-1) != 0]


def load_boundary_edges(plan: ShardPlan) -> np.ndarray:
    """Unique canonical boundary pairs, sorted lexicographically: the
    rows of :func:`boundary_keys`."""
    return key_pairs(plan.num_vertices, boundary_keys(plan))


def _spill_files_intact(plan: ShardPlan) -> bool:
    """All spill files present with exactly the recorded pair counts."""
    row_bytes = 16  # two little-endian int64s
    for s in range(plan.num_shards):
        path = plan.spill_path(s)
        if not path.exists() or path.stat().st_size != plan.local_counts[s] * row_bytes:
            return False
    bpath = plan.boundary_path
    if plan.boundary_count == 0:
        return not bpath.exists() or bpath.stat().st_size == 0
    return bpath.exists() and bpath.stat().st_size == plan.boundary_count * row_bytes
