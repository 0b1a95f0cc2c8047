"""Shard driver: per-shard extraction and chordal boundary stitching.

Why this is correct (and where the prior art fails)
---------------------------------------------------
``baselines/distributed.py`` models the Section II prior art this
subsystem replaces: partition, extract locally, then *merge all border
edges back* — which cascades, because two locally-chordal halves plus
their full border set routinely contain a 4-cycle spanning the cut.

The driver keeps chordality **by construction** instead:

1. Each shard's spill builds a local CSR and runs any engine
   (:class:`repro.core.session.Extractor`); the per-shard output is
   chordal (and, with ``maximalize=True``, certified locally maximal).
2. The disjoint union of the per-shard chordal subgraphs is chordal —
   every cycle lives inside one shard because no retained edge crosses
   a cut.
3. Boundary edges are then offered one at a time in deterministic
   lexicographic rounds to one
   :class:`repro.chordality.maximality.AddabilityOracle`, which admits
   an edge only if the result stays chordal.  Admission can *unlock*
   other boundary edges (adding a chord can ban the path that blocked a
   neighbour), so rounds repeat until a full round admits nothing; at
   that fixpoint every remaining boundary edge was tested against the
   final subgraph and certified non-addable — a maximality certificate
   over the whole boundary set, not a sample.

The oracle keeps stitching near-linear in practice without touching
determinism: endpoints in different components of the stitched subgraph
are addable without a search, endpoints sharing a component but no
neighbour are rejected without one, and a rejected edge is re-tested
only after its component has gained an edge, so post-fixpoint rounds
cost O(pending) instead of O(pending × BFS).

Global maximality is certified for boundary edges; edges *rejected
inside a shard* are only locally certified (re-offering all of them
globally would need the full graph in memory — exactly what sharding
exists to avoid).  :func:`sampled_boundary_report` additionally
spot-checks the seam: sampled rejected edges must still be non-addable,
and sampled boundary neighbourhoods must be hole-free (a hole in an
induced subgraph is a genuine hole).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chordality.maximality import AddabilityOracle
from repro.chordality.recognition import find_hole, is_chordal
from repro.chordality.verify import verify_extraction
from repro.core.config import ExtractionConfig
from repro.core.session import Extractor
from repro.errors import ShardError
from repro.graph.builder import edge_keys, from_edge_array, key_pairs
from repro.graph.csr import CSRGraph
from repro.graph.ops import induced_subgraph

from .cache import load_shard_result, store_shard_result
from .plan import ShardPlan, boundary_keys, build_plan, load_shard_edges

__all__ = [
    "ShardStats",
    "ShardedResult",
    "certify_stitched",
    "default_shard_config",
    "extract_shard",
    "run_shards",
    "stitch_shards",
    "extract_sharded",
    "sampled_boundary_report",
]


def default_shard_config() -> ExtractionConfig:
    """The default per-shard regime: superstep engine, ``maximalize=True``.

    Maximalization is on by default because the acceptance bar for the
    sharded mode is *certified* output: ``verify_extraction`` with the
    maximality check must pass on every shard.
    """
    return ExtractionConfig(maximalize=True)


@dataclass(frozen=True)
class ShardStats:
    """Per-shard extraction accounting (one row of ``repro shard run``)."""

    shard: int
    num_vertices: int
    num_edges: int
    retained_edges: int
    seconds: float
    from_cache: bool
    engine: str
    verified: bool = False


@dataclass(frozen=True)
class ShardedResult:
    """Stitched result of one sharded extraction.

    ``edges`` is the global chordal edge set, canonicalised exactly like
    :attr:`repro.core.session.ChordalResult.edges` (``u < v`` rows in
    lexicographic order).  Ids are the plan's global ids — compacted for
    SNAP inputs (``plan.labels()`` maps back).  ``rejected`` is the
    boundary edges certified non-addable against the final subgraph.
    """

    edges: np.ndarray
    num_vertices: int
    plan: ShardPlan
    shard_stats: tuple[ShardStats, ...]
    boundary_edges: int
    rounds: int
    admitted: np.ndarray = field(repr=False)
    rejected: np.ndarray = field(repr=False)

    @property
    def admitted_boundary(self) -> int:
        return int(self.admitted.shape[0])

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def num_chordal_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def intra_shard_edges(self) -> int:
        return sum(s.retained_edges for s in self.shard_stats)

    def subgraph(self) -> CSRGraph:
        """The stitched chordal subgraph as a CSR graph (materialised)."""
        return from_edge_array(self.num_vertices, self.edges)


def _shard_graph(plan: ShardPlan, shard: int) -> CSRGraph:
    """Build one shard's local CSR from its spill file (local ids)."""
    lo, hi = plan.shard_range(shard)
    edges = load_shard_edges(plan, shard)
    return from_edge_array(hi - lo, edges - lo)


def extract_shard(
    plan: ShardPlan,
    shard: int,
    *,
    session: Extractor | None = None,
    config: ExtractionConfig | None = None,
    use_cache: bool = True,
    verify: bool = False,
) -> tuple[np.ndarray, ShardStats]:
    """Extract one shard; returns ``(global_edges, stats)``.

    With ``use_cache`` a prior result for the same (input digest, cuts,
    resolved config) loads instead of extracting.  ``verify`` certifies
    the fresh result with :func:`verify_extraction` (maximality checked
    iff the config maximalizes) and raises :class:`ShardError` naming
    the shard on failure.
    """
    if session is not None and config is not None:
        raise ShardError("pass either session or config, not both")
    cfg = session.config if session is not None else (
        config or default_shard_config()
    ).resolved()

    if use_cache:
        cached = load_shard_result(plan, shard, cfg)
        if cached is not None:
            edges, meta = cached
            return edges, ShardStats(
                shard=shard,
                num_vertices=int(meta.get("num_vertices", 0)),
                num_edges=int(meta.get("num_edges", 0)),
                retained_edges=int(edges.shape[0]),
                seconds=float(meta.get("seconds", 0.0)),
                from_cache=True,
                engine=cfg.engine,
                verified=bool(meta.get("verified", False)),
            )

    graph = _shard_graph(plan, shard)
    lo, _hi = plan.shard_range(shard)
    start = time.perf_counter()
    own_session = session is None
    sess = session if session is not None else Extractor(cfg)
    try:
        result = sess.extract(graph)
    finally:
        if own_session:
            sess.close()
    seconds = time.perf_counter() - start

    verified = False
    if verify:
        report = verify_extraction(graph, result, check_maximal=cfg.maximalize)
        if not report.ok:
            raise ShardError(
                f"shard {shard} of {plan.num_shards} failed verification "
                f"({report}); replay: repro shard run --spill-dir "
                f"{plan.spill_dir} --shard {shard} --verify"
            )
        verified = True

    global_edges = result.edges + lo  # canonical rows stay canonical
    meta = {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "seconds": seconds,
        "verified": verified,
        "engine": cfg.engine,
    }
    store_shard_result(plan, shard, cfg, global_edges, meta)
    return global_edges, ShardStats(
        shard=shard,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        retained_edges=int(global_edges.shape[0]),
        seconds=seconds,
        from_cache=False,
        engine=cfg.engine,
        verified=verified,
    )


def run_shards(
    plan: ShardPlan,
    *,
    config: ExtractionConfig | None = None,
    shards: list[int] | None = None,
    use_cache: bool = True,
    verify: bool = False,
) -> list[ShardStats]:
    """Extract every shard (or ``shards``) under one shared session.

    One :class:`Extractor` is spawned for the whole batch, so engines
    with worker teams pay one spawn for N shards.  Only one shard's CSR
    is live at a time.
    """
    cfg = (config or default_shard_config()).resolved()
    indices = list(range(plan.num_shards)) if shards is None else list(shards)
    stats: list[ShardStats] = []
    with Extractor(cfg) as session:
        for shard in indices:
            _edges, st = extract_shard(
                plan, shard, session=session, use_cache=use_cache, verify=verify
            )
            stats.append(st)
    return stats


def stitch_shards(
    plan: ShardPlan,
    *,
    config: ExtractionConfig | None = None,
) -> ShardedResult:
    """Reconcile boundary edges over the union of per-shard results.

    Requires every shard's cached result (``run_shards`` first); raises
    :class:`ShardError` naming the first missing shard otherwise.  The
    boundary loop is deterministic — lexicographic candidate order, and
    addability answers that do not depend on search order — so the
    stitched edge set is a pure function of (spills, per-shard results).
    """
    cfg = (config or default_shard_config()).resolved()
    shard_edges: list[np.ndarray] = []
    stats: list[ShardStats] = []
    for shard in range(plan.num_shards):
        cached = load_shard_result(plan, shard, cfg)
        if cached is None:
            raise ShardError(
                f"no cached result for shard {shard} of {plan.num_shards} in "
                f"{plan.results_dir} — run `repro shard run --spill-dir "
                f"{plan.spill_dir}` first (results are config-keyed; the run "
                "and stitch must use the same regime)"
            )
        edges, meta = cached
        shard_edges.append(edges)
        stats.append(
            ShardStats(
                shard=shard,
                num_vertices=int(meta.get("num_vertices", 0)),
                num_edges=int(meta.get("num_edges", 0)),
                retained_edges=int(edges.shape[0]),
                seconds=float(meta.get("seconds", 0.0)),
                from_cache=True,
                engine=cfg.engine,
                verified=bool(meta.get("verified", False)),
            )
        )

    n = plan.num_vertices
    # The boundary is most of the input on a random partition, so it is
    # held once: column-major, the oracle reads each column in place.
    boundary = np.asfortranarray(key_pairs(n, boundary_keys(plan)))
    # The stitched subgraph holds at most the shard edges plus the whole
    # boundary, so their endpoint counts are its per-vertex capacity.
    columns = (col for edges in (*shard_edges, boundary) for col in edges.T)
    oracle = AddabilityOracle(n, sum(np.bincount(col, minlength=n) for col in columns))
    for edges in shard_edges:
        oracle.add_edges(edges)
    accepted_pass, rounds = oracle.greedy(boundary)
    admitted = np.flatnonzero(accepted_pass)
    admitted_arr = boundary[admitted[np.argsort(accepted_pass[admitted], kind="stable")]]
    rejected_arr = boundary[accepted_pass == 0]
    final = key_pairs(n, edge_keys(n, np.vstack([*shard_edges, admitted_arr])))
    return ShardedResult(
        edges=final,
        num_vertices=n,
        plan=plan,
        shard_stats=tuple(stats),
        boundary_edges=int(boundary.shape[0]),
        rounds=rounds,
        admitted=admitted_arr,
        rejected=rejected_arr,
    )


def extract_sharded(
    input_path: str | Path,
    *,
    num_shards: int,
    spill_dir: str | Path,
    format: str | None = None,
    config: ExtractionConfig | None = None,
    use_cache: bool = True,
    verify_shards: bool = False,
) -> ShardedResult:
    """One-shot out-of-core extraction: plan, run every shard, stitch."""
    plan, _reused = build_plan(
        input_path, num_shards, spill_dir, format=format
    )
    stats = run_shards(
        plan, config=config, use_cache=use_cache, verify=verify_shards
    )
    result = stitch_shards(plan, config=config)
    # stitch reloads every shard from cache; keep the run phase's stats
    # (fresh-vs-cached and timing) for reporting.
    return dataclasses.replace(result, shard_stats=tuple(stats))


#: ``find_hole`` is a quadratic diagnostic (it BFSes per non-adjacent
#: neighbour pair, and a *chordal* graph is its worst case); above this
#: vertex count a chordality failure is reported without the explicit
#: cycle instead of stalling the certification for minutes.
_HOLE_DIAGNOSIS_MAX_VERTICES = 1 << 14


def certify_stitched(
    result: ShardedResult,
    *,
    samples: int = 64,
    seed: int = 0,
) -> list[str]:
    """Certify a stitched result; returns problem strings (empty = pass).

    Chordality is checked with :func:`is_chordal` (linear-time MCS + PEO
    — scales to out-of-core results); the explicit hole is extracted for
    the failure message only on graphs small enough for
    :func:`find_hole`'s pair-wise BFS scan.  The sampled boundary seam
    certificates from :func:`sampled_boundary_report` are appended.
    """
    problems: list[str] = []
    subgraph = result.subgraph()
    if not is_chordal(subgraph):
        if subgraph.num_vertices <= _HOLE_DIAGNOSIS_MAX_VERTICES:
            problems.append(
                f"stitched result is not chordal; hole: {find_hole(subgraph)}"
            )
        else:
            problems.append(
                "stitched result is not chordal (too large for hole "
                f"extraction; replay: repro shard stitch --spill-dir "
                f"{result.plan.spill_dir} --certify)"
            )
    report = sampled_boundary_report(result, samples=samples, seed=seed)
    problems.extend(report["maximality_violations"])
    problems.extend(report["hole_violations"])
    return problems


def sampled_boundary_report(
    result: ShardedResult,
    *,
    samples: int = 64,
    seed: int = 0,
) -> dict:
    """Spot-check the stitched seam; returns a JSON-able report.

    Two certificates, both sampled deterministically from ``seed``:

    * **maximality** — rejected boundary edges must still be
      non-addable against the final subgraph (the fixpoint already
      guarantees this; the sample re-derives it independently so a
      stitching bug cannot self-certify);
    * **holes** — the 2-hop neighbourhood of sampled boundary endpoints
      must be hole-free.  A hole in an induced subgraph is a genuine
      hole in the stitched result, so any hit disproves chordality at
      the exact seam the distributed baseline gets wrong.

    Violations carry a replay tag with the spill dir, seed, and edge.
    """
    rng = np.random.default_rng(seed)
    subgraph = result.subgraph()

    rejected = result.rejected
    k = min(samples, rejected.shape[0])
    picks = (
        rng.choice(rejected.shape[0], size=k, replace=False) if k else np.empty(0)
    )
    sampled = np.sort(picks.astype(np.int64))
    oracle = AddabilityOracle.of_graph(subgraph)
    maximality_violations = []
    for i in sampled[oracle.first_addable(rejected[sampled])].tolist():
        u, v = int(rejected[i, 0]), int(rejected[i, 1])
        maximality_violations.append(
            f"rejected boundary edge ({u}, {v}) is addable to the "
            f"stitched result; replay: spill_dir={result.plan.spill_dir} "
            f"seed={seed} sample={i}"
        )

    boundary_vertices = np.unique(
        np.concatenate([rejected.ravel(), result.admitted.ravel()])
    )
    j = min(samples, boundary_vertices.size)
    vertex_picks = (
        rng.choice(boundary_vertices.size, size=j, replace=False)
        if j
        else np.empty(0)
    )
    hole_violations = []
    holes_checked = 0
    for i in sorted(int(p) for p in vertex_picks):
        center = int(boundary_vertices[i])
        hood = {center}
        for x in subgraph.neighbors(center).tolist():
            hood.add(x)
            hood.update(subgraph.neighbors(x).tolist())
        if len(hood) < 4:
            continue
        induced, mapping = induced_subgraph(subgraph, hood)
        holes_checked += 1
        hole = find_hole(induced)
        if hole is not None:
            cycle = [int(mapping[x]) for x in hole]
            hole_violations.append(
                f"hole {cycle} in the 2-hop neighbourhood of boundary vertex "
                f"{center}; replay: spill_dir={result.plan.spill_dir} "
                f"seed={seed} sample={i}"
            )

    return {
        "seed": seed,
        "maximality_sampled": int(k),
        "maximality_violations": maximality_violations,
        "neighbourhoods_checked": holes_checked,
        "hole_violations": hole_violations,
        "ok": not maximality_violations and not hole_violations,
    }
