"""Out-of-core sharded extraction (:mod:`repro.shard`).

The heart of this suite is the property sweep: for every seeded family x
shard count, the stitched result must be **chordal** (full recognition
check, not sampled) and meet the certified
:func:`~repro.chordality.quality.maximal_chordal_floor` — the same bar
every in-memory engine is held to in ``tests/test_quality_oracles.py``.
Every assertion message carries the ``(family, seed, shards)`` tuple
needed to replay the failing case::

    from repro.shard import extract_sharded
    extract_sharded(path_to(family, seed), num_shards=shards,
                    spill_dir=tmp)

Seam-specific certificates (the exact failure mode of
``baselines/distributed.py``): sampled rejected boundary edges must stay
non-addable against the final subgraph, and sampled boundary
neighbourhoods must be hole-free — a hole in an induced subgraph is a
genuine hole, so one hit disproves chordality at the cut.

The memory-capped proof that sharding actually runs where the in-memory
path cannot lives in ``tests/test_sharded_stress.py``
(``--run-sharded-stress``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.chordality.maximality import edge_addable
from repro.chordality.quality import maximal_chordal_floor, retained_fraction
from repro.chordality.recognition import find_hole, is_chordal
from repro.chordality.verify import verify_extraction
from repro.core.config import ExtractionConfig
from repro.core.session import Extractor
from repro.errors import ShardError
from repro.graph.builder import build_graph
from repro.graph.generators.chordal import random_chordal
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er
from repro.graph.io import save_graph
from repro.shard import (
    build_plan,
    clear_shard_results,
    extract_shard,
    extract_sharded,
    load_boundary_edges,
    load_plan,
    load_shard_edges,
    load_shard_result,
    run_shards,
    sampled_boundary_report,
    stitch_shards,
)

#: family name -> seeded builder.  Sizes are chosen so the full sweep
#: (families x seeds x shard counts, each planning + extracting every
#: shard + stitching) stays tier-1 fast.
FAMILIES = {
    "gnp": lambda s: gnp_random_graph(90 + 7 * (s % 3), 0.08, seed=s),
    "rmat_er": lambda s: rmat_er(7, seed=s),
    "rmat_b": lambda s: rmat_b(7, seed=s),
    "chordal": lambda s: random_chordal(60, 0.2, seed=s),
}


def _spill(tmp_path, graph, num_shards, *, name="g.txt", config=None):
    """Write ``graph`` to disk and run the full sharded pipeline."""
    path = tmp_path / name
    save_graph(graph, path, format="edgelist")
    return extract_sharded(
        path,
        num_shards=num_shards,
        spill_dir=tmp_path / f"spill_{name}_{num_shards}",
        config=config,
    )


class TestPropertySweep:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_stitched_chordal_and_meets_floor(
        self, tmp_path, family, seed, shards
    ):
        graph = FAMILIES[family](seed)
        result = _spill(tmp_path, graph, shards)
        subgraph = result.subgraph()
        tag = f"(family={family!r}, seed={seed}, shards={shards})"
        hole = find_hole(subgraph)
        assert hole is None, (
            f"stitched result has hole {hole} {tag} — the boundary "
            "reconciliation admitted a chord-free cycle"
        )
        floor = maximal_chordal_floor(graph)
        assert result.num_chordal_edges >= floor, (
            f"stitched result keeps {result.num_chordal_edges} edges, "
            f"certified floor is {floor} {tag}"
        )
        # Output edges are a subset of the input's.
        in_set = graph.edge_set()
        out = {(int(u), int(v)) for u, v in result.edges}
        assert out <= in_set, (
            f"stitched result invents edges {sorted(out - in_set)[:3]} {tag}"
        )

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_boundary_certificates(self, tmp_path, family, seed):
        """The sampled seam report must be clean, and — independently of
        its sampling — every rejected boundary edge must be non-addable
        against the final subgraph (the fixpoint's full certificate)."""
        graph = FAMILIES[family](seed)
        result = _spill(tmp_path, graph, 3)
        tag = f"(family={family!r}, seed={seed}, shards=3)"
        report = sampled_boundary_report(result, samples=48, seed=0)
        assert report["ok"], f"seam certificates failed {tag}: {report}"
        adj = [set() for _ in range(result.num_vertices)]
        for u, v in result.edges:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
        for u, v in result.rejected[:64]:
            assert not edge_addable(adj, int(u), int(v)), (
                f"rejected boundary edge ({u}, {v}) is addable {tag} — "
                "stitching stopped before its fixpoint"
            )

    def test_chordal_input_survives_whole(self, tmp_path):
        """A chordal input must come back with every edge — sharding can
        never lose edges a maximal extraction must keep."""
        graph = random_chordal(50, 0.25, seed=9)
        result = _spill(tmp_path, graph, 4)
        assert result.num_chordal_edges == graph.num_edges, (
            f"(family='chordal', seed=9, shards=4): kept "
            f"{result.num_chordal_edges} of {graph.num_edges} edges of a "
            "chordal input"
        )

    def test_single_shard_matches_in_memory_engine(self, tmp_path):
        """shards=1 has no boundary: the pipeline must reduce exactly to
        the in-memory engine under the same (deterministic) config."""
        graph = rmat_er(7, seed=4)
        result = _spill(tmp_path, graph, 1)
        assert result.boundary_edges == 0
        with Extractor(maximalize=True) as session:
            expected = session.extract(graph)
        assert np.array_equal(result.edges, expected.edges)

    def test_retained_fraction_tracks_in_memory(self, tmp_path):
        """Sharding trades retained edges for memory; the loss on a
        modest RMAT graph must stay small (the ICPP motivation dies if
        sharding throws away half the subgraph)."""
        graph = rmat_er(8, seed=6)
        result = _spill(tmp_path, graph, 4)
        with Extractor(maximalize=True) as session:
            expected = session.extract(graph)
        sharded_frac = retained_fraction(graph, result.edges)
        memory_frac = retained_fraction(graph, expected.edges)
        assert sharded_frac >= 0.75 * memory_frac, (
            f"(family='rmat_er', seed=6, shards=4): sharded retains "
            f"{sharded_frac:.3f} vs in-memory {memory_frac:.3f}"
        )


class TestPlan:
    def test_spills_partition_the_edge_set(self, tmp_path):
        """Union of per-shard spills + boundary spill == the input's
        canonical edge set; locals land inside one shard's range,
        boundary pairs straddle two."""
        graph = gnp_random_graph(70, 0.1, seed=3)
        path = tmp_path / "g.txt"
        save_graph(graph, path, format="edgelist")
        plan, reused = build_plan(path, 3, tmp_path / "spill")
        assert not reused
        rebuilt = set()
        for s in range(3):
            lo, hi = plan.shard_range(s)
            for u, v in load_shard_edges(plan, s):
                assert lo <= u < hi and lo <= v < hi
                rebuilt.add((int(u), int(v)))
        for u, v in load_boundary_edges(plan):
            assert int(plan.owner_of(np.array([u]))[0]) != int(
                plan.owner_of(np.array([v]))[0]
            )
            rebuilt.add((int(u), int(v)))
        assert rebuilt == graph.edge_set()
        assert plan.cuts[0] == 0 and plan.cuts[-1] == graph.num_vertices

    def test_resume_reuses_matching_plan(self, tmp_path):
        graph = gnp_random_graph(40, 0.1, seed=1)
        path = tmp_path / "g.txt"
        save_graph(graph, path, format="edgelist")
        plan, reused = build_plan(path, 2, tmp_path / "spill")
        assert not reused
        again, reused = build_plan(path, 2, tmp_path / "spill")
        assert reused and again == plan

    def test_changed_input_invalidates_plan(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(gnp_random_graph(40, 0.1, seed=1), path, format="edgelist")
        plan, _reused = build_plan(path, 2, tmp_path / "spill")
        save_graph(gnp_random_graph(40, 0.1, seed=2), path, format="edgelist")
        fresh, reused = build_plan(path, 2, tmp_path / "spill")
        assert not reused and fresh.input_digest != plan.input_digest

    def test_different_shard_count_replans(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(gnp_random_graph(40, 0.1, seed=1), path, format="edgelist")
        build_plan(path, 2, tmp_path / "spill")
        plan, reused = build_plan(path, 3, tmp_path / "spill")
        assert not reused and plan.num_shards == 3

    def test_damaged_spill_triggers_replan(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(gnp_random_graph(40, 0.1, seed=1), path, format="edgelist")
        plan, _reused = build_plan(path, 2, tmp_path / "spill")
        plan.spill_path(0).write_bytes(b"short")
        _again, reused = build_plan(path, 2, tmp_path / "spill")
        assert not reused  # intact check caught the truncation

    def test_snap_sparse_ids_are_compacted(self, tmp_path):
        graph = gnp_random_graph(30, 0.15, seed=7)
        path = tmp_path / "dump.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# FromNodeId\tToNodeId\n")
            for u, v in graph.iter_edges():
                fh.write(f"{u * 13}\t{v * 13}\n")
        plan, _reused = build_plan(path, 2, tmp_path / "spill", format="snap")
        assert plan.has_labels
        labels = plan.labels()
        assert np.array_equal(labels % 13, np.zeros_like(labels))
        assert plan.num_vertices == labels.size

    def test_degree_balanced_cuts_beat_vertex_split_on_rmat(self, tmp_path):
        """The planner must bin by degree mass: on RMAT-B the hub-heavy
        low-id range would otherwise swallow most spill bytes."""
        graph = rmat_b(9, seed=3)
        path = tmp_path / "g.txt"
        save_graph(graph, path, format="edgelist")
        plan, _reused = build_plan(path, 4, tmp_path / "spill")
        sizes = [plan.cuts[s + 1] - plan.cuts[s] for s in range(4)]
        # Degree balancing on a power-law sequence must give the hub
        # shard far fewer vertices than the tail shard.
        assert min(sizes) < max(sizes) / 2, (
            f"cuts {plan.cuts} look like a vertex-count split on RMAT-B"
        )

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_graph(build_graph(3, []), path, format="edgelist")
        result = extract_sharded(
            path, num_shards=2, spill_dir=tmp_path / "spill"
        )
        assert result.num_chordal_edges == 0
        assert result.boundary_edges == 0

    def test_bad_shard_count_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(build_graph(3, [(0, 1)]), path, format="edgelist")
        with pytest.raises(ShardError, match="num_shards"):
            build_plan(path, 0, tmp_path / "spill")

    def test_load_plan_missing_dir(self, tmp_path):
        with pytest.raises(ShardError, match="repro shard plan"):
            load_plan(tmp_path)

    def test_plan_json_round_trips(self, tmp_path):
        path = tmp_path / "g.txt"
        save_graph(gnp_random_graph(40, 0.1, seed=1), path, format="edgelist")
        plan, _reused = build_plan(path, 2, tmp_path / "spill")
        assert load_plan(tmp_path / "spill") == plan
        payload = json.loads(plan.plan_path.read_text())
        assert payload["num_shards"] == 2


class TestCacheAndResume:
    def test_shard_package_does_not_load_the_service(self):
        # The shard cache keys on the config identity the service shares,
        # which lives in repro.core.config, so importing the sharded path
        # never pulls in the daemon (its client, server, socket, queue).
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (os.path.join(root, "src"), env.get("PYTHONPATH")))
        )
        code = "import sys, repro.shard\nprint(' '.join(sorted(sys.modules)))"
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=root, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        loaded = set(child.stdout.split())
        assert "repro.shard" in loaded
        assert not {m for m in loaded if m.startswith("repro.service")}

    def _plan(self, tmp_path, seed=1):
        path = tmp_path / "g.txt"
        save_graph(gnp_random_graph(60, 0.1, seed=seed), path, format="edgelist")
        plan, _reused = build_plan(path, 2, tmp_path / "spill")
        return plan

    def test_second_run_loads_from_cache(self, tmp_path):
        plan = self._plan(tmp_path)
        first = run_shards(plan)
        second = run_shards(plan)
        assert not any(s.from_cache for s in first)
        assert all(s.from_cache for s in second)
        assert [s.retained_edges for s in first] == [
            s.retained_edges for s in second
        ]

    def test_config_change_misses_cache(self, tmp_path):
        plan = self._plan(tmp_path)
        run_shards(plan)
        other = ExtractionConfig(engine="reference", maximalize=True)
        assert load_shard_result(plan, 0, other) is None
        stats = run_shards(plan, config=other)
        assert not any(s.from_cache for s in stats)

    def test_thread_count_change_hits_cache(self, tmp_path):
        plan = self._plan(tmp_path)
        one, two = (
            ExtractionConfig(schedule="synchronous", num_threads=t, maximalize=True)
            for t in (1, 2)
        )
        run_shards(plan, config=one)
        assert all(s.from_cache for s in run_shards(plan, config=two))

    def test_corrupt_result_is_a_miss(self, tmp_path):
        plan = self._plan(tmp_path)
        run_shards(plan)
        plan.result_path(0).write_bytes(b"not an npz archive")
        stats = run_shards(plan)
        assert not stats[0].from_cache and stats[1].from_cache

    def test_clear_shard_results(self, tmp_path):
        plan = self._plan(tmp_path)
        run_shards(plan)
        assert clear_shard_results(plan) == 2
        assert clear_shard_results(plan) == 0

    def test_partial_run_resumes_per_shard(self, tmp_path):
        """The crash-resume contract: extracting shard 0, 'crashing',
        then re-running the batch must only extract the missing shard."""
        plan = self._plan(tmp_path)
        extract_shard(plan, 0)
        stats = run_shards(plan)
        assert stats[0].from_cache and not stats[1].from_cache

    def test_stitch_requires_results(self, tmp_path):
        plan = self._plan(tmp_path)
        with pytest.raises(ShardError, match="repro shard run"):
            stitch_shards(plan)

    def test_stitch_is_deterministic(self, tmp_path):
        graph = rmat_er(7, seed=11)
        a = _spill(tmp_path, graph, 3, name="a.txt")
        b = _spill(tmp_path, graph, 3, name="b.txt")
        assert np.array_equal(a.edges, b.edges)
        assert a.rounds == b.rounds

    def test_session_and_config_conflict(self, tmp_path):
        plan = self._plan(tmp_path)
        with Extractor(maximalize=True) as session:
            with pytest.raises(ShardError, match="not both"):
                extract_shard(
                    plan, 0, session=session, config=ExtractionConfig()
                )

    def test_per_shard_verification(self, tmp_path):
        plan = self._plan(tmp_path)
        for shard in range(plan.num_shards):
            edges, stats = extract_shard(plan, shard, verify=True)
            assert stats.verified
            lo, hi = plan.shard_range(shard)
            from repro.graph.builder import from_edge_array

            g = from_edge_array(hi - lo, load_shard_edges(plan, shard) - lo)
            report = verify_extraction(g, edges - lo, check_maximal=True)
            assert report.ok, f"shard {shard}: {report}"


class TestStitchedStructure:
    def test_union_without_boundary_is_chordal(self, tmp_path):
        """Sanity for the 'chordal by construction' argument: the
        pre-stitch union (intra-shard edges only) is already chordal."""
        graph = rmat_er(7, seed=2)
        path = tmp_path / "g.txt"
        save_graph(graph, path, format="edgelist")
        plan, _reused = build_plan(path, 3, tmp_path / "spill")
        run_shards(plan)
        result = stitch_shards(plan)
        intra = result.edges.shape[0] - result.admitted_boundary
        assert intra == result.intra_shard_edges
        union = np.array(
            [
                row
                for row in result.edges.tolist()
                if tuple(row) not in {tuple(r) for r in result.admitted.tolist()}
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        from repro.graph.builder import from_edge_array

        assert is_chordal(from_edge_array(result.num_vertices, union))

    def test_admitted_plus_rejected_cover_boundary(self, tmp_path):
        graph = rmat_er(7, seed=5)
        result = _spill(tmp_path, graph, 4)
        assert (
            result.admitted_boundary + result.rejected.shape[0]
            == result.boundary_edges
        )
