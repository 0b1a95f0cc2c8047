"""Tests of the benchmark itself: ``python3 -m pytest perfbench/test_perfbench.py``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import NATIVE_CACHE, Op, OutputChecker, percentile, summarize  # noqa: E402
from tracing import (  # noqa: E402
    TraceSplitError,
    Tracer,
    redrive,
    replica_extract,
    split_pairing,
)

os.environ.setdefault("REPRO_NATIVE_CACHE", str(NATIVE_CACHE))


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(i) for i in range(100)], 0.9) == 89.0
    assert percentile([float(i) for i in range(99)], 0.9) is None
    assert percentile([1.0] * 20, 0.5) == 1.0
    assert percentile([1.0] * 19, 0.5) is None
    assert percentile([], 0.5) is None


def test_summary_reports_p90_only_with_enough_samples():
    few = [Op(kind="x", key="k", wall_s=float(i)) for i in range(50)]
    assert summarize(few, 1.0)["wall_s.p90"] is None
    many = [Op(kind="x", key="k", wall_s=float(i)) for i in range(200)]
    assert summarize(many, 1.0)["wall_s.p90"] == 179.0


def test_p50_weighs_groups_alike_whatever_the_mix():
    def ops(n_fast, n_slow):
        return ([Op(kind="x", key="a", wall_s=1.0, group="er")] * n_fast
                + [Op(kind="x", key="b", wall_s=4.0, group="b")] * n_slow)

    assert summarize(ops(3, 1), 1.0)["wall_s.p50"] == pytest.approx(2.0)
    assert summarize(ops(1, 3), 1.0)["wall_s.p50"] == pytest.approx(2.0)
    assert summarize(ops(3, 1), 1.0)["group_p50"] == {"b": 4.0, "er": 1.0}


def test_non_chordal_output_is_a_failure_not_a_latency(tmp_path):
    from repro.graph.builder import build_graph

    square = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    checker = OutputChecker()
    bad = Op(kind="x", key="square", wall_s=100.0)
    checker.check(bad, square, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]), maximal=False)
    good = Op(kind="x", key="square-path", wall_s=1.0)
    checker.check(good, square, np.array([[0, 1], [1, 2], [2, 3]]), maximal=True)
    assert not bad.ok and "not chordal" in bad.error
    assert good.ok
    summary = summarize([bad, good], 2.0)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["fail_frac"] == 0.5
    assert summary["wall_s.p50"] == 1.0  # the failed op's 100 s is excluded


def test_truncated_input_fails_the_cli_op(tmp_path):
    from repro.graph.generators import rmat_er
    from repro.graph.io import save_graph
    from workloads import CliWorkload

    path = tmp_path / "g.mtx"
    save_graph(rmat_er(8, seed=1), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2].rsplit("\n", 1)[0] + "\n")
    workload = CliWorkload(name="t", inputs=(), cycle=("g",))
    ops, span, _ = workload.run({"paths": {"g": path}}, 0.01, tmp_path)
    assert len(ops) == 1 and not ops[0].ok and "exit 2" in ops[0].error
    summary = summarize(ops, span)
    assert summary["failed"] == 1 and summary["samples"] == 0


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    from harness import run_child

    ballast = np.ones(64 * 2**20 // 8)  # 64 MiB resident in this process
    child = run_child([sys.executable, "-c", "x = bytearray(24 * 2**20)"],
                      stderr_path=tmp_path / "c.err")
    assert child.returncode == 0 and child.wall_s > 0
    assert 24 < child.peak_rss_mb < ballast.nbytes / 2**20
    failing = run_child([sys.executable, "-c", "raise SystemExit(3)"],
                        stderr_path=tmp_path / "f.err")
    assert failing.returncode == 3


@pytest.mark.parametrize("maximalize", [False, True])
@pytest.mark.parametrize("family", ["rmat_er", "rmat_b"])
def test_replica_reproduces_the_session_bit_for_bit(family, maximalize):
    from repro.core.config import ExtractionConfig
    from repro.core.session import Extractor
    from repro.graph import generators

    graph = getattr(generators, family)(8, seed=3)
    cfg = ExtractionConfig(maximalize=maximalize).resolved()
    tracer = Tracer()
    with tracer.op(0):
        edges, counts = replica_extract(graph, cfg, tracer)
    with Extractor(cfg) as extractor:
        expected = extractor.extract(graph).edges
    assert edges.dtype == expected.dtype
    assert np.array_equal(edges, expected)
    assert redrive(graph, cfg)["core.runtime.accepted"] > 0
    wall, selfs = tracer.self_times(0)
    assert sum(selfs.values()) == pytest.approx(wall, abs=1e-9)
    assert ("core.maximalize" in selfs) == maximalize


def test_split_fails_loudly_on_an_unknown_pairing():
    from repro.core.config import ExtractionConfig
    from repro.core.engines import get_engine
    from repro.graph.generators import rmat_er

    with pytest.raises(TraceSplitError, match="not a backend_run_fn pairing"):
        split_pairing(get_engine("reference"))
    with pytest.raises(TraceSplitError, match="ThreadTeamExecutor"):
        redrive(rmat_er(6, seed=1), ExtractionConfig(engine="threaded").resolved())
    with pytest.raises(TraceSplitError, match="default path only"):
        replica_extract(rmat_er(6, seed=1),
                        ExtractionConfig(engine="process").resolved(), Tracer())
