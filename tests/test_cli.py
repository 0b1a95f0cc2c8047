"""Tests for the unified ``repro`` CLI (:mod:`repro.cli`).

In-process ``main(argv)`` calls cover the subcommand surface; one
subprocess test exercises the real ``python -m repro generate | extract``
pipe the README advertises.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.graph.generators.rmat import rmat_b, rmat_er
from repro.graph.io import load_graph, save_graph

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_extract_defaults(self):
        args = build_parser().parse_args(["extract", "g.mtx"])
        assert args.engine == "superstep"
        assert args.schedule is None
        assert args.output == "-"

    def test_bad_engine_rejected(self, capsys):
        """--engine choices and help text come from the engine table."""
        from repro.core.engines import ENGINES

        with pytest.raises(SystemExit):
            build_parser().parse_args(["extract", "g.mtx", "--engine", "gpu"])
        err = capsys.readouterr().err
        for name in ENGINES:
            assert name in err, name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["extract", "-h"])
        # argparse reflows help text, so compare wrap-insensitively.
        help_text = " ".join(capsys.readouterr().out.split())
        for spec in ENGINES.values():
            assert spec.description in help_text, spec.name

    def test_variant_is_not_a_flag(self):
        """``variant`` only changes work-trace costs, which no subcommand
        collects, so none of them offers it."""
        for argv in (
            ["extract", "g.mtx"],
            ["mutate", "g.mtx", "ops.txt"],
            ["shard", "run", "--spill-dir", "d"],
            ["shard", "stitch", "--spill-dir", "d"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, "--variant", "unoptimized"])
            build_parser().parse_args(argv)

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_generate_families_listed(self):
        args = build_parser().parse_args(["generate", "rmat-b", "--scale", "9"])
        assert args.family == "rmat-b" and args.scale == 9

    def test_experiments_remainder_forwarded(self):
        args = build_parser().parse_args(["experiments", "table1", "--scales", "8"])
        assert args.rest == ["table1", "--scales", "8"]


class TestGenerate:
    def test_to_file_deterministic(self, tmp_path):
        out = tmp_path / "g.mtx"
        assert main(["generate", "rmat-er", "--scale", "7", "--seed", "3",
                     "-o", str(out)]) == 0
        assert load_graph(out) == rmat_er(7, seed=3)

    def test_to_stdout_edgelist(self, capsys):
        assert main(["generate", "gnp", "--n", "12", "--p", "0.3", "--seed", "1"]) == 0
        captured = capsys.readouterr().out
        g = load_graph(io.StringIO(captured), "edgelist")
        assert g.num_vertices == 12

    @pytest.mark.parametrize("family", ["gnm", "ba", "ktree", "partial-ktree",
                                        "random-chordal", "interval"])
    def test_every_family_runs(self, family, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["generate", family, "--n", "16", "--seed", "2",
                     "-o", str(out)]) == 0
        assert load_graph(out).num_vertices > 0

    def test_stdout_honors_format(self, capsys):
        assert main(["generate", "gnp", "--n", "10", "--p", "0.3",
                     "--seed", "1", "--format", "mtx"]) == 0
        assert capsys.readouterr().out.startswith("%%MatrixMarket")

    def test_stdout_npz_rejected(self, capsys):
        assert main(["generate", "gnp", "--n", "10", "--format", "npz"]) == 2
        assert "stdout" in capsys.readouterr().err


class TestExtract:
    def test_stdout_matches_api(self, tmp_path, capsys):
        g = rmat_b(7, seed=5)
        src = tmp_path / "g.mtx"
        save_graph(g, src, "mtx")
        assert main(["extract", str(src), "--quiet"]) == 0
        out_graph = load_graph(io.StringIO(capsys.readouterr().out), "edgelist")
        expected = extract_maximal_chordal_subgraph(g)
        assert np.array_equal(out_graph.edge_array(), expected.edges)

    def test_process_engine_bit_identical_to_api(self, tmp_path):
        """Acceptance: repro extract --schedule synchronous on a thread
        team, from an .mtx file, produces edges bit-identical to the
        in-process API."""
        g = rmat_er(7, seed=11)
        src = tmp_path / "g.mtx"
        save_graph(g, src, "mtx")
        out = tmp_path / "chordal.txt"
        assert main(["extract", str(src), "--engine", "superstep",
                     "--schedule", "synchronous", "--num-threads", "2",
                     "-o", str(out), "--quiet"]) == 0
        expected = extract_maximal_chordal_subgraph(
            g, engine="superstep", schedule="synchronous", num_threads=2
        )
        assert np.array_equal(load_graph(out).edge_array(), expected.edges)

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n0 2\n2 3\n"))
        assert main(["extract", "-", "--quiet"]) == 0
        out_graph = load_graph(io.StringIO(capsys.readouterr().out), "edgelist")
        assert out_graph.num_edges >= 3

    def test_stdin_honors_input_format(self, capsys, monkeypatch):
        g = rmat_er(6, seed=9)
        buf = io.StringIO()
        save_graph(g, buf, "mtx")
        monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
        assert main(["extract", "-", "--input-format", "mtx", "--quiet"]) == 0
        out_graph = load_graph(io.StringIO(capsys.readouterr().out), "edgelist")
        expected = extract_maximal_chordal_subgraph(g)
        assert np.array_equal(out_graph.edge_array(), expected.edges)

    def test_stdin_npz_rejected(self, capsys):
        assert main(["extract", "-", "--input-format", "npz"]) == 2
        assert "stdin" in capsys.readouterr().err

    def test_stdout_honors_output_format(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        save_graph(rmat_er(6, seed=1), src)
        assert main(["extract", str(src), "--output-format", "mtx",
                     "--quiet"]) == 0
        assert capsys.readouterr().out.startswith("%%MatrixMarket")

    def test_stdout_npz_rejected(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        save_graph(rmat_er(6, seed=1), src)
        assert main(["extract", str(src), "--output-format", "npz"]) == 2
        assert "stdout" in capsys.readouterr().err

    def test_snap_output_rejected(self, tmp_path, capsys):
        """A .snap output would read back with compacted ids (isolated
        vertices gone, ids shifted) and fail `repro verify`; refuse it."""
        src = tmp_path / "g.mtx"
        save_graph(rmat_er(6, seed=1), src)
        out = tmp_path / "out.snap"
        assert main(["extract", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "edgelist" in err
        assert not out.exists()

    def test_process_async_round_trip(self, tmp_path, capsys):
        """Acceptance: repro extract --schedule asynchronous with a thread
        count round-trips through a file and --verify certifies the
        output as a maximal chordal subgraph."""
        from repro.chordality.verify import verify_extraction

        g = rmat_er(7, seed=11)
        src = tmp_path / "g.mtx"
        save_graph(g, src, "mtx")
        out = tmp_path / "chordal.txt"
        assert main(["extract", str(src), "--engine", "superstep",
                     "--schedule", "asynchronous", "--num-threads", "4",
                     "--maximalize", "--verify", "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "verified=chordal,maximal" in err
        report = verify_extraction(g, load_graph(out).edge_array())
        assert report.ok, report

    def test_process_async_batch_shares_pool(self, tmp_path):
        from repro.chordality.verify import verify_extraction

        inputs = []
        for i in range(3):
            path = tmp_path / f"g{i}.txt"
            save_graph(rmat_er(6, seed=i), path)
            inputs.append(str(path))
        out_dir = tmp_path / "out"
        assert main(["extract", *inputs, "--out-dir", str(out_dir),
                     "--engine", "superstep", "--schedule", "asynchronous",
                     "--num-threads", "2", "--quiet"]) == 0
        for i in range(3):
            sub = load_graph(out_dir / f"g{i}.chordal.txt")
            report = verify_extraction(
                rmat_er(6, seed=i), sub.edge_array(), check_maximal=False
            )
            assert report.ok, (i, str(report))

    def test_verify_flag_certifies_sync_output(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        save_graph(rmat_er(6, seed=1), src)
        assert main(["extract", str(src), "--verify",
                     "-o", str(tmp_path / "o.txt")]) == 0
        assert "verified=chordal" in capsys.readouterr().err

    def test_unknown_schedule_exits_nonzero_one_line(self, capsys):
        """An unknown --schedule must exit non-zero with a one-line
        parser error, never a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["extract", "g.mtx", "--schedule", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_out_dir_name_collision_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "g.mtx", tmp_path / "g.edges"
        save_graph(rmat_er(6, seed=1), a)
        save_graph(rmat_er(6, seed=2), b)
        assert main(["extract", str(a), str(b),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "map to" in capsys.readouterr().err

    def test_multiple_inputs_need_out_dir(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(rmat_er(6, seed=1), a)
        save_graph(rmat_er(6, seed=2), b)
        assert main(["extract", str(a), str(b)]) == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_batch_out_dir_shares_pool(self, tmp_path):
        inputs = []
        for i in range(3):
            path = tmp_path / f"g{i}.txt"
            save_graph(rmat_er(6, seed=i), path)
            inputs.append(str(path))
        out_dir = tmp_path / "out"
        assert main(["extract", *inputs, "--out-dir", str(out_dir),
                     "--engine", "superstep", "--schedule", "synchronous",
                     "--num-threads", "2", "--quiet"]) == 0
        for i in range(3):
            result = load_graph(out_dir / f"g{i}.chordal.txt")
            expected = extract_maximal_chordal_subgraph(
                rmat_er(6, seed=i), engine="superstep", schedule="synchronous",
                num_threads=2,
            )
            assert np.array_equal(result.edge_array(), expected.edges)

    def test_stats_line_on_stderr(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        save_graph(rmat_er(6, seed=1), src)
        assert main(["extract", str(src), "-o", str(tmp_path / "o.txt")]) == 0
        err = capsys.readouterr().err
        assert "chordal=" in err and "engine=superstep" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["extract", str(tmp_path / "nope.mtx")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not\na matrix market file\n")
        assert main(["extract", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def _write_pair(self, tmp_path, maximalize):
        g = rmat_er(7, seed=3)
        src = tmp_path / "g.mtx"
        save_graph(g, str(src))
        out = tmp_path / "chordal.txt"
        argv = ["extract", str(src), "-o", str(out), "-q"]
        if maximalize:
            argv.insert(2, "--maximalize")
        assert main(argv) == 0
        return g, src, out

    def test_valid_maximalized_output_passes(self, tmp_path, capsys):
        _, src, out = self._write_pair(tmp_path, maximalize=True)
        assert main(["verify", str(src), str(out)]) == 0
        err = capsys.readouterr().err
        assert "valid extraction (chordal + maximal)" in err

    def test_chordal_only_skips_maximality(self, tmp_path, capsys):
        """Un-maximalized Algorithm 1 output may have a small gap; the
        --chordal-only mode mirrors bare `repro extract --verify`."""
        _, src, out = self._write_pair(tmp_path, maximalize=False)
        assert main(["verify", str(src), str(out), "--chordal-only"]) == 0
        assert "valid extraction (chordal)" in capsys.readouterr().err

    def test_non_chordal_subgraph_exits_3(self, tmp_path, capsys):
        g, src, _ = self._write_pair(tmp_path, maximalize=True)
        # The input graph is its own (non-chordal) "extraction".
        assert main(["verify", str(src), str(src)]) == 3
        assert "verification failed" in capsys.readouterr().err

    def test_invented_edges_exit_3(self, tmp_path, capsys):
        src = tmp_path / "path.txt"
        src.write_text("0 1\n1 2\n")  # path graph: no 0-2 edge
        fake = tmp_path / "fake.txt"
        fake.write_text("0 1\n1 2\n0 2\n")  # claims an edge the input lacks
        assert main(["verify", str(src), str(fake)]) == 3
        err = capsys.readouterr().err
        assert "verification failed" in err and "invents edges" in err

    def test_double_stdin_rejected(self, capsys):
        assert main(["verify", "-", "-"]) == 2
        assert "stdin" in capsys.readouterr().err

    def test_stdin_graph(self, tmp_path, monkeypatch, capsys):
        g, src, out = self._write_pair(tmp_path, maximalize=True)
        buf = io.StringIO()
        save_graph(g, buf, "mtx")
        monkeypatch.setattr(sys, "stdin", io.StringIO(buf.getvalue()))
        assert main(
            ["verify", "-", str(out), "--input-format", "mtx", "-q"]
        ) == 0

    def test_quiet_suppresses_verdict(self, tmp_path, capsys):
        _, src, out = self._write_pair(tmp_path, maximalize=True)
        assert main(["verify", str(src), str(out), "-q"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "a.mtx"), str(tmp_path / "b.txt")]) == 2
        assert "error" in capsys.readouterr().err


class TestBench:
    def test_missing_checkout_reports_error(self, monkeypatch, capsys, tmp_path):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_repo_root", lambda: tmp_path)
        assert main(["bench"]) == 2
        assert "source checkout" in capsys.readouterr().err

    @pytest.mark.slow
    def test_regression_guard_runs(self):
        assert main(["bench"]) == 0

    def test_record_choice_parsing(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["bench"]).record is None
        assert parser.parse_args(["bench", "--record"]).record == "quality"
        assert parser.parse_args(["bench", "--record", "quality"]).record == "quality"
        for retired in ("kernels", "batch", "async", "service", "all"):
            with pytest.raises(SystemExit):
                parser.parse_args(["bench", "--record", retired])
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--record", "kernels"])
        assert exc.value.code == 2
        assert "invalid choice: 'kernels'" in capsys.readouterr().err

    def test_record_all_runs_every_recorder(self, monkeypatch):
        import repro.cli as cli

        recorded = []

        class FakeModule:
            def __init__(self, name):
                self.name = name

            def record(self):
                recorded.append(self.name)

        monkeypatch.setattr(cli, "_load_bench_module", FakeModule)
        for argv in (["bench", "--record"], ["bench", "--record", "quality"]):
            recorded.clear()
            assert main(argv) == 0
            assert recorded == ["bench_quality"]


class TestPipe:
    def test_generate_extract_pipe_subprocess(self, tmp_path):
        """`python -m repro generate | python -m repro extract -` end to end."""
        root, env = _ROOT, _child_env()
        generate = subprocess.run(
            [sys.executable, "-m", "repro", "generate", "rmat-er",
             "--scale", "6", "--seed", "1"],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        assert generate.returncode == 0, generate.stderr
        extract = subprocess.run(
            [sys.executable, "-m", "repro", "extract", "-", "--quiet"],
            input=generate.stdout, capture_output=True, text=True, env=env,
            cwd=root, timeout=120,
        )
        assert extract.returncode == 0, extract.stderr
        piped = load_graph(io.StringIO(extract.stdout), "edgelist")
        expected = extract_maximal_chordal_subgraph(rmat_er(6, seed=1))
        assert np.array_equal(piped.edge_array(), expected.edges)


class TestLazyStartup:
    """``repro extract`` imports what it runs: the chordality oracles
    arrive with ``--verify`` and never without it, and no run loads the
    generators, the shard planner, the service or the experiments."""

    @pytest.mark.parametrize("flags, certifies", [([], False), (["--verify"], True)])
    def test_extract_loads_only_what_it_runs(self, tmp_path, flags, certifies):
        save_graph(rmat_er(8, seed=1), tmp_path / "g.mtx")
        argv = ["extract", str(tmp_path / "g.mtx"), "-o", str(tmp_path / "h.txt"), "-q", *flags]
        code = (
            "import sys\nfrom repro.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(' '.join(sorted(sys.modules)))\nsys.exit(rc)"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_child_env(), cwd=_ROOT, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        loaded = set(child.stdout.split())
        assert ("repro.chordality" in loaded) == certifies
        heavy = {"repro.graph.generators", "repro.shard", "repro.service", "repro.experiments"}
        assert not loaded & heavy


class TestExtractServerVerifyParity:
    """``repro extract --server --verify`` must mirror the local exit-code
    contract: a daemon-side VERIFY_FAILED is rc=3 with the counterexample
    report on stderr, not a traceback or a generic rc=2."""

    def _start_server(self, sock):
        from repro.service import ReproServer, ServiceConfig

        return ReproServer(ServiceConfig(socket_path=sock))

    def test_server_verify_pass_in_process(self, tmp_path, capsys):
        from repro.service import ReproServer  # noqa: F401 - import guard

        sock = str(tmp_path / "vp.sock")
        source = str(tmp_path / "g.mtx")
        save_graph(rmat_er(6, seed=5), source)
        with self._start_server(sock):
            rc = main(
                ["extract", source, "--server", sock, "--verify",
                 "--maximalize", "-o", str(tmp_path / "out.txt")]
            )
        assert rc == 0
        assert "verified=chordal,maximal" in capsys.readouterr().err

    def test_server_verify_failure_exits_3_subprocess(self, tmp_path):
        """Real CLI subprocess against a daemon whose verifier is rigged
        to fail: the client must exit 3 and relay the report."""
        from repro.chordality.verify import VerificationReport

        sock = str(tmp_path / "vf.sock")
        source = str(tmp_path / "g.mtx")
        save_graph(rmat_er(6, seed=5), source)
        server = self._start_server(sock)
        # Rig the daemon (which lives in THIS process): every verification
        # reports a fake hole, as a genuinely buggy engine would.
        server._verify_failure = lambda *a, **k: __import__(
            "repro.service.protocol", fromlist=["error_response"]
        ).error_response(
            "VERIFY_FAILED",
            str(
                VerificationReport(
                    edges_valid=True, chordal=False, maximal=None,
                    hole=[0, 1, 2, 3],
                )
            ),
        )
        root, env = _ROOT, _child_env()
        with server:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "extract", source,
                 "--server", sock, "--verify"],
                capture_output=True, text=True, env=env, cwd=root, timeout=120,
            )
        assert proc.returncode == 3, (proc.returncode, proc.stderr)
        assert "verification failed" in proc.stderr
        assert "hole" in proc.stderr  # the counterexample made it across


class TestMutate:
    def _edgelist(self, tmp_path, graph, name="g.txt"):
        path = tmp_path / name
        save_graph(graph, str(path))
        return str(path)

    def test_mutate_round_trip(self, tmp_path, capsys):
        from repro.chordality.verify import verify_extraction
        from repro.graph.io import load_graph as _load

        graph = rmat_er(6, seed=9)
        gpath = self._edgelist(tmp_path, graph)
        mpath = tmp_path / "muts.txt"
        u, v = (int(x) for x in graph.edge_array()[0])
        mpath.write_text(
            "# one delete, one fresh insert\n"
            f"delete {u} {v}\n"
            f"insert {u} {v}\n"
        )
        out = tmp_path / "chordal.txt"
        rc = main(
            ["mutate", gpath, str(mpath), "-o", str(out), "--verify"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "mutations=2" in err and "verified=chordal,maximal" in err
        edges = _load(str(out)).edge_array()
        report = verify_extraction(graph, edges, check_maximal=True)
        assert report.ok, report

    def test_mutate_from_stdin_ops(self, tmp_path, capsys, monkeypatch):
        graph = rmat_er(5, seed=3)
        gpath = self._edgelist(tmp_path, graph)
        u, v = (int(x) for x in graph.edge_array()[0])
        monkeypatch.setattr("sys.stdin", io.StringIO(f"- {u} {v}\n+ {u} {v}\n"))
        assert main(["mutate", gpath, "-", "-o", str(tmp_path / "o.txt")]) == 0
        assert "mutations=2" in capsys.readouterr().err

    def test_mutate_bad_op_exits_2_with_location(self, tmp_path, capsys):
        gpath = self._edgelist(tmp_path, rmat_er(5, seed=3))
        mpath = tmp_path / "muts.txt"
        mpath.write_text("insert 0 1 2\n")
        assert main(["mutate", gpath, str(mpath)]) == 2
        err = capsys.readouterr().err
        assert "muts.txt:1" in err and "expected 'OP U V'" in err

    def test_mutate_double_stdin_rejected(self, capsys):
        assert main(["mutate", "-", "-"]) == 2
        assert "stdin" in capsys.readouterr().err

    def test_mutate_invalid_mutation_exits_2(self, tmp_path, capsys):
        graph = rmat_er(5, seed=3)
        gpath = self._edgelist(tmp_path, graph)
        mpath = tmp_path / "muts.txt"
        u, v = (int(x) for x in graph.edge_array()[0])
        mpath.write_text(f"insert {u} {v}\n")  # already present
        assert main(["mutate", gpath, str(mpath)]) == 2
        assert "already an edge" in capsys.readouterr().err


class TestShard:
    """The out-of-core surface: `repro shard plan|run|stitch` and
    `repro extract --sharded` (see tests/test_sharded.py for the
    subsystem's property sweep)."""

    def _write_graph(self, tmp_path, seed=3):
        g = rmat_er(7, seed=seed)
        src = tmp_path / "g.txt"
        save_graph(g, src)
        return g, str(src)

    def test_plan_run_stitch_pipeline(self, tmp_path, capsys):
        g, src = self._write_graph(tmp_path)
        spill = str(tmp_path / "spill")
        out = tmp_path / "chordal.txt"
        assert main(["shard", "plan", src, "--shards", "3",
                     "--spill-dir", spill]) == 0
        assert "boundary_pairs=" in capsys.readouterr().err
        assert main(["shard", "run", "--spill-dir", spill, "--verify"]) == 0
        assert "verified" in capsys.readouterr().err
        assert main(["shard", "stitch", "--spill-dir", spill, "--certify",
                     "-o", str(out)]) == 0
        assert "certified=chordal" in capsys.readouterr().err
        # The written subgraph passes the standalone verifier (chordal;
        # maximality over the whole graph is boundary-certified only).
        assert main(["verify", src, str(out), "--chordal-only",
                     "--quiet"]) == 0

    def test_extract_sharded_matches_stepwise(self, tmp_path, capsys):
        _g, src = self._write_graph(tmp_path, seed=8)
        out1 = tmp_path / "one.txt"
        out2 = tmp_path / "two.txt"
        assert main(["extract", src, "--sharded", "--shards", "3",
                     "--spill-dir", str(tmp_path / "s1"), "-o", str(out1),
                     "--verify", "--quiet"]) == 0
        spill = str(tmp_path / "s2")
        assert main(["shard", "plan", src, "--shards", "3",
                     "--spill-dir", spill, "-q"]) == 0
        assert main(["shard", "run", "--spill-dir", spill, "-q"]) == 0
        assert main(["shard", "stitch", "--spill-dir", spill,
                     "-o", str(out2), "-q"]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()

    def test_extract_sharded_resumes_from_cache(self, tmp_path, capsys):
        _g, src = self._write_graph(tmp_path)
        spill = str(tmp_path / "spill")
        args = ["extract", src, "--sharded", "--shards", "2",
                "--spill-dir", spill, "-o", str(tmp_path / "out.txt")]
        assert main(args) == 0
        assert "(cached 0)" in capsys.readouterr().err
        assert main(args) == 0
        assert "(cached 2)" in capsys.readouterr().err

    def test_run_single_shard(self, tmp_path, capsys):
        _g, src = self._write_graph(tmp_path)
        spill = str(tmp_path / "spill")
        assert main(["shard", "plan", src, "--spill-dir", spill, "-q"]) == 0
        assert main(["shard", "run", "--spill-dir", spill,
                     "--shard", "1"]) == 0
        err = capsys.readouterr().err
        assert "shard 1:" in err and "shard 0:" not in err

    def test_stitch_before_run_errors(self, tmp_path, capsys):
        _g, src = self._write_graph(tmp_path)
        spill = str(tmp_path / "spill")
        assert main(["shard", "plan", src, "--spill-dir", spill, "-q"]) == 0
        assert main(["shard", "stitch", "--spill-dir", spill]) == 2
        assert "repro shard run" in capsys.readouterr().err

    def test_run_without_plan_errors(self, tmp_path, capsys):
        assert main(["shard", "run", "--spill-dir", str(tmp_path)]) == 2
        assert "repro shard plan" in capsys.readouterr().err

    def test_sharded_flag_validation(self, tmp_path, capsys):
        _g, src = self._write_graph(tmp_path)
        # --shards/--spill-dir without --sharded
        assert main(["extract", src, "--shards", "8"]) == 2
        assert "--sharded" in capsys.readouterr().err
        # --sharded without --spill-dir
        assert main(["extract", src, "--sharded"]) == 2
        assert "--spill-dir" in capsys.readouterr().err
        # --sharded with stdin
        assert main(["extract", "-", "--sharded",
                     "--spill-dir", str(tmp_path / "s")]) == 2
        assert "file input" in capsys.readouterr().err
        # --sharded with --server
        assert main(["extract", src, "--sharded",
                     "--spill-dir", str(tmp_path / "s"),
                     "--server", "/tmp/nope.sock"]) == 2
        assert "exclusive" in capsys.readouterr().err
