"""Unified command-line interface: ``python -m repro`` / the ``repro`` script.

The CLI turns the library into a tool: point it at graph files in any
supported format (see :mod:`repro.graph.io`) and get chordal edge lists
out, generate the paper's graph families to disk, guard answer quality
and the compiled backend's speedup, and regenerate the paper's tables
and figures.

Subcommands
-----------
``extract``
    File in, maximal chordal edge list out, with every knob of
    :class:`repro.core.config.ExtractionConfig`; ``--engine`` /
    ``--schedule`` choices come from the engine table
    (:mod:`repro.core.engines`).  The whole invocation runs through one
    :class:`repro.core.session.Extractor`.  ``--verify`` certifies
    every output through :func:`repro.chordality.verify_extraction`
    (chordality always; maximality when ``--maximalize`` guarantees it).
``verify``
    Standalone certification of a *saved* extraction: given the input
    graph file and the extracted subgraph file, re-run
    :func:`repro.chordality.verify_extraction` (chordality + maximality
    by default) and exit 3 on failure — the offline mirror of ``repro
    extract --verify`` for outputs produced earlier or elsewhere.
``generate``
    Write an R-MAT / random / chordal family graph to file (or stdout).
``mutate``
    Dynamic graphs: load a graph, apply an edge-mutation stream
    (:class:`repro.core.incremental.IncrementalExtractor`) and write the
    maximalizing extraction of the final graph — the same edges as
    ``repro extract --maximalize`` on that graph.
``shard``
    Out-of-core extraction, stepwise (:mod:`repro.shard`): ``plan``
    streams a huge input into per-shard spill files, ``run`` extracts
    shards resumably (per-shard results are cached on disk), ``stitch``
    reconciles boundary edges chordally and writes the global edge set.
    ``repro extract --sharded --shards N --spill-dir DIR`` is the
    one-shot form.
``serve``
    Run the extraction service (:mod:`repro.service`): a daemon behind a
    unix socket (and/or TCP), with an admission queue, dispatcher
    threads, per-request deadlines and a content-hash result cache.
    ``repro extract --server`` routes through it.
``bench``
    Runs ``benchmarks/bench_regression_guard.py``, the host-independent
    gates: the BENCH_quality.json retained-edge gate and live
    compiled-vs-interpreted ratios of the round loop and the asynchronous
    sweep.  ``--record`` re-records
    BENCH_quality.json.  Wall-clock benchmarks live in ``perfbench/``.
``experiments``
    Delegates to :mod:`repro.experiments.runner` (tables and figures).

Examples
--------
::

    repro --version
    repro generate rmat-b --scale 12 --seed 1 -o graph.mtx
    repro extract graph.mtx -o chordal.txt --schedule synchronous --num-threads 4
    repro generate rmat-er --scale 8 | repro extract - --quiet
    repro extract data/*.mtx --out-dir results/ --schedule synchronous
    repro serve --socket /tmp/repro.sock --dispatchers 2 &
    repro extract graph.mtx --server /tmp/repro.sock
    repro bench
    repro experiments table1 --scales 8,9

Exit codes: 0 on success, 2 on bad input (malformed graph file, missing
path, unknown knob values — argparse prints its own one-line error for
those), 3 when ``--verify`` rejects an output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.core.config import DEFAULT_NUM_THREADS, ExtractionConfig
from repro.core.engines import ENGINES, SCHEDULES, engine_names
from repro.core.session import Extractor
from repro.errors import ReproError
from repro.graph.generators import (
    barabasi_albert,
    gnm_random_graph,
    gnp_random_graph,
    interval_graph,
    ktree,
    partial_ktree,
    random_chordal,
    rmat_b,
    rmat_er,
    rmat_g,
)
from repro.graph.io import (
    FORMATS,
    STREAMABLE_FORMATS,
    load_graph,
    read_edgelist,
    read_metis,
    read_mtx,
    read_snap,
    save_graph,
    strip_format_extension,
    write_edgelist,
    write_metis,
    write_mtx,
)
from repro.util.timing import Timer

__all__ = ["main", "build_parser"]

#: family name -> (builder from parsed args, knobs used) for ``generate``.
_FAMILIES = {
    "rmat-er": (
        lambda a: rmat_er(a.scale, seed=a.seed, edge_factor=a.edge_factor),
        "--scale/--edge-factor",
    ),
    "rmat-g": (
        lambda a: rmat_g(a.scale, seed=a.seed, edge_factor=a.edge_factor),
        "--scale/--edge-factor",
    ),
    "rmat-b": (
        lambda a: rmat_b(a.scale, seed=a.seed, edge_factor=a.edge_factor),
        "--scale/--edge-factor",
    ),
    "gnp": (lambda a: gnp_random_graph(a.n, a.p, seed=a.seed), "--n/--p"),
    "gnm": (lambda a: gnm_random_graph(a.n, a.m, seed=a.seed), "--n/--m"),
    "ba": (lambda a: barabasi_albert(a.n, a.m, seed=a.seed), "--n/--m"),
    "ktree": (lambda a: ktree(a.n, a.k, seed=a.seed), "--n/--k"),
    "partial-ktree": (lambda a: partial_ktree(a.n, a.k, a.keep, seed=a.seed), "--n/--k/--keep"),
    "random-chordal": (lambda a: random_chordal(a.n, a.density, seed=a.seed), "--n/--density"),
    "interval": (lambda a: interval_graph(a.n, seed=a.seed), "--n"),
}


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maximal chordal subgraph extraction "
        "(Halappanavar et al., ICPP 2012) — batch pipeline and tools",
    )
    class _VersionAction(argparse.Action):
        """``--version`` with native-backend status.

        Resolution (which may build the extension on first call) happens
        here — when the flag is actually used — never at parser
        construction.
        """

        def __call__(self, parser, namespace, values, option_string=None):
            from repro.core.native import native_status

            status = native_status()
            state = "available" if status.available else "unavailable"
            print(f"{parser.prog} {__version__}")
            print(f"native kernels: {state} ({status.detail})")
            parser.exit()

    parser.add_argument(
        "--version", action=_VersionAction, nargs=0, help="show version and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser(
        "extract",
        help="extract maximal chordal subgraphs from graph files",
        description="Read graph file(s), run Algorithm 1, write the chordal "
        "edge set.",
    )
    ex.add_argument(
        "inputs", nargs="+", help="input graph file(s); '-' reads an edge list from stdin"
    )
    ex.add_argument(
        "-o", "--output", default="-", help="output path for a single input ('-' = stdout)"
    )
    ex.add_argument(
        "--out-dir",
        default=None,
        help="directory for per-input outputs (<stem>.chordal.<ext>); "
        "required with multiple inputs",
    )
    ex.add_argument(
        "--input-format",
        choices=FORMATS,
        default=None,
        help="input format (default: auto-detect per file)",
    )
    ex.add_argument(
        "--output-format",
        choices=("edgelist", "mtx", "metis", "npz"),
        default=None,
        help="output format (default: by output extension, else edgelist)",
    )
    ex.add_argument(
        "--engine",
        choices=engine_names(),
        default="superstep",
        help="; ".join(f"{e.name}: {e.description}" for e in ENGINES.values()),
    )
    ex.add_argument(
        "--schedule",
        choices=SCHEDULES,
        default=None,
        help="default: the engine's natural schedule ("
        + ", ".join(f"{e.name}: {e.default_schedule}" for e in ENGINES.values())
        + ")",
    )
    ex.add_argument(
        "--num-threads",
        type=int,
        default=DEFAULT_NUM_THREADS,
        help="thread-team size of synchronous rounds",
    )
    ex.add_argument(
        "--renumber", choices=("bfs",), default=None, help="BFS-renumber before extraction"
    )
    ex.add_argument(
        "--stitch", action="store_true", help="bridge disconnected output components"
    )
    ex.add_argument(
        "--maximalize",
        action="store_true",
        help="run the completion pass (certified maximal output)",
    )
    ex.add_argument(
        "--verify",
        action="store_true",
        help="certify each output (chordal; also maximal with --maximalize) "
        "before writing it; exit 3 on failure",
    )
    ex.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-graph stats on stderr"
    )
    ex.add_argument(
        "--server",
        default=None,
        metavar="ADDR",
        help="route extraction through a running `repro serve` daemon: a "
        "unix-socket path, or HOST:PORT for TCP.  --verify then certifies "
        "server-side",
    )
    ex.add_argument(
        "--sharded",
        action="store_true",
        help="out-of-core mode (repro.shard): stream the input into "
        "per-shard spill files, extract each shard, stitch boundary edges "
        "chordally.  Requires one file input and --spill-dir; per-shard "
        "maximalization is always on (the stitched certificates need it).  "
        "--verify certifies every shard plus the stitched seam",
    )
    ex.add_argument(
        "--shards", type=int, default=4, help="shard count for --sharded (default 4)"
    )
    ex.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="spill directory for --sharded (plan.json, shard spills, "
        "cached per-shard results; reused across runs)",
    )

    ver = sub.add_parser(
        "verify",
        help="certify a saved extraction (chordality + maximality)",
        description="Re-verify a saved extraction: load the input graph and "
        "the extracted subgraph, and certify the subgraph is a (maximal) "
        "chordal subgraph of the input via verify_extraction.  Mirrors "
        "`repro extract --verify` for outputs written earlier or by other "
        "tools.  Exit 0 when valid, 3 when any check fails.",
    )
    ver.add_argument("graph", help="input graph file; '-' reads from stdin")
    ver.add_argument(
        "subgraph", help="extracted subgraph file; '-' reads from stdin"
    )
    ver.add_argument(
        "--input-format",
        choices=FORMATS,
        default=None,
        help="graph file format (default: auto-detect)",
    )
    ver.add_argument(
        "--subgraph-format",
        choices=FORMATS,
        default=None,
        help="subgraph file format (default: auto-detect)",
    )
    ver.add_argument(
        "--chordal-only",
        action="store_true",
        help="skip the maximality certificate (chordality + edge validity "
        "only) — use for outputs extracted without --maximalize, which "
        "Algorithm 1 alone does not guarantee to be maximal",
    )
    ver.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the verdict line on success"
    )

    gen = sub.add_parser(
        "generate",
        help="generate a graph family to file",
        description="Write one graph of a named family.  Each family reads "
        "its own knobs: " + "; ".join(f"{k}: {v[1]}" for k, v in _FAMILIES.items()),
    )
    gen.add_argument("family", choices=sorted(_FAMILIES))
    gen.add_argument("-o", "--output", default="-", help="output path ('-' = stdout edge list)")
    gen.add_argument(
        "--format",
        choices=("edgelist", "mtx", "metis", "npz"),
        default=None,
        help="output format (default: by extension, else edgelist)",
    )
    gen.add_argument("--scale", type=int, default=10, help="R-MAT scale (|V| = 2^scale)")
    gen.add_argument("--edge-factor", type=int, default=8, help="R-MAT |E| = factor * |V|")
    gen.add_argument("--n", type=int, default=128, help="vertex count (non-R-MAT families)")
    gen.add_argument("--p", type=float, default=0.1, help="gnp edge probability")
    gen.add_argument("--m", type=int, default=3, help="gnm edge count / ba attachment")
    gen.add_argument("--k", type=int, default=3, help="(partial-)ktree clique size")
    gen.add_argument("--keep", type=float, default=0.5, help="partial-ktree keep fraction")
    gen.add_argument("--density", type=float, default=0.3, help="random-chordal density")
    gen.add_argument("--seed", type=int, default=None, help="RNG seed")

    srv = sub.add_parser(
        "serve",
        help="run the extraction service daemon (queue, cache)",
        description="Serve extraction requests over a unix socket (and/or "
        "TCP): dispatcher threads behind a bounded admission queue "
        "(explicit BUSY backpressure), per-request deadlines and a "
        "content-hash result cache.  Clients: "
        "`repro extract --server ADDR` or repro.service.ServiceClient.  "
        "Stop with SIGINT/SIGTERM (drains in-flight requests first).",
    )
    srv.add_argument(
        "--socket", default=None, metavar="PATH", help="unix-socket path to listen on"
    )
    srv.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="also (or instead) listen on TCP; port 0 picks a free port",
    )
    srv.add_argument(
        "--dispatchers",
        type=int,
        default=1,
        help="threads executing admitted requests (default 1)",
    )
    srv.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission-queue bound; further requests get BUSY (default 32)",
    )
    srv.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (default 30)",
    )
    srv.add_argument(
        "--cache-entries",
        type=int,
        default=128,
        help="result-cache entry ceiling; 0 disables caching (default 128)",
    )
    srv.add_argument(
        "--cache-bytes",
        type=int,
        default=256 * 1024 * 1024,
        help="result-cache byte ceiling (default 256 MiB)",
    )
    srv.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="ignore the protocol's shutdown op (stop via signals only)",
    )

    mut = sub.add_parser(
        "mutate",
        help="apply an edge-mutation stream, then extract",
        description="Load a graph, apply an edge-mutation stream and write "
        "the maximal chordal subgraph of the final graph: one maximalizing "
        "extraction (the edges of 'repro extract --maximalize' on that "
        "graph), or one per mutation under --verify-each.",
    )
    mut.add_argument(
        "graph", help="input graph file; '-' reads an edge list from stdin"
    )
    mut.add_argument(
        "mutations",
        help="mutation stream file ('-' = stdin): one 'OP U V' per line "
        "with OP in insert/+/delete/-; '#' starts a comment",
    )
    mut.add_argument(
        "-o", "--output", default="-", help="output path ('-' = stdout)"
    )
    mut.add_argument(
        "--input-format",
        choices=FORMATS,
        default=None,
        help="graph file format (default: auto-detect)",
    )
    mut.add_argument(
        "--output-format",
        choices=("edgelist", "mtx", "metis", "npz"),
        default=None,
        help="output format (default: by output extension, else edgelist)",
    )
    mut.add_argument(
        "--engine",
        choices=engine_names(),
        default="superstep",
        help="engine for the maximalizing extraction",
    )
    mut.add_argument(
        "--verify",
        action="store_true",
        help="certify the final result (chordal + maximal); exit 3 on failure",
    )
    mut.add_argument(
        "--verify-each",
        action="store_true",
        help="certify after every mutation (slow); exit 3 on first failure",
    )
    mut.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the stats line on stderr"
    )

    shard = sub.add_parser(
        "shard",
        help="stepwise out-of-core extraction: plan / run / stitch",
        description="The stepwise face of `repro extract --sharded` "
        "(repro.shard): `plan` streams the input into per-shard spill "
        "files under an edge-balanced vertex partition; `run` extracts "
        "shards (resumable — results are cached per shard, keyed by input "
        "digest + partition + config); `stitch` reconciles boundary edges "
        "in deterministic chordality-preserving rounds and writes the "
        "stitched edge set.  Run and stitch must use the same engine knobs "
        "(the result cache is config-keyed).",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    sp = shard_sub.add_parser(
        "plan", help="stream the input file into per-shard spill files"
    )
    sp.add_argument("input", help="input graph file (edgelist/snap/mtx, .gz ok)")
    sp.add_argument("--shards", type=int, default=4, help="shard count (default 4)")
    sp.add_argument("--spill-dir", required=True, metavar="DIR")
    sp.add_argument(
        "--input-format",
        choices=STREAMABLE_FORMATS,
        default=None,
        help="input format (default: auto-detect; metis/npz are not streamable)",
    )
    sp.add_argument(
        "--force",
        action="store_true",
        help="re-stream even if the spill dir already holds a matching plan",
    )
    sp.add_argument("-q", "--quiet", action="store_true")

    def _add_shard_engine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            choices=engine_names(),
            default="superstep",
            help="per-shard extraction engine (default superstep)",
        )
        p.add_argument("--schedule", choices=SCHEDULES, default=None)
        p.add_argument("--num-threads", type=int, default=DEFAULT_NUM_THREADS)
        p.add_argument("--renumber", choices=("bfs",), default=None)
        p.add_argument(
            "--no-maximalize",
            action="store_true",
            help="skip the per-shard completion pass (default on: the "
            "stitched maximality certificates assume locally maximal shards)",
        )

    sr = shard_sub.add_parser(
        "run", help="extract planned shards (cached results are skipped)"
    )
    sr.add_argument("--spill-dir", required=True, metavar="DIR")
    sr.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="N",
        help="extract only shard N (default: all shards)",
    )
    sr.add_argument(
        "--no-cache", action="store_true", help="re-extract even cached shards"
    )
    sr.add_argument(
        "--verify",
        action="store_true",
        help="certify each freshly extracted shard (verify_extraction); "
        "exit 3 on failure",
    )
    _add_shard_engine_options(sr)
    sr.add_argument("-q", "--quiet", action="store_true")

    st = shard_sub.add_parser(
        "stitch",
        help="reconcile boundary edges and write the stitched chordal edge set",
    )
    st.add_argument("--spill-dir", required=True, metavar="DIR")
    st.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    st.add_argument(
        "--output-format",
        choices=("edgelist", "mtx", "metis", "npz"),
        default=None,
    )
    st.add_argument(
        "--certify",
        action="store_true",
        help="certify the stitched result: full chordality check plus "
        "sampled boundary maximality / hole certificates; exit 3 on failure",
    )
    st.add_argument(
        "--samples", type=int, default=64, help="--certify sample count (default 64)"
    )
    st.add_argument("--seed", type=int, default=0, help="--certify sample seed")
    _add_shard_engine_options(st)
    st.add_argument("-q", "--quiet", action="store_true")

    be = sub.add_parser(
        "bench",
        help="run the quality + native-speedup guard / record the quality baseline",
        description="Without flags, runs benchmarks/bench_regression_guard.py "
        "(fails if any engine's retained-edge quality drops below "
        "BENCH_quality.json, the compiled round loop is less than 2.5x "
        "faster than the NumPy one, or the compiled asynchronous sweep is "
        "less than 10x faster than the interpreted one on this host).  "
        "--record re-records "
        "the answer-quality baseline, BENCH_quality.json.  Wall-clock "
        "benchmarks live in perfbench/ (python3 perfbench/run.py).",
    )
    be.add_argument(
        "--record",
        nargs="?",
        const="quality",
        choices=("quality",),
        default=None,
        help="re-record BENCH_quality.json (bare --record means 'quality')",
    )
    be.add_argument(
        "pytest_args", nargs="*", help="extra arguments forwarded to pytest"
    )

    exp = sub.add_parser(
        "experiments",
        add_help=False,
        help="regenerate the paper's tables/figures (repro.experiments runner)",
    )
    exp.add_argument("rest", nargs=argparse.REMAINDER)

    return parser


def _repo_root() -> Path:
    """Source-checkout root (two levels above this file's package dir)."""
    return Path(__file__).resolve().parents[2]


def _load_bench_module(name: str):
    """Import a ``benchmarks/`` script by path (the directory is not a package)."""
    import importlib.util

    bench_dir = _repo_root() / "benchmarks"
    path = bench_dir / f"{name}.py"
    if not path.exists():
        raise ReproError(
            f"{path} not found — the bench subcommand needs a source checkout "
            "(benchmarks/ is not installed with the package)"
        )
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_stdin(fmt: str | None):
    """Read a graph from stdin in the requested text format."""
    readers = {
        "edgelist": read_edgelist,
        "mtx": read_mtx,
        "metis": read_metis,
        "snap": lambda fh: read_snap(fh)[0],
    }
    fmt = fmt or "edgelist"
    if fmt not in readers:
        raise ReproError(f"format {fmt!r} cannot be read from stdin (needs a file)")
    return readers[fmt](sys.stdin)


def _write_stdout(graph, fmt: str | None) -> None:
    """Write a graph to stdout in a text format (binary npz needs a file)."""
    writers = {
        "edgelist": write_edgelist,
        "mtx": write_mtx,
        "metis": write_metis,
    }
    fmt = fmt or "edgelist"
    if fmt not in writers:
        raise ReproError(f"format {fmt!r} cannot be written to stdout (needs a file)")
    writers[fmt](graph, sys.stdout)


def _write_result(result, target: str, out_format: str | None) -> None:
    if target == "-":
        _write_stdout(result.subgraph, out_format)
    else:
        save_graph(result.subgraph, target, format=out_format)


def _out_dir_target(out_dir: Path, source: str, out_ext: str) -> str:
    """Per-input output path: ``<out_dir>/<input stem>.chordal<out_ext>``."""
    stem = strip_format_extension(Path(source).name) if source != "-" else "stdin"
    return str(out_dir / f"{stem}.chordal{out_ext}")


def _parse_server_address(address: str) -> dict:
    """``--server`` value -> ServiceClient kwargs (unix path or HOST:PORT)."""
    if ":" in address and "/" not in address:
        host, _, port = address.rpartition(":")
        if not port.isdigit():
            raise ReproError(
                f"--server {address!r}: TCP form is HOST:PORT (numeric port)"
            )
        return {"host": host or "127.0.0.1", "port": int(port)}
    return {"socket_path": address}


def _extract_via_server(args: argparse.Namespace, out_dir, out_ext) -> int:
    """The ``--server`` path of ``repro extract``: same inputs/outputs,
    extraction (and --verify certification) done by the daemon."""
    from repro.service import ServiceClient, ServiceError

    config = {"engine": args.engine}
    if args.schedule is not None:
        config["schedule"] = args.schedule
    if args.num_threads is not None:
        config["num_threads"] = args.num_threads
    if args.renumber is not None:
        config["renumber"] = args.renumber
    if args.stitch:
        config["stitch"] = True
    if args.maximalize:
        config["maximalize"] = True
    with ServiceClient(**_parse_server_address(args.server)) as client:
        for source in args.inputs:
            if source == "-":
                graph, name = _read_stdin(args.input_format), "<stdin>"
            else:
                graph, name = load_graph(source, format=args.input_format), source
            with Timer() as timer:
                try:
                    result = client.extract(graph, config=config, verify=args.verify)
                except ServiceError as exc:
                    if exc.code == "VERIFY_FAILED":
                        print(
                            f"repro extract: verification failed for {name}: "
                            f"{exc}",
                            file=sys.stderr,
                        )
                        return 3
                    raise
            target = (
                _out_dir_target(out_dir, source, out_ext) if out_dir else args.output
            )
            _write_result(result, target, args.output_format)
            if not args.quiet:
                m = graph.num_edges
                verified = (
                    " verified=chordal" + (",maximal" if args.maximalize else "")
                    if args.verify
                    else ""
                )
                print(
                    f"{name}: n={graph.num_vertices} m={m} "
                    f"chordal={result.num_edges} "
                    f"({100 * (result.num_edges / m if m else 1.0):.1f}%) "
                    f"iterations={result.num_iterations} "
                    f"engine={result.engine} served_by={result.served_by}"
                    f"{' (cached)' if result.cached else ''}{verified} "
                    f"[{timer.elapsed:.3f}s]",
                    file=sys.stderr,
                )
    return 0


def _extract_sharded(args: argparse.Namespace) -> int:
    """The ``--sharded`` path of ``repro extract``: plan, run, stitch."""
    from repro.shard import certify_stitched, extract_sharded

    if len(args.inputs) != 1 or args.inputs[0] == "-":
        print(
            "repro extract: error: --sharded takes exactly one file input "
            "(streaming needs a re-openable path)",
            file=sys.stderr,
        )
        return 2
    if args.spill_dir is None:
        print(
            "repro extract: error: --sharded requires --spill-dir",
            file=sys.stderr,
        )
        return 2
    if args.server is not None:
        print(
            "repro extract: error: --sharded and --server are exclusive "
            "(the daemon is an in-memory engine)",
            file=sys.stderr,
        )
        return 2
    source = args.inputs[0]
    # The completion pass is forced on: the stitch-time maximality
    # certificates assume each shard is locally maximal.
    config = ExtractionConfig(
        engine=args.engine,
        schedule=args.schedule,
        num_threads=args.num_threads,
        renumber=args.renumber,
        stitch=args.stitch,
        maximalize=True,
    )
    with Timer() as timer:
        result = extract_sharded(
            source,
            num_shards=args.shards,
            spill_dir=args.spill_dir,
            format=args.input_format,
            config=config,
            verify_shards=args.verify,
        )
    verified = ""
    if args.verify:
        problems = certify_stitched(result)
        if problems:
            print(
                f"repro extract: verification failed for {source}: "
                + "; ".join(problems),
                file=sys.stderr,
            )
            return 3
        verified = " verified=shards,chordal,boundary-sample"
    if args.output == "-":
        _write_stdout(result.subgraph(), args.output_format)
    else:
        save_graph(result.subgraph(), args.output, format=args.output_format)
    if not args.quiet:
        cached = sum(1 for s in result.shard_stats if s.from_cache)
        print(
            f"{source}: n={result.num_vertices} raw_pairs={result.plan.raw_pairs} "
            f"chordal={result.num_chordal_edges} shards={result.num_shards} "
            f"(cached {cached}) boundary={result.boundary_edges} "
            f"admitted={result.admitted_boundary} rounds={result.rounds} "
            f"engine={args.engine}{verified} [{timer.elapsed:.3f}s]",
            file=sys.stderr,
        )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    if args.sharded:
        return _extract_sharded(args)
    if args.spill_dir is not None or args.shards != 4:
        print(
            "repro extract: error: --shards/--spill-dir need --sharded",
            file=sys.stderr,
        )
        return 2
    if len(args.inputs) > 1 and not args.out_dir:
        print(
            "repro extract: error: multiple inputs require --out-dir",
            file=sys.stderr,
        )
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    out_ext = {"mtx": ".mtx", "metis": ".metis", "npz": ".npz"}.get(
        args.output_format or "edgelist", ".txt"
    )
    if out_dir:
        targets = [_out_dir_target(out_dir, source, out_ext) for source in args.inputs]
        seen: dict[str, str] = {}
        for source, target in zip(args.inputs, targets):
            if target in seen:
                print(
                    f"repro extract: error: inputs {seen[target]!r} and "
                    f"{source!r} both map to {target!r}; rename one input",
                    file=sys.stderr,
                )
                return 2
            seen[target] = source
    if args.server is not None:
        return _extract_via_server(args, out_dir, out_ext)
    # One validated config for the whole invocation; schedule=None
    # resolves to the engine's default (synchronous for
    # weighted, asynchronous otherwise).
    config = ExtractionConfig(
        engine=args.engine,
        schedule=args.schedule,
        num_threads=args.num_threads,
        renumber=args.renumber,
        stitch=args.stitch,
        maximalize=args.maximalize,
    )
    # One session for the whole batch.
    with Extractor(config) as extractor:
        for source in args.inputs:
            if source == "-":
                graph, name = _read_stdin(args.input_format), "<stdin>"
            else:
                graph, name = load_graph(source, format=args.input_format), source
            with Timer() as timer:
                result = extractor.extract(graph)
            verified = ""
            if args.verify:
                from repro.chordality.verify import verify_extraction

                # Maximality is only guaranteed after the completion pass
                # (Theorem 2 overclaims — see repro.chordality.maximality),
                # so certify it exactly when --maximalize provides it.
                report = verify_extraction(
                    graph, result, check_maximal=args.maximalize
                )
                if not report.ok:
                    print(
                        f"repro extract: verification failed for {name}: "
                        f"{report}",
                        file=sys.stderr,
                    )
                    return 3
                verified = " verified=chordal" + (
                    ",maximal" if args.maximalize else ""
                )
            target = (
                _out_dir_target(out_dir, source, out_ext) if out_dir else args.output
            )
            _write_result(result, target, args.output_format)
            if not args.quiet:
                print(
                    f"{name}: n={graph.num_vertices} m={graph.num_edges} "
                    f"chordal={result.num_chordal_edges} "
                    f"({100 * result.chordal_fraction:.1f}%) "
                    f"iterations={result.num_iterations} "
                    f"engine={args.engine} kernel={result.kernel_path}"
                    f"{verified} [{timer.elapsed:.3f}s]",
                    file=sys.stderr,
                )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.chordality.verify import verify_extraction

    if args.graph == "-" and args.subgraph == "-":
        print(
            "repro verify: error: only one of graph/subgraph can read stdin",
            file=sys.stderr,
        )
        return 2
    if args.graph == "-":
        graph = _read_stdin(args.input_format)
    else:
        graph = load_graph(args.graph, format=args.input_format)
    if args.subgraph == "-":
        extracted = _read_stdin(args.subgraph_format)
    else:
        extracted = load_graph(args.subgraph, format=args.subgraph_format)
    # Hand verify_extraction the edge array, not the reloaded CSR graph:
    # text formats drop trailing isolated vertices, so the reloaded vertex
    # count routinely differs from the input's — the edge-set path
    # normalises that (and reports out-of-range rows instead of raising).
    report = verify_extraction(
        graph, extracted.edge_array(), check_maximal=not args.chordal_only
    )
    if not report.ok:
        print(
            f"repro verify: verification failed for {args.subgraph}: {report}",
            file=sys.stderr,
        )
        return 3
    if not args.quiet:
        print(
            f"{args.subgraph}: {report} against {args.graph} "
            f"(n={graph.num_vertices} m={graph.num_edges} "
            f"subgraph_edges={extracted.num_edges})",
            file=sys.stderr,
        )
    return 0


def _read_mutations(source: str) -> list[tuple[str, int, int]]:
    """Parse a mutation-stream file: one ``OP U V`` per line (``OP`` in
    ``insert``/``+``/``delete``/``-``), ``#`` comments, blank lines
    skipped."""
    fh = sys.stdin if source == "-" else open(source, "r", encoding="utf-8")
    name = "<stdin>" if source == "-" else source
    try:
        ops: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ReproError(
                    f"{name}:{lineno}: expected 'OP U V', got {line!r}"
                )
            op, u, v = parts
            if op not in ("insert", "+", "delete", "-"):
                raise ReproError(
                    f"{name}:{lineno}: unknown op {op!r} "
                    "(expected insert/+/delete/-)"
                )
            try:
                ops.append((op, int(u), int(v)))
            except ValueError:
                raise ReproError(
                    f"{name}:{lineno}: endpoints must be integers, got {line!r}"
                ) from None
        return ops
    finally:
        if source != "-":
            fh.close()


def _cmd_mutate(args: argparse.Namespace) -> int:
    from repro.chordality.verify import verify_extraction
    from repro.core.incremental import IncrementalExtractor

    if args.graph == "-" and args.mutations == "-":
        print(
            "repro mutate: error: only one of graph/mutations can read stdin",
            file=sys.stderr,
        )
        return 2
    if args.graph == "-":
        graph, name = _read_stdin(args.input_format), "<stdin>"
    else:
        graph, name = load_graph(args.graph, format=args.input_format), args.graph
    ops = _read_mutations(args.mutations)
    config = ExtractionConfig(engine=args.engine, maximalize=True)
    extractor = IncrementalExtractor(graph, config=config)
    retained = 0
    with Timer() as timer:
        if args.verify_each:
            for index, (op, u, v) in enumerate(ops):
                counts = extractor.apply_batch([(op, u, v)])
                retained += counts["retained"]
                report = verify_extraction(
                    extractor.graph, extractor.edges, check_maximal=True
                )
                if not report.ok:
                    print(
                        f"repro mutate: verification failed after mutation "
                        f"#{index} ({op} {u} {v}): {report}",
                        file=sys.stderr,
                    )
                    return 3
        else:
            counts = extractor.apply_batch(ops)
            retained = counts["retained"]
    if args.verify and not args.verify_each:
        report = verify_extraction(
            extractor.graph, extractor.edges, check_maximal=True
        )
        if not report.ok:
            print(
                f"repro mutate: verification failed for {name}: {report}",
                file=sys.stderr,
            )
            return 3
    result = extractor.result()
    _write_result(result, args.output, args.output_format)
    if not args.quiet:
        rate = len(ops) / timer.elapsed if timer.elapsed > 0 else float("inf")
        verified = (
            " verified=chordal,maximal" if args.verify or args.verify_each else ""
        )
        print(
            f"{name}: n={extractor.num_vertices} m={extractor.num_edges} "
            f"chordal={extractor.num_chordal_edges} "
            f"mutations={len(ops)} retained_inserts={retained} "
            f"extractions={extractor.stats['full_rebuilds']} "
            f"({rate:.0f} updates/s){verified} [{timer.elapsed:.3f}s]",
            file=sys.stderr,
        )
    return 0


def _shard_config(args: argparse.Namespace) -> ExtractionConfig:
    """One config for ``shard run`` / ``shard stitch`` — identical knobs
    must yield identical cache keys, so both build it the same way."""
    return ExtractionConfig(
        engine=args.engine,
        schedule=args.schedule,
        num_threads=args.num_threads,
        renumber=args.renumber,
        maximalize=not args.no_maximalize,
    )


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.shard import build_plan, load_plan, run_shards, stitch_shards

    if args.shard_command == "plan":
        with Timer() as timer:
            plan, reused = build_plan(
                args.input,
                args.shards,
                args.spill_dir,
                format=args.input_format,
                resume=not args.force,
            )
        if not args.quiet:
            sizes = [
                plan.cuts[s + 1] - plan.cuts[s] for s in range(plan.num_shards)
            ]
            print(
                f"{args.input}: n={plan.num_vertices} "
                f"raw_pairs={plan.raw_pairs} shards={plan.num_shards} "
                f"vertices/shard={min(sizes)}..{max(sizes)} "
                f"local_pairs={list(plan.local_counts)} "
                f"boundary_pairs={plan.boundary_count} "
                f"format={plan.input_format}"
                f"{' (reused existing plan)' if reused else ''} "
                f"[{timer.elapsed:.3f}s]",
                file=sys.stderr,
            )
        return 0

    plan = load_plan(args.spill_dir)
    config = _shard_config(args)
    if args.shard_command == "run":
        shards = None if args.shard is None else [args.shard]
        with Timer() as timer:
            stats = run_shards(
                plan,
                config=config,
                shards=shards,
                use_cache=not args.no_cache,
                verify=args.verify,
            )
        if not args.quiet:
            for s in stats:
                tag = "cached" if s.from_cache else f"{s.seconds:.3f}s"
                verified = " verified" if s.verified else ""
                print(
                    f"shard {s.shard}: n={s.num_vertices} m={s.num_edges} "
                    f"chordal={s.retained_edges} engine={s.engine}"
                    f"{verified} [{tag}]",
                    file=sys.stderr,
                )
            print(
                f"{len(stats)} shard(s) [{timer.elapsed:.3f}s]", file=sys.stderr
            )
        return 0

    # stitch
    with Timer() as timer:
        result = stitch_shards(plan, config=config)
    if args.certify:
        from repro.shard import certify_stitched

        problems = certify_stitched(
            result, samples=args.samples, seed=args.seed
        )
        if problems:
            print(
                "repro shard stitch: certification failed: "
                + "; ".join(problems),
                file=sys.stderr,
            )
            return 3
    if args.output == "-":
        _write_stdout(result.subgraph(), args.output_format)
    else:
        save_graph(result.subgraph(), args.output, format=args.output_format)
    if not args.quiet:
        certified = " certified=chordal,boundary-sample" if args.certify else ""
        print(
            f"{plan.input_path}: n={result.num_vertices} "
            f"chordal={result.num_chordal_edges} "
            f"(intra {result.intra_shard_edges} + boundary "
            f"{result.admitted_boundary}) boundary={result.boundary_edges} "
            f"rounds={result.rounds}{certified} [{timer.elapsed:.3f}s]",
            file=sys.stderr,
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _FAMILIES[args.family][0](args)
    if args.output == "-":
        _write_stdout(graph, args.format)
    else:
        save_graph(graph, args.output, format=args.format)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.record is not None:
        _load_bench_module("bench_quality").record()
        return 0
    guard = _repo_root() / "benchmarks" / "bench_regression_guard.py"
    if not guard.exists():
        raise ReproError(
            f"{guard} not found — the bench subcommand needs a source checkout"
        )
    from repro.core.native import native_status

    status = native_status()
    kernel = "native" if status.available else "numpy"
    print(
        f"repro bench: kernel path {kernel} ({status.detail})",
        file=sys.stderr,
    )
    import pytest

    return pytest.main([str(guard), "-q", *args.pytest_args])


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import ReproServer, ServiceConfig

    host: str | None = None
    port = 0
    if args.tcp is not None:
        h, _, p = args.tcp.rpartition(":")
        if not p.isdigit():
            raise ReproError(f"--tcp {args.tcp!r}: expected HOST:PORT (numeric port)")
        host, port = h or "127.0.0.1", int(p)
    config = ServiceConfig(
        socket_path=args.socket,
        host=host,
        port=port,
        num_dispatchers=args.dispatchers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        allow_remote_shutdown=not args.no_remote_shutdown,
    )
    server = ReproServer(config)

    def _stop(signum, frame):  # noqa: ARG001 - signal-handler signature
        server.request_stop()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    server.start()
    listening = []
    if args.socket:
        listening.append(args.socket)
    if server.tcp_address:
        listening.append("%s:%d" % server.tcp_address)
    print(
        f"repro serve: listening on {' and '.join(listening)} "
        f"({config.num_dispatchers} dispatcher(s), "
        f"queue depth {config.queue_depth})",
        file=sys.stderr,
        flush=True,
    )
    server.serve_forever()
    print("repro serve: drained and stopped", file=sys.stderr)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as experiments_main

    return experiments_main(args.rest)


_COMMANDS = {
    "extract": _cmd_extract,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "mutate": _cmd_mutate,
    "shard": _cmd_shard,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "experiments": _cmd_experiments,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream closed the pipe early (e.g. `repro ... | head`) —
        # conventional success; swap stdout for devnull so the interpreter's
        # shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, ValueError, OSError) as exc:
        # ValueError covers argparse-valid but semantically bad knob
        # combinations the library rejects (e.g. a schedule the chosen
        # engine does not support), keeping every bad-input path a
        # one-line error.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
