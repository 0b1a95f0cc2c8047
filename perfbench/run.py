"""End-to-end and per-layer benchmark of the repro program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload extract --seed 20120910 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, default seed

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of ``BENCHMARK.json``, measured
with tracing off; with ``--trace 1`` they are the ``per_layer`` list,
from a separate in-process run on the same inputs (see ``tracing.py``).
Lines before it give the host fingerprint, the samples behind each
figure and the kernel path every operation reported.

Workloads and why each was chosen
---------------------------------
Reference shares below were measured on a 2-core x86-64 host with gcc
and cffi present (native backend resolved), medians of 3.  They are what
later changes are compared against, not bounds.

``extract``
    ``repro extract FILE -o OUT`` with default flags, one input per
    operation, alternating three RMAT-ER(14) and three RMAT-B(14) graphs.  About
    0.75 s per operation: start-up ~0.26 s (~33%), load ~0.12 s (~16%),
    rounds ~0.24 s (~30%), save ~0.09 s (~11%), no completion pass.  ER
    takes ~13-18 asynchronous iterations and B ~65-85, so a per-round
    saving and a per-edge saving move the two families differently.
    Engine and runtime changes, import time and I/O show here; the
    addability oracle does not run.
``certify``
    ``repro extract FILE --maximalize --verify``, alternating four
    RMAT-ER(9) and four RMAT-B(9) graphs.  About 1.3 s per ER operation
    (~0.95 s per B); on ER the completion pass is ~1.0 s (~57%) and the
    maximality certificate ~0.35 s (~21%); the rounds are under 1%.
    Scale 9 rather than 10 (4.4 s per operation) so one run covers eight
    graphs, which keeps a single hard graph from moving the figures.
    The addability oracle and the
    chordality checker show here; engine changes predict no movement.
``serve``
    ``repro serve --socket S`` with default flags as a child; one
    load-generator process holds two closed-loop connections.  Each
    connection's seeded sequence mixes extracts of two hot RMAT-ER(11)
    graphs (cache hits, ~29 ms), ``no_cache`` extracts of two cold
    RMAT-ER(11) graphs (dispatched, ~80 ms) and single-edge ``mutate`` ops
    on the connection's session over an RMAT-B(9) graph, opened at set-up.
    Protocol, queue, cache and incremental layers show here: a
    per-request tax shows on hits, a read gain that costs writes on the mix.
    The 45/25/30 hit/miss/mutate shares, the two hot and two cold graphs
    and the one session per connection are synthetic, not taken from any
    recorded use.  So that conclusions do not rest on them, ``wall_s.p50``
    here is built from the per-kind medians (hit ~36 ms, miss ~100 ms,
    mutate ~17 ms under two-connection load), each weighing alike; only
    ``ops_per_s`` depends on the shares.
``sharded``
    ``repro extract FILE --sharded --shards 4 --spill-dir FRESH --verify``
    cycling six RMAT-ER(11) inputs.  About 1.5 s per operation (3.3 s at
    scale 12): per-shard extraction, completion and verification dominate,
    then stitch and certify.  Scale 11 rather than 12 so one run covers
    twelve operations instead of four.  The fresh spill directory keeps
    the per-shard result cache cold.  The only workload running the shard
    planner, the stitcher (an addability caller) and the stitched
    certificate.

Runs measure whole cycles over their inputs, so each run weighs every
input alike; set-up (inputs, native resolution, and for ``serve`` the
daemon, its sessions and hot cache entries) is repeated three times per
run and reported as the median.

``wall_s.p50`` is the median wall time of each latency group -- the
input family (ER, B) on the CLI workloads, the request kind on
``serve`` -- combined by geometric mean, so a change that moves one
family or one kind moves the figure whatever that group's share of the
operations.  The per-group medians are printed before the result line.
``peak_rss_mb`` is the largest CLI child's own peak, or for ``serve``
the daemon's plus its pool workers' peaks, summed.

Per-layer metric -> end-to-end metric it should move
----------------------------------------------------
=====================  =============================================  ==========
layer                  moves                                          share today
=====================  =============================================  ==========
cli (start-up)         wall_s.p50 on extract; some on certify         ~33% / ~15%
graph.io               wall_s.p50 on extract                          ~27%
core.native            setup_s on every workload                      ~0.3 s
core.runtime           wall_s.p50 on extract, serve misses;           ~30% / -
                       nothing on certify
core.session           wall_s.p50 on extract (self time only)         <2%
core.maximalize        wall_s.p50 on certify and sharded;             ~57% certify
                       setup_s on serve (mutate-session open)
chordality.verify      wall_s.p50 on certify and sharded              ~21% certify
shard                  wall_s.p50 on sharded                          ~95% sharded
service.protocol       wall_s.p50, ops_per_s on serve (hit-heavy)     ~45% of a hit
service.server         ops_per_s on serve; wait share of misses
core.incremental       setup_s on serve; service.mutate_s.p50
trace                  nothing: unattributed time keeps the layer
                       list honest, overhead keeps tracing honest
=====================  =============================================  ==========

Failures (a non-zero exit, a typed service error, an output failing its
certificate) count in ``failed`` and are excluded from latency.  Every
output is certified outside the timed region: chordal everywhere, and
maximal on ``certify``; every output must also match the digest of the
first operation on the same input.  ``sharded`` outputs are certified
chordal here; their maximality rests on the program's own ``--verify``
(each shard maximal plus a sampled seam certificate), because the global
certificate costs ~27 s per output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    DEFAULT_SEED,
    HOLDOUT_SEED,
    NATIVE_CACHE,
    ROOT,
    SRC,
    TMP,
    WORK,
    fingerprint,
    fresh_dir,
    median,
    program_present,
    resolve_native,
    run_child,
    summarize,
)

#: Set-ups per run; set-up time is reported as their median.
SETUP_REPEATS = 3


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(metrics: dict, names: list[dict], *, correct: bool, attempted: int,
         failed: int) -> None:
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark did not measure {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ws = fresh_dir(WORK, f"run-{os.getpid()}")
    try:
        # Let a cold native cache build and the bytecode cache fill before
        # anything is timed: users pay those once per checkout, not per run.
        native = resolve_native(ws)
        run_child([sys.executable, "-c", "import repro.cli"], stderr_path=ws / "warm.err")
        setups = []
        for repeat in range(SETUP_REPEATS if not trace else 1):
            start = time.perf_counter()
            ctx = workload.setup(fresh_dir(ws, f"setup-{repeat}"), seed)
            setups.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1 and not trace:
                workload.discard(ctx)
        try:
            if trace:
                from tracing import traced_run

                result = traced_run(name, workload, ctx, seed, seconds, ws)
            else:
                ops, span, extra = workload.run(ctx, seconds, ws)
                result = summarize(ops, span)
                result.update(extra)
                result["setup_s"] = median(setups)
                result["ops"] = ops
        finally:
            workload.close(ctx)
        result["fingerprint"] = fingerprint(native)
        return result
    finally:
        shutil.rmtree(ws, ignore_errors=True)


def report(name: str, result: dict, trace: bool) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    print(f"# workload {name}  fingerprint {json.dumps(result['fingerprint'])}")
    if trace:
        for line in result["lines"]:
            print(f"#   {line}")
        return
    ops = result["ops"]
    paths = sorted({op.kernel_path for op in ops if op.kernel_path})
    print(f"#   operations {result['attempted']} (failed {result['failed']}, "
          f"fail_frac {result['fail_frac']:.4f}), latency samples {result['samples']}, "
          f"kernel paths reported {paths}")
    p90 = result["wall_s.p90"]
    print(f"#   wall_s.p50 {result['wall_s.p50']:.6f} s, wall_s.p90 "
          + (f"{p90:.6f} s" if p90 is not None else "not reported (<10 samples beyond)"))
    for group, p50 in result["group_p50"].items():
        count = sum(1 for op in ops if op.ok and (op.group or op.kind) == group)
        print(f"#   {group}: {count} ok, p50 {p50 * 1e3:.2f} ms")
    for op in ops:
        if not op.ok:
            print(f"#   FAILED {op.kind} {op.key}: {op.error}")
    if "stats" in result:
        stats = result["stats"]
        print(f"#   daemon stats: cache {stats['cache']}, busy "
              f"{stats['busy_rejections']}, timeouts {stats['timeouts']}, "
              f"retries {stats['retries']}, invalidations {stats['cache_invalidations']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)

    if not program_present():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.all:
        chosen = names
    elif args.workload in names:
        chosen = [args.workload]
    else:
        parser.error(f"--workload must be one of {names} (or pass --all)")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    # Children and the serve clients resolve paths from the checkout root.
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    os.environ["TMPDIR"] = str(TMP)
    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    metric_list = bench["per_layer" if args.trace else "end_to_end"]
    for name in chosen:
        result = run_workload(name, args.seed, seconds, bool(args.trace))
        report(name, result, bool(args.trace))
        emit(result, metric_list, correct=result["failed"] == 0,
             attempted=result["attempted"], failed=result["failed"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
