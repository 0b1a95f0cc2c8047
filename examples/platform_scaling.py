#!/usr/bin/env python
"""Replaying the paper's platform study (Figures 4-6, Table II).

Runs the instrumented algorithm on an R-MAT graph of your chosen scale,
replays the measured work trace on the calibrated Cray XMT and AMD
Opteron models, and prints the scaling curves and speedup rows the paper
reports.  The XMT/Opteron numbers are *modeled*, but the final section
is **measured**: the ``engine="native"`` thread team (compiled round
bodies that release the GIL) runs the synchronous schedule on this
host's real cores, next to the literal reference engine it is compared
against (the seed implementation style) and the vectorized serial
engine.  (``benchmarks/bench_scaling.py`` prints the full curve.)

Run:
    python examples/platform_scaling.py [--kind RMAT-B] [--scale 12]
"""

from __future__ import annotations

import argparse

from repro import extract_maximal_chordal_subgraph
from repro.experiments.scaling_measured import measure_engines
from repro.experiments.testsuite import rmat_spec, build_graph_cached
from repro.machine import CrayXMTModel, OpteronModel, speedup_curve
from repro.util.timing import format_seconds

XMT_SWEEP = [1, 2, 4, 8, 16, 32, 64, 128]
AMD_SWEEP = [1, 2, 4, 8, 16, 32]
MEASURED_SWEEP = [1, 2, 4]


def measured_scaling(graph, workers=MEASURED_SWEEP) -> None:
    """Wall-clock of the native thread team on this host (synchronous schedule).

    Every configuration below returns the identical edge set — the
    snapshot semantics make thread count invisible — so the only thing
    that varies is time.  Delegates to the one measurement protocol
    (``repro.experiments.scaling_measured.measure_engines``) shared with
    ``benchmarks/bench_scaling.py`` and the registered experiment.
    """
    print("--- measured on this host: engine='native' (synchronous) ---")
    m = measure_engines(graph, workers=workers)
    print(f"reference engine (seed)  : {format_seconds(m['reference'])}")
    print(f"vectorized kernel engine : {format_seconds(m['kernels'])} "
          f"({m['speedup']['kernels']:.1f}x vs reference)")
    for w in workers:
        print(f"native engine, {w} thread(s): "
              f"{format_seconds(m['native'][w])} "
              f"({m['speedup'][f'native@{w}']:.1f}x vs reference)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", default="RMAT-B",
                        choices=["RMAT-ER", "RMAT-G", "RMAT-B"])
    parser.add_argument("--scale", type=int, default=12)
    parser.add_argument("--seed", type=int, default=20120910)
    parser.add_argument("--measured-workers", nargs="+", type=int,
                        default=MEASURED_SWEEP,
                        help="thread sweep for the measured native-engine "
                             "section (0 to skip)")
    args = parser.parse_args()

    graph = build_graph_cached(rmat_spec(args.kind, args.scale, args.seed))
    print(f"{args.kind}({args.scale}): {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges\n")

    xmt = CrayXMTModel()
    amd = OpteronModel()

    for variant in ("unoptimized", "optimized"):
        result = extract_maximal_chordal_subgraph(
            graph, variant=variant, collect_trace=True
        )
        trace = result.trace
        print(f"--- variant: {variant} "
              f"({trace.num_iterations} iterations, "
              f"{trace.total_work:.0f} ops, "
              f"critical path {trace.total_critical_path:.0f} ops) ---")
        header = f"{'procs':>6} | {'XMT time':>12} | {'AMD time':>12}"
        print(header)
        print("-" * len(header))
        for p in XMT_SWEEP:
            t_x = xmt.simulate(trace, p).total_seconds
            t_a = (
                format_seconds(amd.simulate(trace, p).total_seconds)
                if p <= max(AMD_SWEEP)
                else "-"
            )
            print(f"{p:>6} | {format_seconds(t_x):>12} | {t_a:>12}")
        s_x = speedup_curve(xmt, trace, [128])[128]
        s_a = speedup_curve(amd, trace, [32])[32]
        print(f"speedup: XMT@128 = {s_x:.1f}x   AMD@32 = {s_a:.1f}x "
              f"(paper Table II analogues)\n")

    workers = [w for w in args.measured_workers if w > 0]
    if workers:
        measured_scaling(graph, workers)


if __name__ == "__main__":
    main()
