#!/usr/bin/env python
"""Measured wall-clock scaling of the native thread team (Fig-4 style, real).

Times synchronous extraction on R-MAT graphs at three implementations:

* ``reference`` — the literal pseudocode engine (the seed implementation
  style every speedup is reported against),
* ``kernels`` — the vectorized serial engine (bulk NumPy supersteps),
* ``native@W`` — the compiled nogil thread team at each thread count in
  the sweep (team spin-up excluded, matching the paper's exclusion of
  thread-team spin-up).

Unlike ``repro.experiments.fig4`` (which replays instrumented traces on
calibrated machine models), every number here is a real measurement on
this host.  On a single-core container the thread sweep is flat — the
kernels row is then the honest source of speedup.

Run:
    PYTHONPATH=src python benchmarks/bench_scaling.py \
        [--scale 14] [--kinds RMAT-ER RMAT-B] [--workers 1 2 4 8] \
        [--repeats 3] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os

from repro.experiments.report import format_table
from repro.experiments.scaling_measured import measure_engines
from repro.experiments.testsuite import DEFAULT_SEED, build_graph_cached, rmat_spec

DEFAULT_WORKERS = (1, 2, 4, 8)


def measure_scaling(
    kind: str,
    scale: int,
    workers=DEFAULT_WORKERS,
    seed: int = DEFAULT_SEED,
    repeats: int = 3,
) -> dict:
    """Wall-clock seconds for reference / kernels / native@W on one graph.

    Thin wrapper over :func:`repro.experiments.scaling_measured
    .measure_engines` (the one measurement protocol both this script and
    the registered experiment report) adding graph identification.

    Returns ``{"graph", "n", "m", "reference", "kernels", "native":
    {W: t}, "speedup": {label: x}}`` with speedups relative to the
    reference engine (the seed implementation style).
    """
    graph = build_graph_cached(rmat_spec(kind, scale, seed))
    measures = measure_engines(graph, workers=workers, repeats=repeats)
    return {
        "graph": f"{kind}({scale})",
        "n": graph.num_vertices,
        "m": graph.num_edges,
        **measures,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=14)
    parser.add_argument(
        "--kinds", nargs="+", default=["RMAT-ER", "RMAT-B"],
        choices=["RMAT-ER", "RMAT-G", "RMAT-B"],
    )
    parser.add_argument("--workers", nargs="+", type=int,
                        default=list(DEFAULT_WORKERS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--json", default=None,
                        help="also write the raw measurements to this path")
    args = parser.parse_args()
    if any(w < 1 for w in args.workers):
        parser.error("--workers values must be >= 1")

    print(f"host cores: {os.cpu_count()}   repeats: best of {args.repeats}\n")
    results = []
    for kind in args.kinds:
        r = measure_scaling(
            kind, args.scale, workers=args.workers,
            seed=args.seed, repeats=args.repeats,
        )
        results.append(r)

    headers = ["Graph", "n", "m", "reference s", "kernels s"] + [
        f"native@{w} s" for w in args.workers
    ] + ["best speedup"]
    rows = []
    for r in results:
        best = max(r["speedup"].values())
        rows.append(
            [r["graph"], r["n"], r["m"], round(r["reference"], 3),
             round(r["kernels"], 3)]
            + [round(r["native"][w], 3) for w in args.workers]
            + [f"{best:.1f}x"]
        )
    print(format_table(headers, rows))
    print("\nspeedup vs the reference engine:")
    for r in results:
        parts = ", ".join(f"{k} {v:.1f}x" for k, v in r["speedup"].items())
        print(f"  {r['graph']}: {parts}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"cores": os.cpu_count(), "results": results}, fh, indent=2)
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
