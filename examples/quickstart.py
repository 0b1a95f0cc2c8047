#!/usr/bin/env python
"""Quickstart: extract and verify a maximal chordal subgraph.

Generates one of the paper's R-MAT test graphs, runs Algorithm 1 in all
registered engines, verifies the output with the chordality oracle,
prints the statistics the paper reports (chordal-edge fraction,
iteration profile), demonstrates the session API (``ExtractionConfig``
+ ``Extractor`` streaming a batch), and
finishes with the file-based CLI workflow (``repro generate`` / ``repro
extract`` on a MatrixMarket file).

Run:
    python examples/quickstart.py [--scale 10] [--verify]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    ExtractionConfig,
    Extractor,
    extract_maximal_chordal_subgraph,
    is_chordal,
    rmat_b,
)
from repro.chordality import assert_valid_extraction
from repro.util.timing import Timer, format_seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=10, help="R-MAT scale (|V|=2^scale)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--verify",
        action="store_true",
        help="additionally certify maximality (slower; runs the completion pass)",
    )
    args = parser.parse_args()

    print(f"Generating RMAT-B({args.scale}) ...")
    graph = rmat_b(args.scale, seed=args.seed)
    print(f"  {graph.num_vertices} vertices, {graph.num_edges} edges, "
          f"max degree {graph.max_degree()}")

    # --- the one-liner most users need -----------------------------------
    with Timer() as t:
        result = extract_maximal_chordal_subgraph(graph)
    print(f"\nAlgorithm 1 (serial superstep engine): {format_seconds(t.elapsed)}")
    print(f"  chordal edges : {result.num_chordal_edges} "
          f"({100 * result.chordal_fraction:.1f}% of |E|)")
    print(f"  iterations    : {result.num_iterations}")
    print(f"  queue profile : {result.queue_sizes[:8]}"
          f"{' ...' if result.num_iterations > 8 else ''}")
    assert is_chordal(result.subgraph), "Theorem 1 violated?!"

    # --- all engines agree on validity ------------------------------------
    # Engines come from the registry (repro.core.engines), so a
    # third-party register_engine() call would show up in this sweep
    # automatically.
    from repro import engine_names

    print("\nCross-engine check (each engine's default schedule):")
    for engine in engine_names():
        r = extract_maximal_chordal_subgraph(
            graph, engine=engine, schedule=None
        )
        marker = "ok" if is_chordal(r.subgraph) else "FAIL"
        print(f"  {engine:10s}: {r.num_chordal_edges} edges, "
              f"{r.num_iterations} iterations [{marker}]")

    # --- the session API: many graphs, one config ---------------------------
    # ExtractionConfig validates every knob once, and stream() yields
    # results lazily — a million-graph batch never materialises a list.
    # Synchronous rounds run on a thread team of num_threads.
    config = ExtractionConfig(schedule="synchronous", num_threads=2)
    print(f"\nSession API ({config.engine} engine, {config.schedule} "
          f"schedule, {config.num_threads} threads):")
    with Extractor(config) as extractor, Timer() as t:
        for i, r in enumerate(extractor.stream(
                rmat_b(args.scale - 2, seed=s) for s in range(4))):
            print(f"  graph {i}: {r.num_chordal_edges} chordal edges "
                  f"({100 * r.chordal_fraction:.1f}%)")
    print(f"  4 extractions: {format_seconds(t.elapsed)}")

    # --- deterministic equality between serial engines --------------------
    ref = extract_maximal_chordal_subgraph(graph, engine="reference")
    assert np.array_equal(result.edges, ref.edges), "engines diverged"
    print("  superstep == reference edge-for-edge")

    if args.verify:
        print("\nCertifying maximality (BFS renumber + completion pass) ...")
        certified = extract_maximal_chordal_subgraph(
            graph, renumber="bfs", maximalize=True
        )
        assert_valid_extraction(graph, certified.subgraph)
        print(f"  certified maximal; completion pass added "
              f"{certified.maximality_gap} edges the raw algorithm missed "
              f"(the paper's Theorem 2 gap)")

    # --- the same workflow through graph files and the CLI ----------------
    # `repro generate` writes any supported format (here MatrixMarket),
    # `repro extract` reads it back and emits the chordal edge list; with
    # the same family/seed/engine the file round-trip is bit-identical to
    # the in-process API call above.
    import tempfile
    from pathlib import Path

    from repro.cli import main as repro_cli
    from repro.graph.io import load_graph

    print("\nCLI walkthrough (file in -> chordal edge list out):")
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = str(Path(tmp) / "demo.mtx")
        chordal_path = str(Path(tmp) / "demo.chordal.txt")
        print(f"  $ repro generate rmat-b --scale {args.scale} "
              f"--seed {args.seed} -o demo.mtx")
        repro_cli(["generate", "rmat-b", "--scale", str(args.scale),
                   "--seed", str(args.seed), "-o", graph_path])
        print("  $ repro extract demo.mtx -o demo.chordal.txt")
        repro_cli(["extract", graph_path, "-o", chordal_path, "--quiet"])
        from_file = load_graph(chordal_path)
        assert np.array_equal(from_file.edge_array(), result.edges)
        print(f"  -> {from_file.num_edges} chordal edges, "
              "bit-identical to the API result")
        print("  (batches run in one session: "
              "repro extract *.mtx --out-dir out/)")


if __name__ == "__main__":
    main()
