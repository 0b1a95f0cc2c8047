"""Measured (not modeled) strong-scaling of the native thread team.

Every other scaling artifact in this reproduction replays an instrumented
work trace on the calibrated Cray XMT / Opteron machine models.  This
experiment is the real thing: it times the thread team that runs the
``superstep`` engine's synchronous rounds (compiled round bodies that
release the GIL) on the host's actual cores and reports a
Figure-4-style wall-clock curve, next to the serial
synchronous baselines (the literal ``reference`` engine — the seed
implementation style, dicts and sets — and the vectorized kernel
engine).

On a single-core host the thread sweep degenerates to coordination
overhead — the honest result — while the kernel-vs-reference row still
shows the vectorization speedup.  ``notes`` records the core count and
the kernel path so recorded runs are interpretable.
"""

from __future__ import annotations

import os

from repro.core.native import native_available
from repro.core.reference import reference_max_chordal
from repro.core.runtime import LocalState, NativeThreadTeamExecutor, SerialExecutor, drive
from repro.experiments.report import ExperimentResult
from repro.experiments.testsuite import DEFAULT_SEED, build_graph_cached, rmat_spec
from repro.util.timing import best_of

__all__ = ["run", "measure_engines"]

#: Thread-count sweep.
DEFAULT_WORKERS = (1, 2, 4)


def measure_engines(graph, workers=DEFAULT_WORKERS, repeats: int = 2) -> dict:
    """The measurement protocol, shared with ``benchmarks/bench_scaling.py``.

    Best-of-``repeats`` wall-clock seconds of synchronous extraction on
    ``graph`` for the literal reference engine (``"reference"`` — the
    seed implementation style), the vectorized serial engine
    (``"kernels"``) and the native thread team at each thread count
    (``"native"``: ``{W: seconds}``, warm-up extraction excluded), plus
    ``"speedup"`` ratios relative to the reference engine.
    """
    t_ref = best_of(
        lambda: reference_max_chordal(graph, schedule="synchronous"), repeats
    )
    t_vec = best_of(
        lambda: drive(LocalState(graph), SerialExecutor(), schedule="synchronous"),
        repeats,
    )
    team: dict[int, float] = {}
    for w in workers:
        with NativeThreadTeamExecutor(w) as executor:

            def once():
                drive(LocalState(graph, w), executor, schedule="synchronous")

            once()  # warm-up: spawn the team, resolve the compiled bodies
            team[w] = best_of(once, repeats)
    speedup = {"kernels": t_ref / t_vec}
    speedup.update({f"native@{w}": t_ref / t for w, t in team.items()})
    return {"reference": t_ref, "kernels": t_vec, "native": team, "speedup": speedup}


def run(
    scales=(9, 10),
    kinds=("RMAT-ER", "RMAT-B"),
    workers=DEFAULT_WORKERS,
    seed: int = DEFAULT_SEED,
    repeats: int = 2,
) -> ExperimentResult:
    """Measure wall-clock synchronous extraction across engines and threads.

    Series: ``{kind}/S{scale}/native`` maps thread count to seconds; rows
    add the serial reference/kernel baselines and the speedup of the best
    thread count over the reference engine (the seed implementation
    style).
    """
    workers = tuple(workers)
    series: dict[str, list[tuple]] = {}
    rows: list[list] = []
    for kind in kinds:
        for scale in scales:
            graph = build_graph_cached(rmat_spec(kind, scale, seed))
            m = measure_engines(graph, workers=workers, repeats=repeats)
            points = [(w, m["native"][w]) for w in workers]
            series[f"{kind}/S{scale}/native"] = points
            best = min(m["native"].values())
            rows.append(
                [
                    f"{kind}({scale})",
                    round(m["reference"] * 1e3, 3),
                    round(m["kernels"] * 1e3, 3),
                    round(points[0][1] * 1e3, 3),
                    round(best * 1e3, 3),
                    round(m["reference"] / best, 2),
                ]
            )
    return ExperimentResult(
        experiment_id="scaling_measured",
        title="Measured native thread-team scaling (wall clock, this host)",
        headers=[
            "Graph",
            "reference ms",
            "kernels ms",
            f"native@{workers[0]} ms",
            "native@best ms",
            "speedup vs reference",
        ],
        rows=rows,
        series=series,
        notes=[
            f"host cores: {os.cpu_count()}",
            f"kernel path: {'native' if native_available() else 'numpy'}",
            f"threads swept: {tuple(workers)}; best of {repeats} repeats",
            "reference = literal pseudocode engine (seed style); "
            "kernels = vectorized serial",
        ],
    )
